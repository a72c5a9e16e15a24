"""Query routing: exact-match and range search (§IV-A, §IV-B).

The exact-match step at a node holding range ``[low, high)`` for value
``v >= high`` is: jump to the *farthest* right-table neighbour whose lower
bound does not exceed ``v``; failing that descend to the right child, else
cross to the right adjacent node (mirror for the left).  Every hop at least
halves the remaining search space, giving O(log N) hops without routing
through the root.

A range query routes like a point query for the first intersecting node,
then expands along adjacent links — O(log N + X) for X covered nodes.

Fault tolerance (§III-D): each step's routing decision is an ordered
candidate stream (:func:`next_hops`: greedy choice first, then nearer
sideways entries, child, adjacent, parent) that the walk consumes only as far
as the first live peer; a hop to a dead peer costs its message and falls
through to the next candidate, which is how queries route around failures
while repair runs.  The greedy choice is a plain call
(:func:`greedy_hop`); the lazy stream repeats it and is built only when the
choice is dead.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, TYPE_CHECKING

from repro.core import cache as route_cache
from repro.core.peer import BatonPeer
from repro.core.results import RangeSearchResult, SearchResult
from repro.net.address import Address
from repro.net.bus import Trace
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError, ProtocolError
from repro.util.stepper import MessageSteps

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def search_exact_steps(
    net: "BatonNetwork",
    start: Address,
    key: int,
    trace: Trace,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """The exact-match query both facades run; returns a :class:`SearchResult`.

    ``found`` means the peer the walk stopped at owns and stores ``key``
    (a walk that gave up stops short of the owner).
    """
    owner, _ = yield from route_steps(net, start, key, MsgType.SEARCH, degraded)
    peer = net.peer(owner)
    found = peer.range.contains(key) and key in peer.store
    return SearchResult(found=found, owner=owner, trace=trace)


def route_steps(
    net: "BatonNetwork",
    start: Address,
    key: int,
    mtype: MsgType,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """Step generator routing from ``start`` to the owner of ``key``.

    What every BATON operation that needs an owner runs: the plain
    :func:`walk_steps` generator, preceded — with the hot-range cache
    enabled (locality extension, default off) — by the entry peer's cached
    shortcut and followed by recording the resolved owner there.  A
    verified hit resolves in one direct message; a stale hint is
    invalidated and the walk continues from wherever it landed — never a
    wrong answer (see :mod:`repro.core.cache`).  Returns ``(address,
    hops)`` like the walk.  Cache-off this *is* the walk generator, so
    the default path pays no wrapper frame per hop.
    """
    if net.config.locality.cache_size > 0:
        return _cached_route_steps(net, start, key, mtype, degraded)
    return walk_steps(net, start, key, mtype, degraded)


def _cached_route_steps(net, start, key, mtype, degraded) -> MessageSteps:
    landed = yield from route_cache.consult_steps(net, start, key, mtype)
    owner, hops = yield from walk_steps(net, landed, key, mtype, degraded)
    peer = net.peers.get(owner)
    if peer is not None and peer.range.contains(key):
        route_cache.record_route(net, start, peer)
    return owner, hops + (landed != start)  # the shortcut hop counts too


def walk_steps(
    net: "BatonNetwork",
    start: Address,
    key: int,
    mtype: MsgType,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """The §IV-A owner walk: one yielded :class:`Hop` per forwarding step.

    Walks to the peer whose range covers ``key`` and returns ``(address,
    hops)`` — the extreme (leftmost/rightmost) peer when ``key`` falls
    outside the covered domain; callers that insert may then expand its
    range.  A hop to a dead peer costs its message and falls through to
    the next candidate (§III-D).  When ``degraded`` allows it (see
    :func:`may_give_up`), a dead end or an exhausted TTL reports the last
    peer reached instead of raising.  The walk re-reads its carrier after
    every hop, so a carrier that vanished while the message was in flight
    raises ``PeerNotFoundError`` — unreachable when driven synchronously.
    """
    send = net.bus.send
    current = start
    hops = 0
    for _ in range(hop_limit(net)):
        peer = net.peer(current)
        if peer.range.contains(key):
            return current, hops
        next_hop = greedy_hop(peer, key)
        if next_hop is None:
            return current, hops  # extreme node; key beyond the covered domain
        try:
            send(current, next_hop, mtype)
        except PeerNotFoundError:
            # Paid for and skipped; the fallbacks follow, the pick seeded
            # as tried so it is never paid for twice.
            for next_hop in next_hops(peer, key, (next_hop,)):
                try:
                    send(current, next_hop, mtype)
                    break
                except PeerNotFoundError:
                    pass
            else:
                if may_give_up(net, degraded):
                    return current, hops  # marooned next to the failure
                raise ProtocolError(
                    f"all routes from {peer.position} toward {key} are dead"
                )
        yield tuple.__new__(Hop, (current, next_hop))
        hops += 1
        current = next_hop
    if may_give_up(net, degraded):
        # The owner itself is dead or routing state is still propagating:
        # the walk gives up (TTL) and reports the last peer reached.
        return current, hops
    raise ProtocolError(f"route toward {key} did not terminate")


def network_degraded(net: "BatonNetwork") -> bool:
    """Whether unrepaired failures or in-flight updates can strand a query."""
    return bool(net.ghosts) or net.updates.pending_count > 0


def may_give_up(
    net: "BatonNetwork", degraded: Optional[Callable[[], bool]]
) -> bool:
    """A stranded walk's one policy question: stop best-effort, or raise?

    Yes when the network itself is degraded (:func:`network_degraded`) or
    when ``degraded`` — the event runtime's "other operations are in
    flight", None when driven synchronously — says links may have gone
    stale between hops.
    """
    return network_degraded(net) or (degraded is not None and degraded())


def hop_limit(net: "BatonNetwork") -> int:
    return 16 * max(net.size.bit_length(), 2) + 64


def greedy_hop(
    peer: BatonPeer, key: int, tried: tuple = ()
) -> Optional[Address]:
    """§IV-A's pick at ``peer`` toward ``key``, or None at the extreme node.

    The farthest qualifying sideways entry, else the child, else the
    adjacent node; never the peer itself (a stale entry) nor an address in
    ``tried``.  A plain call, so a walk whose pick is alive builds no
    generator; :func:`next_hops` is this pick repeated with ``tried``
    growing, which makes this the one definition of the order.
    """
    own = peer.address
    if key >= peer.range.high:
        for info in reversed(peer.right_table.entries):
            if info is not None and info.range.low <= key:
                address = info.address
                if address != own and address not in tried:
                    return address
        links = (peer.right_child, peer.right_adjacent)
    else:
        for info in reversed(peer.left_table.entries):
            if info is not None and info.range.high > key:
                address = info.address
                if address != own and address not in tried:
                    return address
        links = (peer.left_child, peer.left_adjacent)
    for info in links:
        if info is not None:
            address = info.address
            if address != own and address not in tried:
                return address
    return None


def next_hops(
    peer: BatonPeer, key: int, tried: tuple = ()
) -> Iterator[Address]:
    """The routing decision at ``peer`` toward ``key``, as a lazy stream.

    Yields §IV-A's pick first — the farthest qualifying sideways entry —
    then what only matters when that pick is dead (§III-D): the nearer
    qualifying entries, the child, the adjacent node and last the parent.
    The parent is a fallback around failures only: a peer with no other
    candidate is the extreme node, the stopping point for an out-of-domain
    key, and its stream is empty.  The peer itself, repeated addresses
    (stale entries) and the addresses in ``tried`` are skipped; the walk
    seeds ``tried`` with the dead :func:`greedy_hop` pick, so the stream
    picks up right after it.

    Each candidate is :func:`greedy_hop` with the ones yielded so far
    tried; the consumer stops at the first live one, so a rescan happens
    only after a dead hop.  It reads the peer's links as they are now, so
    it must not outlive the protocol step that made it.
    """
    while True:
        address = greedy_hop(peer, key, tried)
        if address is None:
            break
        yield address
        tried += (address,)
    if tried and peer.parent is not None:
        address = peer.parent.address
        if address != peer.address and address not in tried:
            yield address


def search_range_steps(
    net: "BatonNetwork",
    start: Address,
    low: int,
    high: int,
    trace: Trace,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """The §IV-B range query both facades run: route to ``low``'s owner,
    then collect every peer :func:`interval_walk_steps` stands on, and its
    keys in ``[low, high)``, into a :class:`RangeSearchResult`."""
    anchor, _ = yield from route_steps(
        net, start, low, MsgType.RANGE_SEARCH, degraded
    )
    answer = _RangeAnswer(low, high)
    complete = yield from interval_walk_steps(
        net, anchor, low, high, MsgType.RANGE_SEARCH, answer
    )
    return RangeSearchResult(answer.owners, answer.keys, trace, complete)


class _RangeAnswer:
    """Range search's visit rule: every peer stood on, and its keys.  A
    slotted callable, not a closure, whose function object and cells per
    in-flight query cost ``query_flat`` ~3 % peak RSS."""

    __slots__ = ("low", "high", "owners", "keys")

    def __init__(self, low: int, high: int) -> None:
        self.low, self.high, self.owners, self.keys = low, high, [], []

    def __call__(self, peer: BatonPeer) -> None:
        self.owners.append(peer.address)
        self.keys.extend(peer.store.keys_in(self.low, self.high))


def interval_walk_steps(
    net: "BatonNetwork",
    anchor: Address,
    low: int,
    high: int,
    mtype: MsgType,
    visit: Callable[[BatonPeer], None],
) -> MessageSteps:
    """The §IV-B expansion over ``[low, high)``: walk right adjacents.

    Starts at ``anchor``, which the caller has routed to, calls ``visit``
    on every peer it stands on and sends one counted ``mtype`` hop to each
    next adjacent.  Returns ``complete``: the walk was anchored and
    stopped cleanly at ``high`` or the domain edge, not at a dead adjacent
    or a carrier that vanished between hops (repair restores the chain).
    """
    # In a degraded network the route may give up and report a marooned
    # peer that does not anchor the interval; everything the walk collects
    # from there is suspect, so the answer can never be complete.
    anchored = anchors_range(net.peer(anchor), low)
    send = net.bus.send
    current = anchor
    # A consistent chain stands on each live peer at most once; a stale
    # cycle runs out of steps and ends incomplete.
    for _ in range(net.size):
        try:
            peer = net.peer(current)
        except PeerNotFoundError:
            return False  # carrier vanished between hops
        if peer.range.low >= high:
            return anchored
        visit(peer)
        if peer.range.high >= high or peer.right_adjacent is None:
            return anchored
        next_hop = peer.right_adjacent.address
        try:
            send(current, next_hop, mtype)
        except PeerNotFoundError:
            return False  # dead adjacent: its send is paid for
        yield tuple.__new__(Hop, (current, next_hop))
        current = next_hop
    return False


def anchors_range(peer: BatonPeer, low: int) -> bool:
    """Whether ``peer`` is a valid starting point for a range walk at ``low``.

    True for the actual owner of ``low`` and for the extreme peers when
    ``low`` falls outside the covered domain (no keys can exist there).
    """
    if peer.range.contains(low):
        return True
    if low < peer.range.low and peer.left_adjacent is None:
        return True
    return low >= peer.range.high and peer.right_adjacent is None
