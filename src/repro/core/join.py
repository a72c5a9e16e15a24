"""Node join: Algorithm 1 and the routing-table update protocol (§III-A).

A joining node contacts any existing peer; the JOIN request is forwarded —
to the parent when the contacted node's sideways tables are not full, to a
same-level neighbour that lacks a child, or to an adjacent node — until it
reaches a node with **full routing tables and a free child slot**, which by
Theorem 1 can accept a child without unbalancing the tree.

On acceptance the parent splits its range (and the stored keys) with the new
child, splices the child into the adjacent-link chain, and drives the table
update protocol: the parent notifies each of its sideways neighbours (≤ 2·L1
messages), each neighbour informs its children that border the new node
(≤ 2·L2 messages in total), and those children reply to the new node with
their own coordinates (≤ 2·L2 messages), which fills the new node's tables
and everyone else's — fewer than 6·log N messages end to end.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.core.data import hand_over
from repro.core.ids import ROOT
from repro.core.links import LEFT, RIGHT, ROW_DISTANCES, NodeInfo
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.core.results import JoinResult
from repro.core.search import may_give_up
from repro.net.address import Address
from repro.net.bus import Trace
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError, ProtocolError
from repro.util.stepper import MessageSteps

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def try_message(
    net: "BatonNetwork", src: Address, dst: Address, mtype: MsgType
) -> bool:
    """Send one counted message; False if the target turned out dead.

    During churn windows (§V-E) a join can hold stale links to peers that
    failed concurrently; the attempt is paid for and the protocol skips the
    dead neighbour.  The repair of that neighbour's slot announces its new
    occupant and relays to its children's tables, so the gaps heal by
    counted messages.
    """
    try:
        net.bus.send(src, dst, mtype)
    except PeerNotFoundError:
        return False
    return True


def join_steps(
    net: "BatonNetwork",
    start: Address,
    trace: Trace,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """Join one new peer, entering the overlay at ``start``.

    The one join both facades run (``BatonNetwork.join`` drives it, the
    event runtime resumes it), cutting the op's ``trace`` at the
    acceptance into the result's find and update halves.

    In a degraded network (unrepaired failures) the placement walk can get
    boxed in by dead neighbours; the walk then re-enters through a different
    contact, as a real joining host would (:func:`find_join_parent_steps`).

    With topology-aware probing on (``LocalityConfig.join_probes > 1`` and
    a topology installed — default off) the contact peer first probes
    candidate entry points on the joiner's behalf and the Algorithm 1 walk
    starts at the cheapest neighbourhood; with probing off the walk is
    message-for-message Algorithm 1 (pinned).

    The accepting parent drains its inbox before committing: the walk's
    acceptance test may have read table entries whose corrections (a
    neighbour's new child, a LEAVE notice) were still in flight, and
    accepting on stale state would violate Theorem 1.  Check and accept
    run in one segment; a parent whose fresh state disagrees sends the
    walk on.  Both are inert when driven synchronously: nothing is in
    flight, and the walk only returns a parent that passed the same test.
    """
    newcomer, start = yield from entry_steps(net, start)
    current = start
    for _attempt in range(16):
        parent_address = yield from find_join_parent_steps(net, current, degraded)
        net.updates.drain(parent_address)
        parent = net.peer(parent_address)
        if not can_accept_join(parent):
            current = parent_address
            yield Hop(current, current)  # local beat: re-examine, move on
            continue
        find_trace = trace.frozen("join.find")
        side = LEFT if parent.left_child is None else RIGHT
        new_peer = add_child(net, parent, side, peer=newcomer)
        net.stats.joins += 1
        return JoinResult(
            address=new_peer.address,
            parent=parent_address,
            find_trace=find_trace,
            update_trace=trace.since(find_trace, "join.update"),
        )
    raise ProtocolError("join kept losing acceptance races")


def probing_active(net: "BatonNetwork") -> bool:
    """Whether topology-aware join probing applies to this network."""
    return net.config.locality.join_probes > 1 and net.topology is not None


def entry_steps(net: "BatonNetwork", contact: Address) -> MessageSteps:
    """Where a join's Algorithm 1 walk starts: ``(newcomer, start)``.

    With probing off that is ``(None, contact)`` and nothing is sent.  With
    it on, the joiner is allocated *before* the walk — its address (hence
    its physical placement) must exist so probe replies can be priced
    against it; the single allocation per join simply moves earlier — and
    the contact probes candidate entry points on its behalf.
    """
    if not probing_active(net):
        return None, contact
    newcomer = BatonPeer(net.alloc.allocate(), ROOT, net.config.domain)
    start = yield from probe_entry_steps(net, newcomer.address, contact)
    return newcomer, start


def neighbourhood_cost(
    net: "BatonNetwork", joiner: Address, candidate: Address
) -> float:
    """The joiner's mean direct link cost to a candidate's neighbourhood.

    The candidate's probe RESPONSE carries its own coordinates and its
    adjacent links (local knowledge it already holds); the joiner prices
    the direct links to each — ``direct_delay`` is deterministic, so
    probing never perturbs the topology's jitter stream.
    """
    peer = net.peers.get(candidate)
    if peer is None:
        return float("inf")
    topology = net.topology
    total = topology.direct_delay(joiner, candidate)
    count = 1
    for info in (peer.left_adjacent, peer.right_adjacent):
        if info is not None:
            total += topology.direct_delay(joiner, info.address)
            count += 1
    return total / count


def probe_entry_steps(
    net: "BatonNetwork", joiner: Address, contact: Address
) -> MessageSteps:
    """Probe k candidate entry points; return where the walk should start.

    The joining host knows only its contact, so the contact probes
    ``join_probes - 1`` further uniformly drawn candidates on its behalf:
    one JOIN_PROBE out, one RESPONSE back per candidate, both counted and
    priced like any other message.  If a cheaper neighbourhood than the
    contact's turns up, one more JOIN_FIND hop forwards the walk there;
    candidates that die mid-probe are paid for and skipped (§III-D style).
    """
    best = contact
    best_cost = neighbourhood_cost(net, joiner, contact)
    seen = {contact}
    for _ in range(net.config.locality.join_probes - 1):
        candidate = net.random_peer_address()
        if candidate in seen:
            continue
        seen.add(candidate)
        if not try_message(net, contact, candidate, MsgType.JOIN_PROBE):
            continue
        yield Hop(contact, candidate)
        if candidate not in net.peers:
            continue  # died while the probe was in flight
        if not try_message(net, candidate, contact, MsgType.RESPONSE):
            continue
        yield Hop(candidate, contact)
        cost = neighbourhood_cost(net, joiner, candidate)
        if cost < best_cost:
            best, best_cost = candidate, cost
    if best != contact:
        if try_message(net, contact, best, MsgType.JOIN_FIND):
            yield Hop(contact, best)
        else:
            best = contact  # the winner died since its probe; stay put
    return best


def can_accept_join(peer: BatonPeer) -> bool:
    """Whether ``peer`` may accept a new child right now.

    Algorithm 1's test (full tables, free child slot) plus the range guard:
    a peer whose range has shrunk to a single key cannot hand half of it to
    a child, so the walk skips it instead of crashing in the split.
    """
    return peer.can_accept_child() and peer.range.can_split


def find_join_parent_steps(
    net: "BatonNetwork",
    start: Address,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """Algorithm 1: walk the overlay to a node that may accept a child.

    Yields one :class:`Hop` per forwarding step and returns the accepting
    peer's address.  The request carries the set of peers it has already
    consulted and is never re-forwarded to one of them (the natural
    implementation: the walk's path history rides in the JOIN message).
    Without this, the purely local forwarding rules can trap the request
    in a cycle once a neighbourhood saturates — a frontier leaf's "tables
    not full" rule sends it to its parent, whose "descend via an adjacent"
    rule sends it straight back — which at N≈10k reliably exceeded any hop
    limit.  Skipping visited peers costs nothing on the wire (no message
    is sent to them) and turns the walk into an outward exploration that
    reaches an open slot.

    A walk boxed in by dead neighbours re-enters through a fresh random
    contact (a client-ingress hop, visited set kept) when ``degraded()``
    says stale or dead links are expected (see
    :func:`~repro.core.search.may_give_up`), and raises otherwise.  A carrier
    that vanished between hops re-enters the same way (unreachable when
    driven synchronously).
    """
    limit = 8 * max(net.size.bit_length(), 1) + 2 * net.size + 64
    current = start
    visited = {start}
    for _ in range(limit):
        try:
            peer = net.peer(current)
        except PeerNotFoundError:
            # The walk's carrier vanished; re-enter somewhere live, as a
            # real joining host would retry through another contact.
            current = net.random_peer_address()
            visited.add(current)
            yield Hop(None, current)  # fresh client ingress
            continue
        if can_accept_join(peer):
            return current
        next_hop = None
        revisit: Optional[Address] = None
        for candidate in forward_targets(net, peer):
            if candidate in visited:
                if revisit is None:
                    revisit = candidate
                continue
            if try_message(net, current, candidate, MsgType.JOIN_FIND):
                next_hop = candidate
                break
        if next_hop is None and revisit is not None:
            # Every unvisited direction was dead: fall back to the best
            # already-visited one rather than strand the request (rare, and
            # only reachable in degraded networks).
            if try_message(net, current, revisit, MsgType.JOIN_FIND):
                next_hop = revisit
        if next_hop is None:
            if not may_give_up(net, degraded):
                raise ProtocolError(
                    f"join request stuck at {peer.position}: no forwarding target"
                )
            current = net.random_peer_address()
            visited.add(current)
            yield Hop(None, current)  # marooned: retry via a new contact
        else:
            visited.add(next_hop)
            yield Hop(current, next_hop)
            current = next_hop
    raise ProtocolError("join request did not terminate (routing state corrupt?)")


def forward_targets(net: "BatonNetwork", peer: BatonPeer) -> list[Address]:
    """Where Algorithm 1 forwards a JOIN request from ``peer``, in order.

    The head of the list is the paper's choice; the tail adds §III-D-style
    fallbacks that only come into play when the preferred target died
    concurrently (the walk pays for the failed attempt either way).
    """
    targets: list[Address] = []
    if not peer.tables_full():
        # Some same-level slot next to us is empty; our parent can see the
        # would-be parent of that slot in *its* tables (Theorem 2).
        if peer.parent is not None:
            targets.append(peer.parent.address)
    else:
        # Tables full but both children taken: prefer a sideways neighbour
        # that still lacks a child; the entry's child links tell us locally.
        missing = (
            peer.left_table.nodes_missing_children()
            + peer.right_table.nodes_missing_children()
        )
        missing.sort(
            key=lambda info: abs(info.position.number - peer.position.number)
        )
        targets.extend(info.address for info in missing)
    # Descend via an adjacent node (the paper's remaining case), then any
    # other live link as a failure fallback.
    adjacents = [
        info.address
        for info in (peer.left_adjacent, peer.right_adjacent)
        if info is not None
    ]
    if len(adjacents) == 2 and net.rng.random() < 0.5:
        adjacents.reverse()
    targets.extend(adjacents)
    for _, info in peer.iter_links():
        targets.append(info.address)
    deduped: list[Address] = []
    seen: set[Address] = {peer.address}
    for address in targets:
        if address not in seen:
            seen.add(address)
            deduped.append(address)
    return deduped


def split_for_child(parent: BatonPeer, side: str) -> tuple[Range, list[int]]:
    """§III-A's split: cut ``parent``'s range and keys for a ``side`` child.

    The cut is at :meth:`~repro.core.storage.LocalStore.split_pivot`.  The
    parent keeps the other half; returns the child's range and keys.
    """
    pivot = parent.store.split_pivot(parent.range)
    low, high = parent.range.split_at(pivot)
    if side == LEFT:
        parent.range = high
        return low, parent.store.split_below(pivot)
    parent.range = low
    return high, parent.store.split_at_or_above(pivot)


def add_child(
    net: "BatonNetwork",
    parent: BatonPeer,
    side: str,
    peer: Optional[BatonPeer] = None,
) -> BatonPeer:
    """Attach a new (or rejoining) peer as ``parent``'s ``side`` child.

    Performs the §III-A acceptance: range/content split, adjacent-link
    splice, and the full table update protocol.  ``peer`` is provided when a
    load-balancing victim rejoins with its existing address; otherwise a
    fresh peer is created.
    """
    if parent.child_on(side) is not None:
        raise ProtocolError(f"{parent.position} already has a {side} child")
    child_position = (
        parent.position.left_child() if side == LEFT else parent.position.right_child()
    )

    # --- range and content split (before allocating: a failed split must
    # not consume an address) ------------------------------------------------
    child_range, moved_keys = split_for_child(parent, side)
    if peer is None:
        peer = BatonPeer(net.alloc.allocate(), child_position, child_range)
    else:
        peer.move_to(child_position)
        peer.range = child_range
    net.register_peer(peer)

    # --- parent/child links ------------------------------------------------
    parent.set_child(side, peer.snapshot())
    peer.parent = parent.snapshot()

    # --- adjacent links ------------------------------------------------------
    far_adjacent = parent.adjacent_on(side)
    if side == LEFT:
        peer.left_adjacent = far_adjacent
        peer.right_adjacent = parent.snapshot()
        parent.left_adjacent = peer.snapshot()
    else:
        peer.right_adjacent = far_adjacent
        peer.left_adjacent = parent.snapshot()
        parent.right_adjacent = peer.snapshot()
    hand_over(net, parent, peer, moved_keys, MsgType.JOIN_TRANSFER)
    if far_adjacent is not None:
        # The one message the new node itself sends (the paper's "+1").
        try_message(net, peer.address, far_adjacent.address, MsgType.TABLE_UPDATE)
        far_peer = net.peers.get(far_adjacent.address)
        if far_peer is not None:
            if side == LEFT:
                far_peer.right_adjacent = peer.snapshot()
            else:
                far_peer.left_adjacent = peer.snapshot()

    # --- sibling table entries (the parent's other child) ---------------------
    sibling_info = parent.child_on(RIGHT if side == LEFT else LEFT)
    if sibling_info is not None and try_message(
        net, parent.address, sibling_info.address, MsgType.TABLE_UPDATE
    ):
        sibling = net.peer(sibling_info.address)
        sibling.set_table_entry(peer.snapshot())
        sibling.update_link_info(parent.snapshot())
        net.bus.send(sibling.address, peer.address, MsgType.RESPONSE)
        peer.set_table_entry(sibling.snapshot())

    # --- sideways tables via the parent's neighbours ----------------------------
    fill_child_tables(net, parent, peer)

    # --- remaining stale links about the parent (range shrank) ------------------
    _refresh_parent_periphery(net, parent, exclude={peer.address})
    return peer


def fill_child_tables(net: "BatonNetwork", parent: BatonPeer, child: BatonPeer) -> None:
    """Table update relay of §III-A.

    For every valid slot of the child's tables, Theorem 2 locates the slot
    occupant's parent inside *our* parent's tables; the parent messages that
    neighbour (carrying its own fresh snapshot), the neighbour relays to its
    bordering child, and that child replies to the new node.  Both ends
    record each other.  A repair runs it again for the children of a
    replaced slot (:mod:`repro.core.failure`).

    Slots are number arithmetic on the child's level: the slot at distance
    ``d`` is ``number ± d``, its parent ``(slot + 1) // 2``, and that
    parent's row in our parent's tables sits at a power-of-two distance
    from our parent's number.  Neither snapshot changes inside the relay,
    so each is built once.
    """
    level = child.position.level
    number = child.position.number
    if parent.position.level != level - 1:
        return  # not the child's parent: no slot of ours to relay through
    sibling = number + 1 if number & 1 else number - 1
    parent_number = parent.position.number
    parent_left = parent.left_table.entries
    parent_right = parent.right_table.entries
    parent_snapshot = parent.snapshot()
    child_snapshot = child.snapshot()
    contacted: dict[Address, BatonPeer] = {}
    # The left table, then the right, each nearest slot first.
    for sign, width in (
        (-1, (number - 1).bit_length()),
        (1, ((1 << level) - number).bit_length()),
    ):
        for distance in ROW_DISTANCES[width]:
            slot = number + sign * distance
            if slot == sibling:
                continue
            delta = (slot + 1) // 2 - parent_number
            if delta > 0:
                row = parent_right
            elif delta < 0:
                row, delta = parent_left, -delta
            else:
                continue
            if delta & (delta - 1):
                continue  # not a power-of-two distance: no row of the parent
            w_info = row[delta.bit_length() - 1]
            if w_info is None:
                continue  # no parent over there, hence no occupant (Theorem 2)
            w_peer = contacted.get(w_info.address)
            if w_peer is None:
                # Parent -> neighbour: announce the new child; the neighbour
                # also refreshes what it knows about the parent.
                if not try_message(
                    net, parent.address, w_info.address, MsgType.TABLE_UPDATE
                ):
                    continue  # neighbour died concurrently; repair fills in
                w_peer = net.peer(w_info.address)
                w_peer.update_link_info(parent_snapshot)
                contacted[w_info.address] = w_peer
            occupant = None
            for link in (w_peer.left_child, w_peer.right_child):
                if link is not None:
                    position = link.position
                    if position.number == slot and position.level == level:
                        occupant = link.address
                        break
            if occupant is None:
                continue  # slot itself is unoccupied
            # Neighbour -> its child: "add the new node to your table".
            if not try_message(net, w_peer.address, occupant, MsgType.TABLE_UPDATE):
                continue
            c_peer = net.peer(occupant)
            c_peer.set_table_entry(child_snapshot)
            # Child of neighbour -> new node: reply with its coordinates.
            net.bus.send(occupant, child.address, MsgType.RESPONSE)
            child.set_table_entry(c_peer.snapshot())


def _refresh_parent_periphery(
    net: "BatonNetwork", parent: BatonPeer, exclude: set[Address]
) -> None:
    """Refresh the parent's parent and far adjacent after the range split."""
    targets: list[NodeInfo] = []
    if parent.parent is not None:
        targets.append(parent.parent)
    for info in (parent.left_adjacent, parent.right_adjacent):
        if info is not None:
            targets.append(info)
    snapshot = parent.snapshot()
    seen: set[Address] = set(exclude)
    for info in targets:
        if info.address in seen or info.address == parent.address:
            continue
        seen.add(info.address)
        receiver = net.peers.get(info.address)
        if receiver is None:
            continue

        def apply(receiver: BatonPeer = receiver) -> None:
            receiver.update_link_info(snapshot)

        net.updates.notify(
            parent.address, info.address, MsgType.TABLE_UPDATE, apply
        )
