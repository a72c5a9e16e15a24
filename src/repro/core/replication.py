"""Adjacent-replica data durability (extension beyond the paper).

§III-C restores a failed peer's *range* but its locally stored keys are
lost — the paper does not replicate data.  This module adds the smallest
extension that closes the gap, in the spirit of the overlay's own links:
every peer's store is mirrored at its **right adjacent** node (the leftmost
peer mirrors at its right adjacent too; the rightmost falls back to its
left adjacent).  Repair then pulls the replica back when reassigning the
dead peer's range.

Consistency model (the "Durability contract" in DESIGN.md): write-through
for inserts and deletes (one extra :attr:`~repro.net.message.MsgType.REPLICATE`
message per update), mirrors that follow every key hand-over
(:func:`follow_hand_over`), plus an explicit anti-entropy pass
(``BatonNetwork.refresh_replicas``: :func:`refresh_peer_steps` for every
peer) that re-anchors each peer's mirror at its current adjacent.  That
mirrors how such schemes deploy in practice: cheap incremental upkeep with
a periodic full sweep.  A replica restored after heavy un-refreshed churn
is best-effort: restoration filters to the dead peer's final range so
structural invariants never regress.

Every function here is written as a *step generator* (the repository-wide
convention, :mod:`repro.util.stepper`): it performs one protocol step —
one counted message exchange — then yields a
:class:`~repro.sim.topology.Hop` naming the link the message crosses.  The
synchronous network drives a generator to exhaustion (one atomic
operation, the historical behaviour); the event-driven runtime resumes the
same generator on the simulator, so replication traffic is priced per
link like any other message instead of being a free side effect.  A bulk
transfer — a full-store refresh, the repair-time replica pull — is one
message and one hop, whatever it carries, as in the paper's cost model.

Enable with ``BatonConfig(replication=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.core.peer import BatonPeer
from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError
from repro.util.stepper import MessageSteps

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def replica_holder(
    net: "BatonNetwork", peer: BatonPeer, gone: Optional[BatonPeer] = None
) -> Optional[BatonPeer]:
    """The live peer mirroring ``peer``'s store (right adjacent, else left).

    ``gone``, a peer leaving the in-order list, is never picked: the
    adjacent it leaves behind on its side stands in, as after the splice.

    With region-diverse placement on (``LocalityConfig.replica_diversity``
    and a region-aware topology — default off) and the adjacent pick in the
    owner's own region, the mirror moves to the owner's nearest cross-region
    link instead, so one region-wide outage can never take both copies
    (DESIGN.md, "Locality contract").  Falls back to the adjacent pick when
    every link is same-region.
    """
    skip = gone.address if gone is not None else None
    right, left = peer.right_adjacent, peer.left_adjacent
    if right is not None and right.address == skip:
        right = gone.right_adjacent
    if left is not None and left.address == skip:
        left = gone.left_adjacent
    first: Optional[BatonPeer] = None
    for info in (right, left):
        if info is not None and info.address in net.peers:
            first = net.peers[info.address]
            break
    if first is None:
        return None
    if not net.config.locality.replica_diversity:
        return first
    region_of = getattr(net.topology, "region_of", None)
    if region_of is None:
        return first
    home = region_of(peer.address)
    if region_of(first.address) != home:
        return first  # the adjacent pick is already diverse
    for _, info in peer.iter_links():
        address = info.address
        if address in net.peers and address != skip and region_of(address) != home:
            return net.peers[address]
    return first


def _write_target(
    net: "BatonNetwork", owner: BatonPeer, gone: Optional[BatonPeer] = None
) -> Optional[BatonPeer]:
    """Where ``owner``'s mirror lives: its anchor while live (and not
    ``gone``), else its current holder."""
    anchor = owner.replica_anchor
    if anchor in net.peers and (gone is None or anchor != gone.address):
        return net.peers[anchor]
    return replica_holder(net, owner, gone)


def _edit(holder: BatonPeer, owner: Address, add=(), drop=()) -> None:
    """Drop one occurrence of each ``drop`` key from ``owner``'s mirror at
    ``holder``, then add ``add``."""
    replicas = holder.replicas
    mirror = replicas.setdefault(owner, []) if add else replicas.get(owner, [])
    for key in drop:
        if key in mirror:
            mirror.remove(key)
    mirror.extend(add)


def write_through_steps(
    net: "BatonNetwork", owner: BatonPeer, key: int, inserted: bool
) -> MessageSteps:
    """Write one inserted (or deleted) key through to the owner's mirror:
    one REPLICATE, applied when its hop lands — also if the owner crashed
    meanwhile (its repair restores what it stored), but not if the holder
    vanished or the owner left (its hand-over moved the mirror)."""
    holder = _write_target(net, owner)
    if holder is None:
        return False
    try:
        net.bus.send(owner.address, holder.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return False
    owner.replica_anchor = holder.address
    yield Hop(owner.address, holder.address)
    now = net.peers.get(owner.address) or net.ghosts.get(owner.address)
    if net.peers.get(holder.address) is not holder or now is not owner:
        return False
    _edit(holder, owner.address, [key] if inserted else (), () if inserted else [key])
    return True


def follow_hand_over(
    net: "BatonNetwork", src: BatonPeer, dst: BatonPeer, keys: Sequence[int],
    sender: Address, departing: bool,
) -> List[Hop]:
    """Keep the mirrors exact, at once, as :func:`repro.core.data.hand_over`
    moves ``keys`` from ``src`` to ``dst``.

    The keys leave ``src``'s mirror (a departing ``src``'s goes whole) and
    join ``dst``'s.  A departing ``src``'s ``replicas`` travel with its
    range, whose taker is those owners' next adjacent: ``dst``'s own goes
    to ``dst``'s holder, and each other owner hears of its new anchor.  A
    ghost ``src``'s mirror is what its repair restores; a ghost ``dst``
    (the slot a repair transplants into) takes none, so ``src`` keeps its.
    One REPLICATE per other peer changed — from ``dst`` for its own new
    keys, else from ``sender``; what ``sender`` has for ``dst`` rides the
    transfer.  Returns their hops.
    """
    live = net.peers
    src_live = live.get(src.address) is src
    sends: Dict[Address, Address] = {}

    def tell(origin: Address, receiver: BatonPeer) -> None:
        if receiver.address != origin and (origin != sender or receiver is not dst):
            sends.setdefault(receiver.address, origin)

    holder = live.get(src.replica_anchor) if src_live else None
    if holder is not None and departing:
        if holder.replicas.pop(src.address, None) is not None:
            tell(sender, holder)
    elif holder is not None and keys:
        _edit(holder, src.address, drop=keys)
        tell(sender, holder)
    gone = src if departing and src_live else None
    if gone is not None:
        src.replica_anchor = None
    if live.get(dst.address) is dst:
        held: Dict[Address, List[int]] = {}
        if gone is not None:
            held, src.replicas = src.replicas, {}
        own = held.pop(dst.address, [])
        target = _write_target(net, dst, gone) if keys or own else None
        if target is not None:
            _edit(target, dst.address, add=own + list(keys))
            dst.replica_anchor = target.address
            if own:
                tell(sender, target)
            tell(dst.address, target)
        for owner_address, mirror in held.items():
            if mirror:  # an empty mirror may start anywhere
                _edit(dst, owner_address, add=mirror)
                tell(sender, dst)
                owner = live.get(owner_address)
                if owner is not None:  # a dead owner's waits for its repair
                    owner.replica_anchor = dst.address
                    tell(sender, owner)
    hops: List[Hop] = []
    for receiver, origin in sends.items():
        try:
            net.bus.send(origin, receiver, MsgType.REPLICATE)
        except PeerNotFoundError:
            continue
        hops.append(Hop(origin, receiver))
    return hops


def refresh_peer_steps(net: "BatonNetwork", peer: BatonPeer) -> MessageSteps:
    """Re-anchor one peer's mirror at its current adjacent.

    One REPLICATE message carrying the full store.
    On arrival the holder installs the snapshot and prunes mirrors whose
    owner no longer exists (dead owners' mirrors are kept for repair).
    When the mirror moved, the owner then sends one more REPLICATE to the
    previous anchor, which drops the stale copy when it lands — if the
    owner's anchor is still elsewhere — so the old copy outlives the new
    one's install, never the other way round.  Returns the number of
    messages spent (0, 1 or 2).
    """
    holder = replica_holder(net, peer)
    if holder is None:
        return 0
    snapshot = list(peer.store)
    try:
        net.bus.send(peer.address, holder.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return 0
    yield Hop(peer.address, holder.address)
    target = net.peers.get(holder.address)
    if target is None or net.peers.get(peer.address) is not peer:
        # An end vanished mid-flight: the snapshot is stale, drop it.
        return 1
    old_anchor = peer.replica_anchor
    peer.replica_anchor = holder.address
    target.replicas[peer.address] = snapshot
    for owner_address in list(target.replicas):
        if owner_address not in net.peers and owner_address not in net.ghosts:
            del target.replicas[owner_address]
    if old_anchor is None or old_anchor == holder.address:
        return 1
    previous = net.peers.get(old_anchor)
    if previous is None:
        return 1  # the stale copy died with its holder
    try:
        net.bus.send(peer.address, old_anchor, MsgType.REPLICATE)
    except PeerNotFoundError:
        return 2
    yield Hop(peer.address, old_anchor)
    if net.peers.get(old_anchor) is previous and peer.replica_anchor != old_anchor:
        previous.replicas.pop(peer.address, None)
    return 2


def restore_from_replica_steps(
    net: "BatonNetwork", ghost: BatonPeer, absorber: BatonPeer
) -> MessageSteps:
    """During repair, pull the dead peer's mirrored keys into ``absorber``.

    The absorber's request to the mirror's holder (one message), then the
    bulk reply carrying the mirror (one message) as the key hand-over
    (:func:`repro.core.data.hand_over`) from the dead peer, which
    re-mirrors the recovered keys at the absorber's own holder (one
    message).  The request sets the mirror aside: while it travels, no
    refresh prunes it and no departure of the holder carries it off.  An
    absorber or holder that vanished mid-request gets it put back where it
    was.  Only keys inside the absorber's (already merged) range are
    restored so the store-containment invariant cannot regress on stale
    replicas.  Returns the number of keys recovered.
    """
    from repro.core.data import hand_over

    holder = _find_replica_holder(net, ghost)
    if holder is None or not holder.replicas[ghost.address]:
        return 0
    try:
        net.bus.send(absorber.address, holder.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return 0
    mirror = holder.replicas.pop(ghost.address)
    yield Hop(absorber.address, holder.address)
    if (
        net.peers.get(holder.address) is not holder
        or net.peers.get(absorber.address) is not absorber
    ):
        holder.replicas[ghost.address] = mirror  # no reply: left as it was
        return 0
    recovered = [key for key in mirror if absorber.range.contains(key)]
    hops = hand_over(
        net, ghost, absorber, recovered, MsgType.RESPONSE, sender=holder.address
    )
    yield Hop(holder.address, absorber.address)
    yield from hops
    return len(recovered)


def _find_replica_holder(
    net: "BatonNetwork", ghost: BatonPeer
) -> Optional[BatonPeer]:
    """Locate whoever holds the dead peer's mirror.

    The ghost's recorded anchor and adjacent links name the holder
    directly: a departing holder hands the mirrors it holds to its range's
    taker, the owners' next adjacent.  The anchor of an owner that was
    already dead then cannot follow (no message reaches it), and after
    concurrent churn the links may be stale, so fall back to scanning.
    """
    candidates: list[Optional[Address]] = [ghost.replica_anchor]
    for info in (ghost.right_adjacent, ghost.left_adjacent):
        if info is not None:
            candidates.append(info.address)
    for address in candidates:
        if address is None:
            continue
        holder = net.peers.get(address)
        if holder is not None and ghost.address in holder.replicas:
            return holder
    for peer in net.peers.values():
        if ghost.address in peer.replicas:
            return peer
    return None
