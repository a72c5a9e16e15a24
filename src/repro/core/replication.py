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
message per update), plus an explicit anti-entropy pass
(``BatonNetwork.refresh_replicas``: :func:`refresh_peer_steps` for every
peer) that re-anchors each peer's mirror at its current adjacent after
membership changes move ranges between peers.  That
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
link like any other message instead of being a free side effect.  Bulk
transfers — a full-store refresh, the repair-time replica pull — declare
their payload via ``Hop.size``, so bandwidth-limited topologies charge
them honestly.

Enable with ``BatonConfig(replication=True)``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.peer import BatonPeer
from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError
from repro.util.stepper import MessageSteps

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def replica_holder(net: "BatonNetwork", peer: BatonPeer) -> Optional[BatonPeer]:
    """The live peer mirroring ``peer``'s store (right adjacent, else left).

    With region-diverse placement on (``LocalityConfig.replica_diversity``
    and a region-aware topology — default off) and the adjacent pick in the
    owner's own region, the mirror moves to the owner's nearest cross-region
    link instead, so one region-wide outage can never take both copies
    (DESIGN.md, "Locality contract").  Falls back to the adjacent pick when
    every link is same-region.
    """
    first: Optional[BatonPeer] = None
    for info in (peer.right_adjacent, peer.left_adjacent):
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
        if info.address in net.peers and region_of(info.address) != home:
            return net.peers[info.address]
    return first


def _write_target(net: "BatonNetwork", owner: BatonPeer) -> Optional[BatonPeer]:
    """Where a write-through goes: the recorded anchor while it is live,
    else the current adjacent (which becomes the new anchor)."""
    if owner.replica_anchor is not None:
        anchored = net.peers.get(owner.replica_anchor)
        if anchored is not None:
            return anchored
    return replica_holder(net, owner)


def replicate_insert_steps(
    net: "BatonNetwork", owner: BatonPeer, key: int
) -> MessageSteps:
    """Write-through one inserted key to the owner's replica holder.

    One REPLICATE message, one hop.  The mirror is applied at the holder
    *after* the hop lands; if either end vanishes in transit the update is
    dropped (the message was still paid for) and the next refresh heals it.
    """
    holder = _write_target(net, owner)
    if holder is None:
        return False
    try:
        net.bus.send(owner.address, holder.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return False
    owner.replica_anchor = holder.address
    yield Hop(owner.address, holder.address)
    target = net.peers.get(holder.address)
    if target is not holder or net.peers.get(owner.address) is not owner:
        return False
    target.replicas.setdefault(owner.address, []).append(key)
    return True


def replicate_delete_steps(
    net: "BatonNetwork", owner: BatonPeer, key: int
) -> MessageSteps:
    """Write-through one deleted key to the owner's replica holder."""
    holder = _write_target(net, owner)
    if holder is None:
        return False
    try:
        net.bus.send(owner.address, holder.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return False
    owner.replica_anchor = holder.address
    yield Hop(owner.address, holder.address)
    target = net.peers.get(holder.address)
    if target is not holder:
        return False
    mirror = target.replicas.get(owner.address)
    if mirror is not None and key in mirror:
        mirror.remove(key)
    return True


def refresh_peer_steps(net: "BatonNetwork", peer: BatonPeer) -> MessageSteps:
    """Re-anchor one peer's mirror at its current adjacent.

    One sized REPLICATE message carrying the full store (``Hop.size`` =
    number of keys, so bandwidth-limited links charge the bulk honestly).
    On arrival the holder installs the snapshot, the stale mirror at the
    previous anchor is dropped, and the holder prunes mirrors whose owner
    no longer exists (dead owners' mirrors are kept for repair).  Returns
    the number of messages spent (0 or 1).
    """
    holder = replica_holder(net, peer)
    if holder is None:
        return 0
    snapshot = list(peer.store)
    try:
        net.bus.send(peer.address, holder.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return 0
    yield Hop(peer.address, holder.address, size=float(max(1, len(snapshot))))
    target = net.peers.get(holder.address)
    if target is None or net.peers.get(peer.address) is not peer:
        # An end vanished mid-flight: the snapshot is stale, drop it.
        return 1
    old_anchor = peer.replica_anchor
    if old_anchor is not None and old_anchor != holder.address:
        previous = net.peers.get(old_anchor)
        if previous is not None:
            previous.replicas.pop(peer.address, None)
    peer.replica_anchor = holder.address
    target.replicas[peer.address] = snapshot
    for owner_address in list(target.replicas):
        if owner_address not in net.peers and owner_address not in net.ghosts:
            del target.replicas[owner_address]
    return 1


def restore_from_replica_steps(
    net: "BatonNetwork", ghost: BatonPeer, absorber: BatonPeer
) -> MessageSteps:
    """During repair, pull the dead peer's mirrored keys into ``absorber``.

    Three priced steps: the absorber's request to the mirror's holder (one
    message), the bulk reply carrying the mirror (one message, ``Hop.size``
    = number of keys), and the batched onward re-mirror of the recovered
    keys at the absorber's own replica holder (one sized message).  Only
    keys inside the absorber's (already merged) range are restored so the
    store-containment invariant cannot regress on stale replicas.  Returns
    the number of keys recovered.
    """
    holder = _find_replica_holder(net, ghost)
    if holder is None:
        return 0
    mirror = holder.replicas.pop(ghost.address, None)
    if not mirror:
        return 0
    try:
        net.bus.send(absorber.address, holder.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return 0
    yield Hop(absorber.address, holder.address)
    if net.peers.get(holder.address) is not holder:
        return 0  # the mirror died with its holder mid-request
    try:
        net.bus.send(holder.address, absorber.address, MsgType.RESPONSE)
    except PeerNotFoundError:
        return 0
    yield Hop(holder.address, absorber.address, size=float(len(mirror)))
    if net.peers.get(absorber.address) is not absorber:
        return 0  # the absorber vanished before the bulk reply landed
    recovered = [key for key in mirror if absorber.range.contains(key)]
    absorber.store.extend(recovered)
    if not recovered:
        return 0
    # The recovered keys now live at the absorber: mirror them onward as
    # one batched, sized transfer.
    onward = _write_target(net, absorber)
    if onward is None:
        return len(recovered)
    try:
        net.bus.send(absorber.address, onward.address, MsgType.REPLICATE)
    except PeerNotFoundError:
        return len(recovered)
    absorber.replica_anchor = onward.address
    yield Hop(absorber.address, onward.address, size=float(len(recovered)))
    target = net.peers.get(onward.address)
    if target is onward and net.peers.get(absorber.address) is absorber:
        target.replicas.setdefault(absorber.address, []).extend(recovered)
    return len(recovered)


def _find_replica_holder(
    net: "BatonNetwork", ghost: BatonPeer
) -> Optional[BatonPeer]:
    """Locate whoever holds the dead peer's mirror.

    The ghost's recorded anchor and adjacent links name the holder
    directly; after concurrent churn they may be stale, so fall back to
    scanning (test-scale networks only pay this on the rare stale path).
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
