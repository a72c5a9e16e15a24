"""Node departure: Algorithm 2 and the graceful-leave protocol (§III-B).

A leaf whose departure cannot unbalance the tree — no sideways neighbour has
children, so Theorem 1 keeps holding — leaves directly: content and range go
to its parent, adjacent links are spliced, LEAVE notices null the entries in
its neighbours' tables (≤ 2·L2 + 2·L1 + 2 messages total).

Any other node must find a *replacement*: a FINDREPLACEMENT request descends
(children first, else a sideways neighbour's child) to a deepest leaf whose
own departure is safe.  That leaf leaves its slot the simple way, then takes
over the departing node's position, address change broadcast to everyone who
linked to it (≤ 8·log N messages).
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.core.data import hand_over
from repro.core.join import try_message
from repro.core.links import LEFT, RIGHT, NodeInfo
from repro.core.peer import BatonPeer
from repro.core.results import LeaveResult
from repro.net.address import Address
from repro.net.bus import Trace
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError, ProtocolError
from repro.util.stepper import MessageSteps

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def can_depart_simply(peer: BatonPeer) -> bool:
    """Theorem 1's safe-departure test: a leaf with child-free neighbours."""
    if not peer.is_leaf:
        return False
    return not peer.left_table.nodes_with_children() and not (
        peer.right_table.nodes_with_children()
    )


def leave_steps(
    net: "BatonNetwork",
    address: Address,
    trace: Trace,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """Gracefully remove the peer at ``address`` from the overlay.

    The one leave both facades run (``BatonNetwork.leave`` drives it, the
    event runtime resumes it), cutting ``trace`` at the commit into the
    result's find and update halves.  What concurrency needs rides along,
    each piece inert when driven synchronously:

    * the departing peer and its replacement drain their inboxes before
      the handover (``net.updates.drain``), so no refresh lands on a
      detached object;
    * a replacement lost to another operation is re-walked;
    * a dead end re-walks under the runtime, whose links are refreshed by
      then, but raises at once when driven synchronously (``degraded is
      None``): the same links would dead-end again, and the peer stays in
      the overlay untouched;
    * the key handovers, and with replication on the ``REPLICATE``
      messages that keep the mirrors exact, are sized hops after the
      atomic surgery, so a bandwidth-limited link charges for every key.
    """
    for _attempt in range(8):
        departing = net.peer(address)  # raises if the peer already vanished
        find_trace = trace.frozen("leave.find")
        replacement_address: Optional[Address] = None
        handovers: list[Hop] = []
        if net.size == 1:
            net.unregister_peer(address)
            break
        net.updates.drain(address)
        if can_depart_simply(departing):
            handovers = [_handover_hop(departing, departing.parent.address)]
            handovers += depart_leaf(net, departing)
            break
        replacement_address = yield from find_replacement_steps(net, departing)
        if replacement_address is None and degraded is None:
            raise ProtocolError(
                f"replacement walk for {departing.position} hit a dead end "
                "(a dead or stale link on the way to a safe leaf); "
                f"address {address} stays in the overlay"
            )
        if net.peers.get(address) is not departing:
            # Another operation removed or transplanted us mid-walk; the
            # next attempt re-reads the peer (and fails if it is gone).
            yield Hop(address, address)
            continue
        replacement = net.peers.get(replacement_address)
        if replacement is None or replacement_address == address:
            yield Hop(address, address)  # dead end or lost race; walk again
            continue
        net.updates.drain(replacement_address)
        if not can_depart_simply(replacement):
            yield Hop(address, address)  # lost the race; walk again
            continue
        find_trace = trace.frozen("leave.find")
        # Two bulk transfers: the replacement leaf's own keys to its
        # parent, and the departing peer's store to its new owner.
        handovers = [
            _handover_hop(replacement, replacement.parent.address),
            _handover_hop(departing, replacement_address),
        ]
        handovers += depart_leaf(net, replacement)
        # Refreshes emitted by the departure itself can target the
        # departing peer; they must land before its state is handed over.
        net.updates.drain(address)
        handovers += transplant(net, departing, replacement)
        break
    else:
        raise ProtocolError(f"leave of address {address} kept losing races")
    net.stats.leaves += 1
    result = LeaveResult(
        departed=address,
        replacement=replacement_address,
        find_trace=find_trace,
        update_trace=trace.since(find_trace, "leave.update"),
    )
    yield from handovers
    return result


def _handover_hop(peer: BatonPeer, receiver: Address) -> Hop:
    """A departing peer's bulk transfer, sized by its keys plus any
    subscription entries and mirrors the receiver inherits (never free)."""
    carried = sum(map(len, peer.replicas.values()))
    size = float(max(1, len(peer.store) + len(peer.subscriptions or ()) + carried))
    return Hop(peer.address, receiver, size=size)


def find_replacement_steps(
    net: "BatonNetwork", departing: BatonPeer
) -> MessageSteps:
    """Algorithm 2: locate a deepest leaf that can safely move.

    Yields one :class:`Hop` per ``LEAVE_FIND`` message (the first from the
    departing peer to :func:`replacement_entry_point`) and returns the
    leaf's address — or ``None`` on a dead end: no entry point, or one of
    :func:`descend_steps`' dead ends.  What a dead end means is the
    caller's call (see :func:`leave_steps`).
    """
    try:
        start = replacement_entry_point(net, departing)
    except (ProtocolError, PeerNotFoundError):
        return None
    yield Hop(departing.address, start)
    return (yield from descend_steps(net, start))


def descend_steps(
    net: "BatonNetwork", start: Address, tolerate_dead: bool = False
) -> MessageSteps:
    """Algorithm 2's descent from ``start`` to a leaf that can safely move.

    Each step goes to a child (left first), else to the child of the
    nearest sideways neighbour with children; one ``LEAVE_FIND`` and one
    :class:`Hop` per step.  Returns the leaf's address, or ``None`` on a
    dead end: a dead next hop, a neighbour advertising children it no
    longer has, a carrier that vanished between hops, or the hop limit.

    With ``tolerate_dead`` (repair, whose tree has holes by definition) a
    dead or missing candidate is paid for and skipped in favour of the
    next — the other child, the next-nearest neighbour's child — and a
    peer whose every candidate is dead is where the walk stops.  The first
    candidate is graceful leave's only one (``min`` by distance is the
    head of the stable sort by distance).
    """
    limit = 4 * max(net.size.bit_length(), 2) + 32
    current = start
    for _ in range(limit):
        try:
            peer = net.peer(current)
        except PeerNotFoundError:
            return None  # carrier vanished between hops
        candidates = [
            info.address
            for info in (peer.left_child, peer.right_child)
            if info is not None
        ] or [
            info.left_child or info.right_child
            for info in sorted(
                peer.left_table.nodes_with_children()
                + peer.right_table.nodes_with_children(),
                key=lambda info: abs(info.position.number - peer.position.number),
            )
        ]
        if not candidates:
            return current
        next_hop: Optional[Address] = None
        for candidate in candidates:
            if candidate is not None and try_message(
                net, current, candidate, MsgType.LEAVE_FIND
            ):
                next_hop = candidate
                break
            if not tolerate_dead:
                return None
        if next_hop is None:
            return current  # everything deeper is dead; stop here
        yield Hop(current, next_hop)
        current = next_hop
    return None


def _nearest_with_children(peer: BatonPeer) -> Optional[NodeInfo]:
    """The sideways neighbour with children closest to ``peer``, if any."""
    with_children = (
        peer.left_table.nodes_with_children()
        + peer.right_table.nodes_with_children()
    )
    if not with_children:
        return None
    return min(
        with_children,
        key=lambda info: abs(info.position.number - peer.position.number),
    )


def replacement_entry_point(net: "BatonNetwork", departing: BatonPeer) -> Address:
    """Where the FINDREPLACEMENT request is first sent."""
    if departing.is_leaf:
        nearest = _nearest_with_children(departing)
        if nearest is None:
            raise ProtocolError("leaf with safe departure needs no replacement")
        target = nearest.left_child or nearest.right_child
        if target is None:
            raise ProtocolError("neighbour advertises children it does not have")
        net.bus.send(departing.address, target, MsgType.LEAVE_FIND)
        return target
    # Internal node: descend through the adjacent node inside our own
    # subtree ("a leaf node, or as deep as possible").
    if departing.left_child is not None and departing.left_adjacent is not None:
        target = departing.left_adjacent.address
    elif departing.right_child is not None and departing.right_adjacent is not None:
        target = departing.right_adjacent.address
    else:
        raise ProtocolError(f"internal node {departing.position} has no adjacent")
    net.bus.send(departing.address, target, MsgType.LEAVE_FIND)
    return target


def depart_leaf(
    net: "BatonNetwork",
    leaf: BatonPeer,
    absorber: Optional[Address] = None,
    coordinator: Optional[Address] = None,
) -> List[Hop]:
    """Remove a safely-departing leaf from the overlay.

    The peer at ``absorber`` takes the leaf's range and keys: the parent by
    default (the standard graceful leave), an adjacent for §IV-D's rejoin
    hand-off.  The parent hears once, whichever role names it: an absorber
    that *is* the parent gets one LEAVE_TRANSFER and one broadcast round.
    Returns the hand-over's mirror hops (:func:`repro.core.data.hand_over`).

    A repair names its ``coordinator``, which runs the departure on the
    dead peer's behalf (:mod:`repro.core.failure`): the coordinator sends
    the departure's messages, and a ghost — the dead leaf itself, or a
    dead parent in a parent-child double failure — may stand as the leaf
    or the parent, carrying the range into its own repair.  A graceful
    leave names none, so it never hands content to a dead peer.
    """
    if leaf.parent is None:
        raise ProtocolError("the last peer cannot depart via this path")
    sender = leaf.address if coordinator is None else coordinator
    parent = _holder(net, leaf.parent.address, coordinator)
    side = LEFT if leaf.position.is_left_child else RIGHT

    grown = parent if absorber is None else _holder(net, absorber, coordinator)
    hops = hand_over(
        net, leaf, grown, leaf.store.clear(), MsgType.LEAVE_TRANSFER,
        range_=leaf.range, sender=sender, departing=True,
    )
    if grown is not parent:
        # An adjacent absorber's linkers must hear of its grown range, and
        # the parent still needs to hear about the departure (child link).
        net.broadcast_update(grown, exclude={leaf.address})
        net.bus.send(sender, parent.address, MsgType.LEAVE_TRANSFER)

    # Splice adjacent links: the leaf's far adjacent now borders the parent
    # on the vacated side (the near adjacent *is* the parent for a leaf).
    far = leaf.adjacent_on(side)
    parent.set_child(side, None)
    parent.set_adjacent(side, far)
    if far is not None:
        _tell(net, sender, far.address, MsgType.LEAVE_TRANSFER)
        far_peer = net.peers.get(far.address)
        if far_peer is not None:
            opposite = RIGHT if side == LEFT else LEFT
            far_peer.set_adjacent(opposite, parent.snapshot())

    # LEAVE notices to sideways neighbours: null their entry for our slot.
    position = leaf.position
    for table_side in (LEFT, RIGHT):
        for _, info in leaf.table_on(table_side).occupied():
            receiver = net.peers.get(info.address)
            if receiver is None:
                continue

            def apply(receiver: BatonPeer = receiver) -> None:
                receiver.clear_table_entry(position)

            net.updates.notify(sender, info.address, MsgType.LEAVE_TRANSFER, apply)

    # The parent announces its new content/children to its own linkers.
    if parent.address in net.peers:
        net.broadcast_update(parent, exclude={leaf.address})

    detached = net.unregister_peer(leaf.address)
    detached.parent = None
    detached.left_adjacent = None
    detached.right_adjacent = None
    return hops


def _holder(
    net: "BatonNetwork", address: Address, coordinator: Optional[Address]
) -> BatonPeer:
    """The live peer at ``address``; inside a repair (``coordinator``
    named) the ghost of a dead one too."""
    ghost = net.ghosts.get(address) if coordinator is not None else None
    return ghost if ghost is not None else net.peer(address)


def _tell(
    net: "BatonNetwork", sender: Address, receiver: Address, mtype: MsgType
) -> bool:
    """One counted message, none when a repair's coordinator is itself the
    receiver; False if the receiver is dead."""
    return receiver == sender or try_message(net, sender, receiver, mtype)


def transplant(
    net: "BatonNetwork",
    departing: BatonPeer,
    replacement: BatonPeer,
    coordinator: Optional[Address] = None,
) -> List[Hop]:
    """The replacement peer assumes the departing peer's position.

    The logical position, range and content stay put; only the physical
    address changes, so every linker of the departing node is told to
    repoint (§III-B's ≤ 8·log N message budget).  The hand-over comes from
    the departing peer, or from a repair's ``coordinator`` when the
    departing peer is a ghost.  Returns the hand-over's mirror hops.
    """
    replacement.position = departing.position
    replacement.range = departing.range
    replacement.parent = departing.parent
    replacement.left_child = departing.left_child
    replacement.right_child = departing.right_child
    replacement.left_adjacent = departing.left_adjacent
    replacement.right_adjacent = departing.right_adjacent
    replacement.left_table = departing.left_table
    replacement.right_table = departing.right_table
    # Owner state tied to the range travels too: the subscription table
    # and the dedup window (the position keeps its exactly-once history).
    replacement.subscriptions = departing.subscriptions
    replacement.seen_messages = departing.seen_messages

    net.register_peer(replacement)
    hops = hand_over(
        net, departing, replacement, departing.store.clear(),
        MsgType.LEAVE_TRANSFER, departing=True,
        sender=departing.address if coordinator is None else coordinator,
    )
    net.unregister_peer(departing.address)
    _announce_replacement(net, departing.address, replacement)
    return hops


def _announce_replacement(
    net: "BatonNetwork", old_address: Address, replacement: BatonPeer
) -> None:
    """Repoint every linker of ``old_address`` at the replacement.

    A sideways linker that lacks the slot's entry gets it installed (a
    no-op on a consistent tree; after a repair it heals a join that could
    not reach the dead node).
    """
    snapshot = replacement.snapshot()
    notified: set[Address] = set()
    for _, info in replacement.iter_links():
        if info.address in notified or info.address == replacement.address:
            continue
        notified.add(info.address)
        receiver = net.peers.get(info.address)
        if receiver is None:
            continue

        def apply(receiver: BatonPeer = receiver) -> None:
            receiver.replace_link_address(old_address, snapshot)
            receiver.set_table_entry(snapshot)

        net.updates.notify(
            replacement.address, info.address, MsgType.TABLE_UPDATE, apply
        )
    # The parent's sideways neighbours track the parent's child addresses;
    # the parent re-announces itself to them (the paper's 2·L1 block).
    if replacement.parent is not None:
        parent = net.peers.get(replacement.parent.address)
        if parent is not None:
            parent.replace_link_address(old_address, snapshot)
            # No exclusions: the replacement itself inherited a parent link
            # naming the old address as a child and needs the refresh too.
            net.broadcast_update(parent)
