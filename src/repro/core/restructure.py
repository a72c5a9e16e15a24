"""Network restructuring (§III-E): in-order shifts that restore balance.

When a join or departure is *forced* (load balancing, §IV-D) and would break
Theorem 1's condition, the tree is rebalanced AVL-style by shifting peers
along the in-order adjacency chain:

* **Forced insert** — the newcomer takes the anchor's slot and each displaced
  peer moves to its in-order successor's slot, until a displaced peer can
  "park" as the left child of its successor (empty left-child slot at a node
  with full tables, which by Theorem 1 accepts a child safely).
* **Forced removal** — the vacated slot is filled from the in-order
  predecessor side; each predecessor shifts one slot rightward until the
  shift vacates a leaf slot whose removal is balance-safe.

No data moves: ranges ride along with their peers, and because shifts follow
the in-order chain the sorted order of ranges is preserved.  Every shifted
peer then pays O(log N) messages to rebuild its links.

Implementation note (see DESIGN.md): the chain walk itself uses only local
adjacent links and is message-counted hop by hop.  The link *rebuild* after
the moves recomputes affected peers' links from the global position map and
charges each moved peer one message per rebuilt link — a documented
cost-model substitution for the paper's pointer-surgery, chosen so the
structural invariants are restorable and the message counts match the
paper's O(log N)-per-moved-node claim.
"""

from __future__ import annotations

from typing import Container, List, Optional, Sequence, TYPE_CHECKING

from repro.core.data import hand_over
from repro.core.ids import Position
from repro.core.join import add_child, split_for_child
from repro.core.leave import can_depart_simply
from repro.core.links import LEFT, RIGHT, ROW_DISTANCES, NodeInfo, RoutingTable, new_tuple
from repro.core.peer import BatonPeer
from repro.net.address import Address
from repro.net.message import MsgType
from repro.util.errors import PeerNotFoundError, ProtocolError

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


# ---------------------------------------------------------------------------
# Ground-truth rebuild from the position map (sanctioned global-map use)
# ---------------------------------------------------------------------------
#
# Everything here works on heap codes (``Position.code``): one int per slot,
# parent ``c >> 1``, children ``2c`` / ``2c + 1``, the table slot at distance
# ``2^i`` is ``c ± 2^i`` inside the level's ``[2^level, 2^(level+1))``.


def inorder_neighbor_code(
    occupied: Container[int], code: int, side: str
) -> Optional[int]:
    """In-order predecessor/successor slot among the ``occupied`` codes.

    Descend-then-climb: the near edge of the ``side`` subtree when there is
    one, else the first ancestor reached from its other side.
    """
    toward = 1 if side == RIGHT else 0  # low bit of a ``side`` child's code
    current = 2 * code + toward
    if current in occupied:
        away = 1 - toward
        while 2 * current + away in occupied:
            current = 2 * current + away
        return current
    current = code
    while current > 1:
        if current & 1 != toward:
            return current >> 1
        current >>= 1
    return None


class MapView(dict):
    """Ground truth for one rebuild batch: ``view[code]`` is the slot's
    :class:`NodeInfo`, straight from the map.

    Each occupied slot's snapshot is built on first use and that *same*
    object is handed to every linker — ``NodeInfo`` is immutable, and one
    per slot instead of one per link row is what keeps a swept network at
    N snapshots (DESIGN.md, "Memory is part of the contract").  Empty
    slots read ``None``.  Always index (``view[code]``): being a dict is
    what makes a repeat lookup a C-level hit, but ``get`` / ``in`` see only
    the slots already built.

    A view is valid only while occupancy and ranges are stable, so callers
    create one per batch — one ``reconcile()`` sweep, one
    ``rebuild_after_moves`` — and never keep it.

    ``include_ghosts`` makes slots held by failed peers visible (with their
    crash-time range): the repair coordinator needs them — a dead node's
    dead child still owns its slot and its slice of the key space.  That
    flag governs only whether a ghost's *own* snapshot exists; adjacency
    walks and a snapshot's child fields read raw occupancy either way, so a
    ghost-held slot always counts as occupied.
    """

    __slots__ = ("occupancy", "_positions", "_peers", "_ghosts")

    def __init__(self, net: "BatonNetwork", include_ghosts: bool = False):
        super().__init__()
        self.occupancy = net.occupancy()
        # The raw map behind ``occupancy``: a plain dict's ``get`` is one C
        # call, the read-only proxy's is two, and snapshots are built
        # N·log N times per sweep.
        self._positions = net._positions
        self._peers = net.peers
        self._ghosts = net.ghosts if include_ghosts else {}

    def __missing__(self, code: int) -> Optional[NodeInfo]:
        positions = self._positions
        address = positions.get(code)
        peer = self._peers.get(address)
        if peer is None:
            peer = self._ghosts.get(address)
        if peer is None:
            snapshot = None  # empty slot (or invisible ghost)
        else:
            # The occupant's own position is the slot's (the position map
            # is keyed by it), and ``new_tuple`` skips NodeInfo's
            # Python-level constructor.
            snapshot = new_tuple(
                NodeInfo,
                (
                    address,
                    peer.position,
                    peer.range,
                    positions.get(2 * code),
                    positions.get(2 * code + 1),
                ),
            )
        self[code] = snapshot
        return snapshot


def refresh_links_from_map(view: MapView, peer: BatonPeer) -> None:
    """Recompute every link of ``peer`` from the position map."""
    position = peer.position
    level = position.level
    number = position.number
    code = (1 << level) + number - 1
    peer.parent = view[code >> 1] if code > 1 else None
    peer.left_child = view[2 * code]
    peer.right_child = view[2 * code + 1]
    occupied = view._positions
    left = inorder_neighbor_code(occupied, code, LEFT)
    peer.left_adjacent = view[left] if left is not None else None
    right = inorder_neighbor_code(occupied, code, RIGHT)
    peer.right_adjacent = view[right] if right is not None else None
    # Fresh tables, rows written directly: row ``i`` is the slot ``2^i``
    # along the level, so RoutingTable.set's position check can never
    # fire here, and this runs N·log N times per sweep.  The widths are
    # RoutingTable's own slot counts, computed once here and handed over.
    width = (number - 1).bit_length()
    peer.left_table = table = RoutingTable(position, LEFT, width)
    table.entries[:] = [view[code - distance] for distance in ROW_DISTANCES[width]]
    width = ((1 << level) - number).bit_length()
    peer.right_table = table = RoutingTable(position, RIGHT, width)
    table.entries[:] = [view[code + distance] for distance in ROW_DISTANCES[width]]


def rebuild_after_moves(
    net: "BatonNetwork",
    movers: Sequence[BatonPeer],
    pre_link_addresses: set[Address],
    changed_slots: set[Position],
) -> None:
    """Restore link consistency around a set of moved peers.

    Refreshes, in order: the movers themselves; every peer that linked to a
    mover before or after the shift; and the linkers of every peer whose
    *child attributes* changed (their entries about that peer are stale),
    found from ``changed_slots`` — the tree slots whose occupancy changed.
    Charges each mover one RESTRUCTURE message per rebuilt link.
    """
    # Ghost-held slots stay linked: until repaired, a dead peer still owns
    # its slot, and erasing links to it would let another repair move its
    # parent away and orphan the slot.
    view = MapView(net, include_ghosts=bool(net.ghosts))
    mover_addresses = {peer.address for peer in movers}
    for peer in movers:
        refresh_links_from_map(view, peer)

    first_ring: set[Address] = set(pre_link_addresses)
    for peer in movers:
        first_ring.update(peer.link_addresses())
    first_ring -= mover_addresses
    for address in sorted(first_ring):
        neighbor = net.peers.get(address)
        if neighbor is not None:
            refresh_links_from_map(view, neighbor)

    # Entries *about* a peer go stale only when that peer's own attributes
    # change; for non-movers that means "one of its child slots changed
    # occupant".  Those parents sit in the first ring (already refreshed);
    # here we refresh whoever links to them.
    changed_parents: set[Address] = set()
    for slot in changed_slots:
        parent_slot = slot.parent()
        if parent_slot is None:
            continue
        address = net.occupant(parent_slot)
        if address is not None and address not in mover_addresses:
            changed_parents.add(address)
    second_ring: set[Address] = set()
    for address in sorted(changed_parents):
        neighbor = net.peers.get(address)
        if neighbor is not None:
            second_ring.update(neighbor.link_addresses())
    second_ring -= mover_addresses | first_ring
    for address in sorted(second_ring):
        neighbor = net.peers.get(address)
        if neighbor is not None:
            refresh_links_from_map(view, neighbor)

    for peer in movers:
        for target in peer.link_addresses():
            try:
                net.bus.send(peer.address, target, MsgType.RESTRUCTURE)
            except PeerNotFoundError:
                continue


# ---------------------------------------------------------------------------
# Forced insert (rightward shift)
# ---------------------------------------------------------------------------


def _can_park_at(
    net: "BatonNetwork", info: Optional[NodeInfo], direction: str
) -> Optional[BatonPeer]:
    """Directional parking test: an adjacent with the facing child slot
    empty that can accept a child without violating Theorem 1."""
    if info is None:
        return None
    peer = net.peers.get(info.address)
    if peer is None:
        return None
    facing_child = peer.left_child if direction == RIGHT else peer.right_child
    if facing_child is None and peer.tables_full():
        return peer
    return None


def plan_insert_chain(
    net: "BatonNetwork", anchor: BatonPeer, side: str, direction: str = RIGHT
) -> tuple[List[BatonPeer], Position, bool]:
    """Decide which peers shift along ``direction`` and where the last parks.

    Returns ``(displaced, parking_position, safely_parked)``; the newcomer
    will occupy the first displaced peer's slot (or, for an empty chain, the
    parking slot directly).  ``safely_parked`` is False when the chain ran
    off the extreme of the tree and parked without the Theorem 1 check.
    Walks only adjacent links, one counted message per hop.

    ``side`` says where the newcomer lands relative to the anchor in key
    order (LEFT = immediately before it); ``direction`` which way existing
    peers shift to make room.  Both directions preserve in-order order; the
    caller may plan both and apply the shorter — the paper's observation
    that "much smaller shifts ... at each end" usually suffice.
    """
    along = direction  # the adjacency pointer the walk follows
    # Which peer is displaced first?  Shifting the same way the newcomer
    # leans means the anchor itself moves; otherwise its neighbour does.
    anchor_moves = (side == LEFT) == (direction == RIGHT)
    if anchor_moves:
        first: Optional[BatonPeer] = anchor
    else:
        neighbor_info = anchor.adjacent_on(along)
        if neighbor_info is None:
            # No neighbour that way: the newcomer slots in directly as the
            # anchor's child on that side, no shifting required.
            child_slot = (
                anchor.position.right_child()
                if direction == RIGHT
                else anchor.position.left_child()
            )
            return [], child_slot, anchor.tables_full()
        net.bus.send(anchor.address, neighbor_info.address, MsgType.RESTRUCTURE)
        first = net.peer(neighbor_info.address)
    displaced: List[BatonPeer] = []
    current = first
    for _ in range(net.size + 2):
        displaced.append(current)
        next_info = current.adjacent_on(along)
        parking_host = _can_park_at(net, next_info, direction)
        if next_info is None:
            # Displaced the extreme peer: it parks as the child of whoever
            # takes its old slot, on the outward side.
            slot = (
                current.position.right_child()
                if direction == RIGHT
                else current.position.left_child()
            )
            return displaced, slot, False  # extreme fallback, unchecked
        net.bus.send(current.address, next_info.address, MsgType.RESTRUCTURE)
        if parking_host is not None:
            slot = (
                parking_host.position.left_child()
                if direction == RIGHT
                else parking_host.position.right_child()
            )
            return displaced, slot, True
        current = net.peer(next_info.address)
    raise ProtocolError("insert-restructuring chain did not terminate")


def apply_insert_chain(
    net: "BatonNetwork",
    newcomer: BatonPeer,
    displaced: List[BatonPeer],
    parking: Position,
) -> None:
    """Execute the planned shift and rebuild links. ``newcomer`` must not be
    registered yet; displaced peers slide one slot toward ``parking``."""
    pre_links: set[Address] = set()
    for peer in displaced:
        pre_links.update(peer.link_addresses())

    old_positions = [peer.position for peer in displaced]
    if displaced:
        newcomer.move_to(old_positions[0])
        new_positions = old_positions[1:] + [parking]
        for peer, new_position in zip(displaced, new_positions):
            old = peer.position
            peer.move_to(new_position)
            net.record_move(peer, old)
    else:
        newcomer.move_to(parking)
    net.register_peer(newcomer)
    changed_slots = set(old_positions) | {parking}
    rebuild_after_moves(net, [newcomer] + displaced, pre_links, changed_slots)
    net.stats.restructure_shift_sizes.append(len(displaced))


# ---------------------------------------------------------------------------
# Forced removal (fill the vacated slot by shifting predecessors right)
# ---------------------------------------------------------------------------


def plan_removal_chain(
    net: "BatonNetwork", start_info: Optional[NodeInfo], direction: str
) -> Optional[List[BatonPeer]]:
    """Peers that shift to fill a vacated slot, ending at a safe leaf.

    ``direction`` is the side the chain walks toward (LEFT fills from
    predecessors, the paper's default; RIGHT is the mirror fallback).
    Returns None when no safe leaf exists in that direction.
    """
    chain: List[BatonPeer] = []
    info = start_info
    for _ in range(net.size + 2):
        if info is None:
            return None
        peer = net.peers.get(info.address)
        if peer is None:
            return None
        chain.append(peer)
        if can_depart_simply(peer):
            return chain
        next_info = peer.adjacent_on(direction)
        if next_info is not None:
            net.bus.send(peer.address, next_info.address, MsgType.RESTRUCTURE)
        info = next_info
    raise ProtocolError("removal-restructuring chain did not terminate")


def apply_removal_chain(
    net: "BatonNetwork",
    vacated: Position,
    chain: List[BatonPeer],
    extra_pre_links: set[Address],
) -> None:
    """Shift ``chain`` so the first member fills ``vacated``; the last
    member's old (safe leaf) slot disappears."""
    pre_links: set[Address] = set(extra_pre_links)
    for peer in chain:
        pre_links.update(peer.link_addresses())
    old_positions = [peer.position for peer in chain]
    new_positions = [vacated] + old_positions[:-1]
    for peer, new_position in zip(chain, new_positions):
        old = peer.position
        peer.move_to(new_position)
        net.record_move(peer, old)
    changed_slots = set(old_positions) | {vacated}
    rebuild_after_moves(net, chain, pre_links, changed_slots)
    net.stats.restructure_shift_sizes.append(len(chain))


# ---------------------------------------------------------------------------
# High-level forced operations used by load balancing
# ---------------------------------------------------------------------------


def forced_add_child(
    net: "BatonNetwork",
    parent: BatonPeer,
    side: str,
    peer: BatonPeer,
) -> int:
    """Attach ``peer`` as ``parent``'s child even if that forces a shift.

    Used by §IV-D when a lightly loaded leaf rejoins under an overloaded
    node.  Returns the number of peers shifted (0 for a clean join).
    """
    if parent.child_on(side) is None and parent.can_accept_child():
        add_child(net, parent, side, peer=peer)
        return 0
    # Either Theorem 1 would be violated or the slot is taken (the anchor
    # may have gained children while the recruit was departing): split the
    # content, then shift the in-order chain.  The chain is well-defined
    # for internal anchors too — occupants shuffle between slots while the
    # slots keep their subtrees.
    peer.range, moved_keys = split_for_child(parent, side)

    # Plan both shift directions; prefer a safely-parked chain, then the
    # shorter one — the paper's shifts stay short because "suitable spots"
    # are found near each end.
    plans = [
        plan_insert_chain(net, parent, side, RIGHT),
        plan_insert_chain(net, parent, side, LEFT),
    ]
    plans.sort(key=lambda plan: (not plan[2], len(plan[0])))
    displaced, parking, _safe = plans[0]
    apply_insert_chain(net, peer, displaced, parking)
    hand_over(net, parent, peer, moved_keys, MsgType.JOIN_TRANSFER)
    # The anchor's range shrank in the split; when it was not itself moved
    # by the chain its linkers still hold the old range.
    net.broadcast_update(parent)
    return len(displaced)


def depart_with_restructure(
    net: "BatonNetwork", leaf: BatonPeer, absorber: Address
) -> int:
    """Remove ``leaf`` even though its departure is not balance-safe.

    Its range/content go to the peer at ``absorber`` (see
    :func:`repro.core.data.hand_over`), whose linkers hear of its
    grown range; the vacated slot is filled by an in-order shift.  Returns
    the number of peers shifted.
    """
    if not leaf.is_leaf:
        raise ProtocolError("only leaves depart via restructuring")
    grown = net.peer(absorber)
    hand_over(
        net, leaf, grown, leaf.store.clear(), MsgType.LEAVE_TRANSFER,
        range_=leaf.range, departing=True,
    )
    net.broadcast_update(grown, exclude={leaf.address})
    vacated = leaf.position
    predecessor = leaf.left_adjacent
    successor = leaf.right_adjacent
    pre_links = set(leaf.link_addresses())
    net.unregister_peer(leaf.address)

    chain = plan_removal_chain(net, predecessor, LEFT)
    alternative = plan_removal_chain(net, successor, RIGHT)
    if chain is None or (alternative is not None and len(alternative) < len(chain)):
        chain = alternative
    if chain is None:
        # Both directions exhausted: the tree is tiny; simply dropping the
        # leaf slot cannot unbalance anything observable.
        rebuild_after_moves(net, [], pre_links, {vacated})
        net.stats.restructure_shift_sizes.append(0)
        return 0
    apply_removal_chain(net, vacated, chain, pre_links)
    return len(chain)
