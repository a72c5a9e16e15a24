"""Global structural invariants of a BATON overlay.

Used **only** by tests and debugging — protocols never call this module.
Each invariant the paper's theorems promise is written once; the full
checker runs the per-peer check at every live peer and the sampled one at
a sample, so the sampled checker's messages are a subset of the full one's.

1.  **Per peer** (:func:`_check_peer_locally`: one peer, its direct links
    and the position map).  Its slot names it and its parent slot is
    occupied; Theorem 1 (a peer with a child has full routing tables);
    every NodeInfo matches its target's live state; a table entry is
    non-null iff its slot is occupied, and names the occupant; parent and
    child point at each other; the left adjacent is live, earlier in
    in-order and points back, and its range ends where this one starts; a
    peer with no left (right) adjacent starts at or below (ends at or
    above) the domain edge, which §IV-C may stretch; every stored key lies
    in the peer's non-empty range.
2.  **Whole map** (:func:`collect_violations` only).  Every slot names a
    live peer at that slot, the root slot is occupied, and a slot no live
    peer reports has an occupied parent slot; height balance
    (Definition 1); Theorem 2 (a table link's parents are table-linked);
    adjacent links are exactly the in-order neighbours, and where one is
    stale the true neighbours' ranges still meet.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.ids import ROOT, Position
from repro.core.links import LEFT, RIGHT, NodeInfo
from repro.core.peer import BatonPeer
from repro.util.errors import InvariantViolation

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def check_invariants(net: "BatonNetwork") -> None:
    """Raise :class:`InvariantViolation` listing every broken invariant."""
    errors = collect_violations(net)
    if errors:
        summary = "\n  - ".join(errors[:25])
        suffix = f"\n  (+{len(errors) - 25} more)" if len(errors) > 25 else ""
        raise InvariantViolation(f"{len(errors)} violation(s):\n  - {summary}{suffix}")


def collect_violations(net: "BatonNetwork") -> List[str]:
    """All invariant violations, as human-readable strings."""
    errors = _headline(net)
    if not net.peers:
        return errors
    errors.extend(_check_map(net))
    errors.extend(_check_balance(net))
    errors.extend(_check_theorem2(net))
    errors.extend(_check_adjacency(net))
    for peer in net.peers.values():
        errors.extend(_check_peer_locally(net, peer))
    return errors


def collect_violations_sampled(
    net: "BatonNetwork", sample_size: int = 1024, seed: int = 0
) -> List[str]:
    """Invariant violations visible from a random peer sample.

    The full checker is O(N log N) and walks the whole map — half a minute
    at N=100k, which no test or post-build sanity hook can afford.  This
    variant runs the per-peer check (item 1 of the module docstring) at
    ``sample_size`` peers drawn with ``seed`` (all of them when the
    network is smaller), so a gap, overlap or stale link anywhere in the
    sampled neighbourhoods is caught.  Its messages are a subset of
    :func:`collect_violations`'s; the whole-map checks stay there.
    """
    errors = _headline(net)
    if not net.peers:
        return errors
    addresses = list(net.peers)
    if sample_size < len(addresses):
        from repro.util.rng import SeededRng

        addresses = SeededRng(seed).sample(addresses, sample_size)
    for address in addresses:
        errors.extend(_check_peer_locally(net, net.peers[address]))
    return errors


def tree_height(net: "BatonNetwork") -> int:
    """Height of the occupied tree (1 for a singleton root)."""
    return _heights(net).get(ROOT, 0)


def _headline(net: "BatonNetwork") -> List[str]:
    """The lines both checkers open with: unrepaired ghosts, an empty root."""
    errors = []
    if net.ghosts:
        errors.append(f"unrepaired ghosts present: {sorted(net.ghosts)}")
    if net.peers and net.occupant(ROOT) is None:
        errors.append("root slot unoccupied")
    return errors


# -- per peer -----------------------------------------------------------------


def _check_peer_locally(net: "BatonNetwork", peer: BatonPeer) -> List[str]:
    """Every invariant checkable from one peer and its direct links."""
    errors: List[str] = []
    position = peer.position

    # Map consistency and tree closure.
    if net.occupant(position) != peer.address:
        errors.append(f"peer {peer.address} at {position} missing from map")
    parent_position = position.parent()
    if parent_position is not None and net.occupant(parent_position) is None:
        errors.append(
            f"occupied slot {position} has unoccupied parent {parent_position}"
        )

    # Theorem 1 and the link snapshots.
    if not peer.is_leaf and not peer.tables_full():
        errors.append(f"{position} has children but incomplete routing tables")
    for kind, info in peer.iter_links():
        problem = _info_matches(net, info)
        if problem is not None:
            errors.append(f"{position} {kind} link: {problem}")

    # Table completeness against the position map.
    for side in (LEFT, RIGHT):
        table = peer.table_on(side)
        for index in table.valid_indices():
            slot = table.position_at(index)
            occupant = net.occupant(slot)
            entry = table.get(index)
            if occupant is not None and entry is None:
                errors.append(
                    f"{position} {side} table misses occupied slot {slot}"
                )
            elif occupant is None and entry is not None:
                errors.append(
                    f"{position} {side} table has entry for empty slot {slot}"
                )
            elif entry is not None and entry.address != occupant:
                errors.append(
                    f"{position} {side} table entry for {slot} points at "
                    f"{entry.address}, occupant is {occupant}"
                )

    # Parent/child mutuality.
    if peer.parent is None and position.level != 0:
        errors.append(f"non-root {position} has no parent link")
    for side, expected_pos in (
        (LEFT, position.left_child()),
        (RIGHT, position.right_child()),
    ):
        child_info = peer.child_on(side)
        if child_info is None:
            continue
        child = net.peers.get(child_info.address)
        if child is None:
            errors.append(f"{position} {side} child link is dead")
            continue
        if child.position != expected_pos:
            errors.append(
                f"{position} {side} child at {child.position}, "
                f"expected {expected_pos}"
            )
        if child.parent is None or child.parent.address != peer.address:
            errors.append(
                f"{child.position} does not point back at parent {position}"
            )

    # Adjacency splice and range continuity.  Every peer checks the seam to
    # its left, and a boundary peer the domain edge on its open side, so
    # checking every peer this way is the global partition check wherever
    # the links are current (the in-order walk covers a stale one).
    left_info = peer.left_adjacent
    left = None if left_info is None else net.peers.get(left_info.address)
    if left_info is not None and left is None:
        errors.append(f"{position} left adjacent link is dead")
    else:
        if left is not None:
            if not left.position.inorder_lt(position):
                errors.append(
                    f"{position} left adjacent {left.position} is not "
                    f"earlier in in-order"
                )
            right_back = left.right_adjacent
            if right_back is None or right_back.address != peer.address:
                errors.append(
                    f"{left.position} does not point back at right "
                    f"adjacent {position}"
                )
        errors.extend(_seam(net, left, peer))
    if peer.right_adjacent is None:
        errors.extend(_seam(net, peer, None))

    # Store containment.
    minimum, maximum = peer.store.min(), peer.store.max()
    if minimum is not None and (
        minimum < peer.range.low or maximum >= peer.range.high
    ):
        errors.append(
            f"{position} stores keys [{minimum}, {maximum}] outside "
            f"{peer.range}"
        )
    if peer.range.is_empty:
        errors.append(f"empty range at {position}")
    return errors


def _info_matches(net: "BatonNetwork", info: NodeInfo) -> Optional[str]:
    peer = net.peers.get(info.address)
    if peer is None:
        return f"links dead peer {info.address}"
    if peer.position != info.position:
        return f"stale position {info.position} for peer at {peer.position}"
    if peer.range != info.range:
        return f"stale range {info.range} for peer holding {peer.range}"
    actual_left = peer.left_child.address if peer.left_child else None
    actual_right = peer.right_child.address if peer.right_child else None
    if info.left_child != actual_left or info.right_child != actual_right:
        return (
            f"stale children ({info.left_child}, {info.right_child}) for "
            f"peer with ({actual_left}, {actual_right})"
        )
    return None


def _seam(
    net: "BatonNetwork", left: Optional[BatonPeer], right: Optional[BatonPeer]
) -> List[str]:
    """A break where ``left``'s range should meet ``right``'s in in-order.

    None on either side stands for the domain edge, which the outermost
    range must reach or pass: the §IV-C extreme-range expansion stretches
    it below ``domain.low`` or above ``domain.high``.
    """
    domain = net.config.domain
    if left is None:
        if right.range.low > domain.low:
            return [
                f"leftmost {right.position} starts at {right.range.low}, "
                f"above {domain.low}"
            ]
    elif right is None:
        if left.range.high < domain.high:
            return [
                f"rightmost {left.position} ends at {left.range.high}, "
                f"below {domain.high}"
            ]
    elif left.range.high != right.range.low:
        return [
            f"range gap/overlap before {right.position}: {left.range} "
            f"then {right.range}"
        ]
    return []


# -- whole map ----------------------------------------------------------------


def _check_map(net: "BatonNetwork") -> List[str]:
    """Slot → peer consistency, and closure of slots no live peer reports."""
    errors = []
    for position, address in net.occupied_positions():
        peer = net.peers.get(address)
        if peer is None:
            errors.append(f"map slot {position} points at missing peer {address}")
        elif peer.position != position:
            errors.append(
                f"map slot {position} holds peer at {peer.position} (addr {address})"
            )
        else:
            continue  # the per-peer check covers a live peer's own slot
        parent = position.parent()
        if parent is not None and net.occupant(parent) is None:
            errors.append(f"occupied slot {position} has unoccupied parent {parent}")
    return errors


def _heights(net: "BatonNetwork") -> Dict[Position, int]:
    """Height of the occupied subtree under every occupied slot (an
    unoccupied slot's is 0), keyed in position-map order.

    One post-order pass, one map read per slot: deepest level first, so
    both children are done before their parent.
    """
    heights = {position: 0 for position, _ in net.occupied_positions()}
    for position in sorted(heights, key=lambda p: p.level, reverse=True):
        heights[position] = 1 + max(
            heights.get(position.left_child(), 0),
            heights.get(position.right_child(), 0),
        )
    return heights


def _check_balance(net: "BatonNetwork") -> List[str]:
    errors = []
    heights = _heights(net)
    for position in heights:
        left = heights.get(position.left_child(), 0)
        right = heights.get(position.right_child(), 0)
        if abs(left - right) > 1:
            errors.append(
                f"imbalance at {position}: subtree heights {left} vs {right}"
            )
    return errors


def _check_theorem2(net: "BatonNetwork") -> List[str]:
    errors = []
    for peer in net.peers.values():
        parent_info = peer.parent
        if parent_info is None:
            continue
        parent = net.peers.get(parent_info.address)
        if parent is None:
            continue
        for side in (LEFT, RIGHT):
            for _, info in peer.table_on(side).occupied():
                target_parent_pos = info.position.parent()
                if target_parent_pos is None or target_parent_pos == parent.position:
                    continue
                slot = parent.table_slot_for(target_parent_pos)
                if slot is None:
                    errors.append(
                        f"theorem 2: parent of {info.position} not at a table "
                        f"distance from {parent.position}"
                    )
                    continue
                entry = parent.table_on(slot[0]).get(slot[1])
                if entry is None:
                    errors.append(
                        f"theorem 2: {parent.position} lacks entry for parent "
                        f"of {info.position} linked by child {peer.position}"
                    )
    return errors


def _inorder_positions(net: "BatonNetwork") -> List[Position]:
    """Slots held by live peers, in in-order.

    Ghost-held slots are left out: the map pass reports them, and the walk
    needs live peers.  The sort key is the exact in-order fraction
    ``(2·number − 1) / 2^(level+1)`` over the deepest level's denominator.
    """
    positions = [p for p, a in net.occupied_positions() if a in net.peers]
    depth = max((p.level for p in positions), default=0)
    positions.sort(key=lambda p: (2 * p.number - 1) << (depth - p.level))
    return positions


def _check_adjacency(net: "BatonNetwork") -> List[str]:
    """Adjacent links against the in-order walk of the map.

    Where a link is stale the per-peer splice check read the wrong
    neighbour, so the walk checks the seam the link should have named.
    """
    errors = []
    ordered = _inorder_positions(net)
    peers = [net.peers[net.occupant(p)] for p in ordered]
    last = len(peers) - 1
    for i, (position, peer) in enumerate(zip(ordered, peers)):
        for side, j in ((LEFT, i - 1), (RIGHT, i + 1)):
            neighbour = peers[j] if 0 <= j <= last else None
            expected = neighbour.address if neighbour else None
            link = peer.adjacent_on(side)
            actual = link.address if link else None
            if actual == expected:
                continue
            errors.append(
                f"{position}: {side} adjacent is {actual}, expected {expected}"
            )
            seam = (neighbour, peer) if side == LEFT else (peer, neighbour)
            errors.extend(_seam(net, *seam))
    return errors
