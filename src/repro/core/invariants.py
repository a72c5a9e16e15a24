"""Global structural invariants of a BATON overlay.

Used **only** by tests and debugging — protocols never call this module.
The checker validates everything the paper's theorems promise:

1.  Position-map/peer consistency, and tree closure (every non-root occupied
    slot has an occupied parent slot).
2.  Height balance (Definition 1: subtree heights differ by at most one at
    every node).
3.  Theorem 1's working condition: every peer with a child has full left and
    right routing tables.
4.  Theorem 2: a table link's parents are themselves table-linked.
5.  Adjacent links are exactly the in-order neighbours.
6.  Ranges: the in-order traversal reads out a gapless, ascending partition
    of the covered domain.
7.  Link accuracy: every NodeInfo matches the target's live state (address,
    position, range, children).
8.  Table completeness: an in-range slot entry is non-null iff the slot is
    occupied.
9.  Parent/child mutuality and store containment (every stored key inside
    its owner's range).
"""

from __future__ import annotations

import time
from typing import List, Optional, TYPE_CHECKING

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
    errors: List[str] = []
    if net.ghosts:
        errors.append(f"unrepaired ghosts present: {sorted(net.ghosts)}")
    if not net.peers:
        return errors
    errors.extend(_check_map_consistency(net))
    errors.extend(_check_tree_closure(net))
    errors.extend(_check_balance(net))
    errors.extend(_check_theorem1(net))
    errors.extend(_check_theorem2(net))
    errors.extend(_check_adjacency(net))
    errors.extend(_check_range_partition(net))
    errors.extend(_check_link_accuracy(net))
    errors.extend(_check_table_completeness(net))
    errors.extend(_check_parent_child(net))
    errors.extend(_check_store_containment(net))
    return errors


def collect_violations_sampled(
    net: "BatonNetwork",
    sample_size: int = 1024,
    seed: int = 0,
    budget_s: Optional[float] = None,
) -> List[str]:
    """Invariant violations visible from a random peer sample.

    The full checker is O(N log N) and walks every peer several times —
    half a minute at N=100k, which no test or post-build sanity hook can
    afford.  This variant draws ``sample_size`` peers (all of them when the
    network is smaller) and verifies every *locally checkable* invariant at
    each: map consistency, parent-slot closure, Theorem 1 table fullness,
    link accuracy, table completeness against the position map, parent and
    child mutuality, store containment, and the adjacency splice including
    range continuity (``left.high == own.low == …``) — so a gap, overlap or
    stale link anywhere in the sampled neighbourhoods is caught.  Global
    aggregates that need the whole tree at once (height balance, the full
    in-order walk) stay with :func:`collect_violations`.

    ``budget_s`` optionally stops after a wall-clock budget; at sample 1024
    a check costs ~10ms at N=100k, so the budget only bites when something
    is pathologically wrong (which the partial result will already show).
    """
    errors: List[str] = []
    if net.ghosts:
        errors.append(f"unrepaired ghosts present: {sorted(net.ghosts)}")
    if not net.peers:
        return errors
    if net.occupant(ROOT) is None:
        errors.append("root slot unoccupied")
    addresses = list(net.peers)
    if sample_size >= len(addresses):
        chosen = addresses
    else:
        from repro.util.rng import SeededRng

        chosen = SeededRng(seed).sample(addresses, sample_size)
    deadline = time.perf_counter() + budget_s if budget_s else None
    for address in chosen:
        errors.extend(_check_peer_locally(net, net.peers[address]))
        if deadline is not None and time.perf_counter() > deadline:
            break
    return errors


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
        elif child.position != expected_pos:
            errors.append(
                f"{position} {side} child at {child.position}, "
                f"expected {expected_pos}"
            )
        elif child.parent is None or child.parent.address != peer.address:
            errors.append(
                f"{child.position} does not point back at parent {position}"
            )

    # Adjacency splice and range continuity.  A boundary peer (no adjacent
    # on a side) must own out to the corresponding domain edge, so checking
    # every peer this way is exactly the global partition check.
    domain = net.config.domain
    left_info = peer.left_adjacent
    if left_info is None:
        if peer.range.low != domain.low:
            errors.append(
                f"{position} has no left adjacent but starts at "
                f"{peer.range.low}, not {domain.low}"
            )
    else:
        left = net.peers.get(left_info.address)
        if left is None:
            errors.append(f"{position} left adjacent link is dead")
        else:
            if left.range.high != peer.range.low:
                errors.append(
                    f"range gap/overlap before {position}: {left.range} "
                    f"then {peer.range}"
                )
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
    right_info = peer.right_adjacent
    if right_info is None and peer.range.high != domain.high:
        errors.append(
            f"{position} has no right adjacent but ends at "
            f"{peer.range.high}, not {domain.high}"
        )

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


# -- individual checks --------------------------------------------------------


def _check_map_consistency(net: "BatonNetwork") -> List[str]:
    errors = []
    for position, address in net.occupied_positions():
        peer = net.peers.get(address)
        if peer is None:
            errors.append(f"map slot {position} points at missing peer {address}")
        elif peer.position != position:
            errors.append(
                f"map slot {position} holds peer at {peer.position} (addr {address})"
            )
    for address, peer in net.peers.items():
        if net.occupant(peer.position) != address:
            errors.append(f"peer {address} at {peer.position} missing from map")
    return errors


def _check_tree_closure(net: "BatonNetwork") -> List[str]:
    errors = []
    for position, _ in net.occupied_positions():
        parent = position.parent()
        if parent is not None and net.occupant(parent) is None:
            errors.append(f"occupied slot {position} has unoccupied parent {parent}")
    if net.occupant(ROOT) is None:
        errors.append("root slot unoccupied")
    return errors


def _subtree_height(net: "BatonNetwork", position: Position) -> int:
    """Height of the occupied subtree under ``position`` (0 if empty)."""
    if net.occupant(position) is None:
        return 0
    return 1 + max(
        _subtree_height(net, position.left_child()),
        _subtree_height(net, position.right_child()),
    )


def _check_balance(net: "BatonNetwork") -> List[str]:
    errors = []
    for position, _ in net.occupied_positions():
        left = _subtree_height(net, position.left_child())
        right = _subtree_height(net, position.right_child())
        if abs(left - right) > 1:
            errors.append(
                f"imbalance at {position}: subtree heights {left} vs {right}"
            )
    return errors


def _check_theorem1(net: "BatonNetwork") -> List[str]:
    errors = []
    for peer in net.peers.values():
        if not peer.is_leaf and not peer.tables_full():
            errors.append(
                f"{peer.position} has children but incomplete routing tables"
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
    # Slots held by ghosts are excluded: the map-consistency check already
    # reports them, and the remaining checks need live peers.
    positions = [p for p, a in net.occupied_positions() if a in net.peers]
    positions.sort(key=lambda p: p.inorder_num_den()[0] / p.inorder_num_den()[1])
    # Exact ordering (floats are fine at simulation depths, but be safe):
    import functools

    positions.sort(
        key=functools.cmp_to_key(
            lambda a, b: -1 if a.inorder_lt(b) else (1 if b.inorder_lt(a) else 0)
        )
    )
    return positions


def _check_adjacency(net: "BatonNetwork") -> List[str]:
    errors = []
    ordered = _inorder_positions(net)
    previous: Optional[Position] = None
    for position in ordered:
        peer = net.peers[net.occupant(position)]
        expected_left = net.occupant(previous) if previous else None
        actual_left = peer.left_adjacent.address if peer.left_adjacent else None
        if actual_left != expected_left:
            errors.append(
                f"{position}: left adjacent is {actual_left}, expected "
                f"{expected_left}"
            )
        previous = position
    following: Optional[Position] = None
    for position in reversed(ordered):
        peer = net.peers[net.occupant(position)]
        expected_right = net.occupant(following) if following else None
        actual_right = peer.right_adjacent.address if peer.right_adjacent else None
        if actual_right != expected_right:
            errors.append(
                f"{position}: right adjacent is {actual_right}, expected "
                f"{expected_right}"
            )
        following = position
    return errors


def _check_range_partition(net: "BatonNetwork") -> List[str]:
    errors = []
    ordered = _inorder_positions(net)
    ranges = [net.peers[net.occupant(p)].range for p in ordered]
    for earlier, later, pos in zip(ranges, ranges[1:], ordered[1:]):
        if earlier.high != later.low:
            errors.append(
                f"range gap/overlap before {pos}: {earlier} then {later}"
            )
    for range_, pos in zip(ranges, ordered):
        if range_.is_empty:
            errors.append(f"empty range at {pos}")
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


def _check_link_accuracy(net: "BatonNetwork") -> List[str]:
    errors = []
    for peer in net.peers.values():
        for kind, info in peer.iter_links():
            problem = _info_matches(net, info)
            if problem is not None:
                errors.append(f"{peer.position} {kind} link: {problem}")
    return errors


def _check_table_completeness(net: "BatonNetwork") -> List[str]:
    errors = []
    for peer in net.peers.values():
        for side in (LEFT, RIGHT):
            table = peer.table_on(side)
            for index in table.valid_indices():
                slot = table.position_at(index)
                occupant = net.occupant(slot)
                entry = table.get(index)
                if occupant is not None and entry is None:
                    errors.append(
                        f"{peer.position} {side} table misses occupied slot {slot}"
                    )
                if occupant is None and entry is not None:
                    errors.append(
                        f"{peer.position} {side} table has entry for empty "
                        f"slot {slot}"
                    )
                if (
                    occupant is not None
                    and entry is not None
                    and entry.address != occupant
                ):
                    errors.append(
                        f"{peer.position} {side} table entry for {slot} points "
                        f"at {entry.address}, occupant is {occupant}"
                    )
    return errors


def _check_parent_child(net: "BatonNetwork") -> List[str]:
    errors = []
    for peer in net.peers.values():
        for side, expected_pos in (
            (LEFT, peer.position.left_child()),
            (RIGHT, peer.position.right_child()),
        ):
            child_info = peer.child_on(side)
            if child_info is None:
                continue
            child = net.peers.get(child_info.address)
            if child is None:
                errors.append(f"{peer.position} {side} child link is dead")
                continue
            if child.position != expected_pos:
                errors.append(
                    f"{peer.position} {side} child at {child.position}, "
                    f"expected {expected_pos}"
                )
            if child.parent is None or child.parent.address != peer.address:
                errors.append(
                    f"{child.position} does not point back at parent "
                    f"{peer.position}"
                )
        if peer.parent is None and peer.position.level != 0:
            errors.append(f"non-root {peer.position} has no parent link")
    return errors


def _check_store_containment(net: "BatonNetwork") -> List[str]:
    errors = []
    for peer in net.peers.values():
        low, high = peer.range.low, peer.range.high
        minimum, maximum = peer.store.min(), peer.store.max()
        if minimum is not None and (minimum < low or maximum >= high):
            errors.append(
                f"{peer.position} stores keys [{minimum}, {maximum}] outside "
                f"{peer.range}"
            )
    return errors


def tree_height(net: "BatonNetwork") -> int:
    """Height of the occupied tree (1 for a singleton root)."""
    return _subtree_height(net, ROOT)
