"""Bulk balanced build: the final BATON tree computed directly from N.

BATON's §III invariants pin the balanced shape for a population of N
peers up to the order joins arrive in: levels ``0..L-1`` are complete and
the remaining ``M = N - (2^L - 1)`` peers sit in the leftmost slots of
level ``L``.  Growing that shape join-by-join costs N walks and N table
update rounds — 89% of total wall-clock at N=10k before this path
existed — yet every message it sends is reconstructible
arithmetic.  D²-Tree and D³-Tree (PAPERS.md) get their deterministic
bounds by the same observation: *structural construction* is separable
from *dynamic maintenance*.

This module is that separation.  :func:`bulk_build` computes positions,
ranges, parent/child/adjacent links and both sideways routing tables for
all N peers in ``O(N log N)`` time with **zero simulated messages**, and
is pinned link-for-link, range-for-range equal to the incremental
reference (:func:`incremental_reference` — Algorithm 1 joins driven in
the same canonical order) by ``tests/test_bulk_build.py``.

What bulk construction is **not** (DESIGN.md, "Construction contract"):
it is deployment-time scaffolding only.  Churn — every join, leave,
failure and repair after time zero — must still run the paper's
protocols; nothing here may be called on a non-empty network.

Ranges come from one of two regimes.  Without data the recurrence is the
arithmetic-midpoint carve that Algorithm 1 produces over empty stores —
the regime the small-N equivalence test pins.  That carve cannot reach
production depth: each level the right spine keeps only half of its
remaining half (range width *and* key share quarter per level), so an
integer domain of 10⁹ bottoms out near depth 15 and N=100k needs 17 —
and driving Algorithm 1 at canonical parents hits the same wall, because
live joiners route toward data-rich regions instead.  So with a dataset
(``keys=...``) the bulk path builds the state churn converges to rather
than replaying any join order: the sorted keys are dealt to the N nodes
in in-order position order, ~K/N each (a B+-tree-style bulk load, and
the fixpoint of the paper's §V load balancing), with range boundaries
read off the slice edges.  In-order contiguity is precisely the range
invariant, and every key lands in its owner with no per-key routing.

Memory: every peer's :class:`NodeInfo` snapshot is built once and
**shared** by all of its linkers (parent slot, child slots, adjacents,
every routing-table row that points at it).  ``NodeInfo`` is immutable —
an update can only replace the entry a linker holds — so sharing is safe,
and it replaces the ~N·log N independent snapshots the incremental path
accumulates with exactly N.  The ground-truth rebuild
(:class:`repro.core.restructure.MapView`) shares the same way, so sweeps
and repairs keep it at one per slot.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, TYPE_CHECKING

from repro.core.ids import Position
from repro.core.links import ROW_DISTANCES, NodeInfo, new_tuple
from repro.core.peer import BatonPeer
from repro.core.ranges import Range

if TYPE_CHECKING:
    from repro.core.network import BatonConfig, BatonNetwork


def tree_shape(n_peers: int) -> tuple[int, int]:
    """The canonical shape for N peers: ``(complete_levels, last_row)``.

    Levels ``0..complete_levels-1`` are fully occupied; ``last_row`` peers
    occupy slots ``1..last_row`` of level ``complete_levels`` (0 when the
    tree is perfect).
    """
    if n_peers < 1:
        raise ValueError("need at least one peer")
    levels = 1
    while (1 << (levels + 1)) - 1 <= n_peers:
        levels += 1
    return levels, n_peers - ((1 << levels) - 1)


def bulk_build(
    n_peers: int,
    seed: int = 0,
    config: Optional["BatonConfig"] = None,
    keys: Optional[Iterable[int]] = None,
) -> "BatonNetwork":
    """A fresh N-peer BATON overlay, constructed directly (no messages).

    ``keys`` (optional) is the dataset to load: ranges are then cut so
    every peer owns a ~K/N slice of the sorted keys (the load-balanced
    fixpoint) and each key lands directly in its owner's store.
    """
    from repro.core.network import BatonNetwork

    net = BatonNetwork(config=config, seed=seed)
    populate_balanced(net, n_peers, keys=keys)
    return net


def incremental_reference(
    n_peers: int,
    seed: int = 0,
    config: Optional["BatonConfig"] = None,
) -> "BatonNetwork":
    """The same shape grown through Algorithm 1, one join at a time.

    Each joiner is pointed at its canonical parent (level order, left to
    right), which Algorithm 1 accepts immediately — its tables are full
    and the left slot fills before the right.  This is the ground truth
    the bulk path is pinned against: same addresses, same ranges, same
    links, with every table filled by the paper's update protocol.
    """
    from repro.core.network import BatonNetwork

    net = BatonNetwork(config=config, seed=seed)
    net.bootstrap()
    complete_levels, last_row = tree_shape(n_peers)
    for level in range(1, complete_levels + (1 if last_row else 0)):
        row = (1 << level) if level < complete_levels else last_row
        for number in range(1, row + 1):
            parent_position = Position(level, number).parent()
            net.join(via=net.occupant(parent_position))
    return net


def populate_balanced(
    net: "BatonNetwork",
    n_peers: int,
    keys: Optional[Iterable[int]] = None,
) -> None:
    """Fill an **empty** network with the canonical N-peer tree.

    Runs in O(N log N + K log K): O(N) for positions/ranges/parent/child
    links, O(N log N) for the routing-table backfill and the in-order
    adjacency chain, O(K log K) to sort the optional dataset (each peer
    then adopts its slice whole).  Sends nothing on the bus and draws
    nothing from the rng.  Raises ``ValueError`` naming the lowest key
    below ``net.config.domain``, else the highest above it.
    """
    if net.peers:
        raise ValueError(
            "bulk build requires an empty network — live peers must grow "
            "through the join protocol (see DESIGN.md, Construction contract)"
        )
    complete_levels, last_row = tree_shape(n_peers)
    max_level = complete_levels if last_row else complete_levels - 1
    sorted_keys = sorted(keys) if keys is not None else []

    def row_width(level: int) -> int:
        if level < complete_levels:
            return 1 << level
        return last_row if level == complete_levels else 0

    # --- the in-order position sequence -------------------------------------
    # The exact in-order key of (level, number) is (2·number − 1)/2^(level+1);
    # scaling every key by 2^(max_level+1) makes the comparison integral.
    # Used for range assignment (with data) and the adjacency chain (always).
    ordered: List[tuple[int, int, int]] = []
    for level in range(max_level + 1):
        shift = max_level - level
        for index in range(row_width(level)):
            ordered.append((((2 * index) + 1) << shift, level, index))
    ordered.sort()

    ranges_by_level: List[List[Range]]
    spans_by_level: Optional[List[List[tuple[int, int]]]] = None
    if sorted_keys:
        # --- ranges from the data: the balanced in-order partition ----------
        # Deal the sorted keys to the N peers in in-order position order,
        # ~K/N each, and read the range boundaries off the slice edges —
        # bumped minimally (and clamped so the tail still fits) when a
        # duplicate run or sparse data would repeat a boundary.  In-order
        # contiguity of the resulting ranges IS the range-partition
        # invariant; per-peer load is the §V balancing fixpoint.
        domain = net.config.domain
        check_keys_in_domain(domain, sorted_keys[0], sorted_keys[-1])
        if domain.width < n_peers:
            raise ValueError(
                f"domain {domain} has fewer values than peers ({n_peers})"
            )
        k = len(sorted_keys)
        boundaries: List[int] = [domain.low]
        for rank in range(1, n_peers):
            candidate = sorted_keys[min(rank * k // n_peers, k - 1)]
            floor = boundaries[-1] + 1
            ceiling = domain.high - (n_peers - rank)
            boundaries.append(min(max(candidate, floor), ceiling))
        boundaries.append(domain.high)
        ranges_by_level = [
            [None] * row_width(level) for level in range(max_level + 1)
        ]
        spans_by_level = [
            [None] * row_width(level) for level in range(max_level + 1)
        ]
        for rank, (_, level, index) in enumerate(ordered):
            low, high = boundaries[rank], boundaries[rank + 1]
            ranges_by_level[level][index] = Range(low, high)
            spans_by_level[level][index] = (
                bisect_left(sorted_keys, low),
                bisect_left(sorted_keys, high),
            )
    else:
        # --- ranges without data: Algorithm 1's midpoint carve --------------
        # ``current[j]`` is the range parent j (0-based) holds *right now*
        # in the canonical join order; each child carves its half off
        # exactly as add_child would over an empty store — left child takes
        # the low half, right child the high half of what remains.  After a
        # row's children are done, ``current`` holds that row's final
        # ranges.
        ranges_by_level = []
        current: List[Range] = [net.config.domain]
        for level in range(max_level + 1):
            children = row_width(level + 1)
            next_current: List[Range] = []
            for child in range(children):
                parent_range = current[child // 2]
                pivot = parent_range.midpoint()
                if child % 2 == 0:  # left child: takes [low, pivot)
                    child_range, parent_range = parent_range.split_at(pivot)
                else:  # right child: takes [pivot, high)
                    parent_range, child_range = parent_range.split_at(pivot)
                current[child // 2] = parent_range
                next_current.append(child_range)
            ranges_by_level.append(current)
            current = next_current

    # --- peers, addresses in the canonical (level-order) join order -------
    peers_by_level: List[List[BatonPeer]] = []
    for level in range(max_level + 1):
        row = [
            BatonPeer(
                net.alloc.allocate(),
                Position(level, index + 1),
                ranges_by_level[level][index],
            )
            for index in range(row_width(level))
        ]
        peers_by_level.append(row)
        for index, peer in enumerate(row):
            net.register_peer(peer)
            if sorted_keys:
                lo, hi = spans_by_level[level][index]
                peer.store.adopt_sorted(sorted_keys[lo:hi])

    # --- one shared snapshot per peer --------------------------------------
    # ``new_tuple`` skips NodeInfo's Python-level constructor.
    snaps_by_level: List[List[NodeInfo]] = []
    for level, row in enumerate(peers_by_level):
        below = peers_by_level[level + 1] if level < max_level else []
        snaps = []
        for index, peer in enumerate(row):
            left, right = 2 * index, 2 * index + 1
            snaps.append(
                new_tuple(
                    NodeInfo,
                    (
                        peer.address,
                        peer.position,
                        peer.range,
                        below[left].address if left < len(below) else None,
                        below[right].address if right < len(below) else None,
                    ),
                )
            )
        snaps_by_level.append(snaps)

    # --- parent/child links and the routing-table backfill ------------------
    for level, row in enumerate(peers_by_level):
        snaps = snaps_by_level[level]
        above = snaps_by_level[level - 1] if level else []
        below = snaps_by_level[level + 1] if level < max_level else []
        occupied = len(row)  # occupancy at a level is always a prefix
        for index, peer in enumerate(row):
            if level:
                peer.parent = above[index // 2]
            left, right = 2 * index, 2 * index + 1
            if left < len(below):
                peer.left_child = below[left]
            if right < len(below):
                peer.right_child = below[right]
            number = index + 1
            # Left table: slots at number - 2^i, all of which are occupied
            # (occupancy is a left-to-right prefix of every level).  Rows
            # are filled whole, by slice, into the table's exact-size list.
            entries = peer.left_table.entries
            entries[:] = [snaps[index - distance] for distance in ROW_DISTANCES[len(entries)]]
            # Right table: slots at number + 2^i, occupied iff inside the
            # prefix; beyond it the in-range slot stays null (the paper's
            # "an entry is still made ... but marked as null").
            entries = peer.right_table.entries
            entries[:] = [
                snaps[index + distance] if number + distance <= occupied else None
                for distance in ROW_DISTANCES[len(entries)]
            ]

    # --- adjacent links: the in-order chain ---------------------------------
    previous: Optional[tuple[int, int]] = None
    for _, level, index in ordered:
        peer = peers_by_level[level][index]
        if previous is not None:
            left_peer = peers_by_level[previous[0]][previous[1]]
            peer.left_adjacent = snaps_by_level[previous[0]][previous[1]]
            left_peer.right_adjacent = snaps_by_level[level][index]
        previous = (level, index)


def check_keys_in_domain(domain: Range, lowest: int, highest: int) -> None:
    """Raise ``ValueError`` unless the dataset's extreme keys lie in ``domain``.

    A key outside it has no owner: the bulk build would drop it and a grown
    build would keep it outside every range.  The message names ``lowest``
    if it is out, else ``highest``.
    """
    for key in (lowest, highest):
        if not domain.contains(key):
            raise ValueError(f"key {key} lies outside the key domain {domain}")
