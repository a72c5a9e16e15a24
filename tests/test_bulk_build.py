"""Bulk balanced build: equivalence with the join protocol, data loading,
and the sampled invariant checker that makes 100k-peer sanity affordable.

The heart of the construction contract (DESIGN.md): the bulk path is only
trustworthy because it is pinned link-for-link against Algorithm 1 driven
in the same canonical order, at every small N where running the protocol
is cheap.
"""

import os
import sys
from bisect import bisect_left
from typing import List, Optional

import pytest

from repro.core.bulk_build import (
    incremental_reference,
    populate_balanced,
    tree_shape,
)
from repro.core.ids import Position
from repro.core.invariants import (
    collect_violations,
    collect_violations_sampled,
)
from repro.core.links import NodeInfo
from repro.core.network import BatonNetwork
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.workloads.generators import uniform_keys

# Every population from degenerate to a perfect 3-level-plus tree, plus the
# power-of-two boundaries where the last row empties or begins.
EQUIVALENCE_SIZES = sorted(
    set(range(2, 65)) | {127, 128, 129, 255, 256, 257}
)


def assert_networks_identical(bulk: BatonNetwork, grown: BatonNetwork) -> None:
    """Address-for-address, link-for-link structural equality."""
    assert set(bulk.peers) == set(grown.peers)
    for address, expected in grown.peers.items():
        actual = bulk.peers[address]
        assert actual.position == expected.position
        assert actual.range == expected.range
        assert actual.parent == expected.parent
        assert actual.left_child == expected.left_child
        assert actual.right_child == expected.right_child
        assert actual.left_adjacent == expected.left_adjacent
        assert actual.right_adjacent == expected.right_adjacent
        assert actual.left_table == expected.left_table
        assert actual.right_table == expected.right_table


class TestTreeShape:
    def test_perfect_trees(self):
        assert tree_shape(1) == (1, 0)
        assert tree_shape(3) == (2, 0)
        assert tree_shape(7) == (3, 0)

    def test_partial_last_row(self):
        assert tree_shape(2) == (1, 1)
        assert tree_shape(4) == (2, 1)
        assert tree_shape(100_000) == (16, 34465)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tree_shape(0)


class TestEquivalence:
    @pytest.mark.parametrize("n_peers", EQUIVALENCE_SIZES)
    def test_matches_incremental_join(self, n_peers):
        bulk = BatonNetwork.build(n_peers, bulk=True)
        grown = incremental_reference(n_peers)
        assert_networks_identical(bulk, grown)

    @pytest.mark.parametrize("role", ["right_adjacent", "left_adjacent", "parent"])
    def test_same_departure_costs_the_same_messages(self, role):
        """Equal links must mean equal behaviour: what a departure spends
        may not depend on whether two equal snapshots are one object (bulk:
        a left child's right adjacent *is* its parent link) or two (joins).
        The absorber is named through ``role`` (an edge leaf's missing
        adjacent falls back to the other one)."""
        from repro.core.leave import can_depart_simply, depart_leaf

        def absorber(peer):
            links = {
                "parent": peer.parent,
                "right_adjacent": peer.right_adjacent or peer.left_adjacent,
                "left_adjacent": peer.left_adjacent or peer.right_adjacent,
            }
            return links[role].address

        leaves = {
            address: peer.position
            for address, peer in BatonNetwork.build(40, bulk=True).peers.items()
            if can_depart_simply(peer)
        }
        assert Position(5, 9) in leaves.values()  # a left child: the 9-vs-17 case
        for address in leaves:
            spent = []
            for net in (BatonNetwork.build(40, bulk=True), incremental_reference(40)):
                leaf = net.peer(address)
                with net.bus.trace("depart") as trace:
                    depart_leaf(net, leaf, absorber(leaf))
                spent.append(dict(trace.by_type))
            assert spent[0] == spent[1], f"leaf {address}: bulk vs join-grown"

    def test_bulk_sends_zero_messages(self):
        net = BatonNetwork.build(63, bulk=True)
        assert net.bus.stats.total == 0
        # ... while the protocol path necessarily pays join traffic.
        assert incremental_reference(63).bus.stats.total > 0

    def test_bulk_passes_full_invariant_check(self):
        assert collect_violations(BatonNetwork.build(100, bulk=True)) == []

    def test_requires_empty_network(self):
        net = BatonNetwork()
        net.bootstrap()
        from repro.core.bulk_build import populate_balanced

        with pytest.raises(ValueError, match="empty network"):
            populate_balanced(net, 10)

    def test_protocol_build_grows_around_keys(self):
        keys = uniform_keys(400, seed=4)
        net = BatonNetwork.build(40, keys=keys)
        held = sorted(k for peer in net.peers.values() for k in peer.store)
        assert held == sorted(keys)
        assert collect_violations(net) == []


class TestDataLoadedBuild:
    def test_keys_land_in_owners(self):
        keys = uniform_keys(5000, seed=3)
        net = BatonNetwork.build(257, keys=keys, bulk=True)
        assert collect_violations(net) == []
        placed = sorted(
            key for peer in net.peers.values() for key in peer.store
        )
        assert placed == sorted(keys)

    def test_load_is_balanced(self):
        keys = uniform_keys(5000, seed=3)
        net = BatonNetwork.build(257, keys=keys, bulk=True)
        loads = sorted(len(peer.store) for peer in net.peers.values())
        # The balanced in-order partition deals ~K/N keys to every peer —
        # leaves and interior nodes alike (the §V balancing fixpoint).
        assert loads[0] >= (5000 // 257) - 2
        assert loads[-1] <= (5000 // 257) + 3

    def test_via_network_build_and_registry(self):
        from repro import overlays

        keys = uniform_keys(500, seed=1)
        direct = BatonNetwork.build(31, bulk=True, keys=keys)
        assert sum(len(p.store) for p in direct.peers.values()) == 500
        anet = overlays.get("baton").build(31, bulk=True, keys=keys).wrap()
        assert sum(len(p.store) for p in anet.net.peers.values()) == 500


class TestKeysOutsideTheDomain:
    """A key outside ``config.domain`` has no owner: both build regimes
    refuse it by name instead of dropping it or storing it out of range."""

    @pytest.mark.parametrize(
        "keys, culprit", [([10**9 + 5, 10, 20], 10**9 + 5), ([0, -3, 10, 20], -3)]
    )
    def test_bulk_build_names_the_key(self, keys, culprit):
        with pytest.raises(ValueError, match=f"key {culprit} lies outside"):
            BatonNetwork.build(5, bulk=True, keys=keys)

    def test_grown_build_names_the_key(self):
        keys = [10**9 + 5, *range(10, 400, 7)]
        with pytest.raises(ValueError, match=f"key {10**9 + 5} lies outside"):
            BatonNetwork.build(8, keys=keys)
        with pytest.raises(ValueError, match="key -3 lies outside"):
            BatonNetwork.build(8, keys=iter([0, -3, 10, 20]))

    def test_domain_edges_are_inside(self):
        domain = Range.full_domain()
        keys = [domain.low, domain.high - 1, *range(10, 400, 7)]
        for bulk in (False, True):
            net = BatonNetwork.build(8, keys=keys, bulk=bulk)
            held = sorted(key for peer in net.peers.values() for key in peer.store)
            assert held == sorted(keys)
            assert collect_violations(net) == []


class TestSampledChecker:
    def test_clean_network_has_no_violations(self):
        net = BatonNetwork.build(500, keys=uniform_keys(5000, seed=2), bulk=True)
        assert collect_violations_sampled(net, sample_size=500) == []

    def test_sample_smaller_than_network(self):
        net = BatonNetwork.build(500, bulk=True)
        assert collect_violations_sampled(net, sample_size=32) == []

    def test_catches_range_corruption(self):
        net = BatonNetwork.build(64, bulk=True)
        victim = next(iter(net.peers.values()))
        victim.range = Range(victim.range.low, victim.range.high + 7)
        errors = collect_violations_sampled(net, sample_size=64)
        assert errors, "sampled checker missed a corrupted range"

    def test_catches_broken_adjacency(self):
        net = BatonNetwork.build(64, bulk=True)
        for peer in net.peers.values():
            if peer.right_adjacent is not None:
                peer.right_adjacent = None
                break
        assert collect_violations_sampled(net, sample_size=64)

    def test_catches_dropped_table_entry(self):
        net = BatonNetwork.build(64, bulk=True)
        for peer in net.peers.values():
            if peer.left_table.entries:
                peer.left_table.entries[0] = None
                break
        assert collect_violations_sampled(net, sample_size=64)

    def test_agrees_with_full_checker_on_misplaced_store(self):
        net = BatonNetwork.build(64, keys=uniform_keys(640, seed=5), bulk=True)
        victim = next(iter(net.peers.values()))
        victim.store.insert(victim.range.high)  # outside the owner's range
        full = collect_violations(net)
        sampled = collect_violations_sampled(net, sample_size=64)
        assert full and sampled


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_SMOKE") != "1"
    and os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="30k bulk-build smoke runs in CI's scale-smoke job",
)
def test_30k_bulk_build_smoke():
    """The bulk build at N=30k: build, sample-check, query."""
    keys = uniform_keys(300_000, seed=0)
    net = BatonNetwork.build(30_000, keys=keys, bulk=True)
    assert net.size == 30_000
    assert collect_violations_sampled(net, sample_size=2048) == []
    for key in keys[:25]:
        assert net.search_exact(key).found


# -- the build's reference ----------------------------------------------------
#
# populate_balanced before its per-peer savings: stores filled by
# ``extend`` and a re-sort, snapshots through NodeInfo's keyword
# constructor, and table rows filled slot by slot.


def reference_populate_balanced(
    net: BatonNetwork, n_peers: int, keys: Optional[List[int]] = None
) -> None:
    complete_levels, last_row = tree_shape(n_peers)
    max_level = complete_levels if last_row else complete_levels - 1
    sorted_keys = sorted(keys) if keys is not None else []

    def row_width(level: int) -> int:
        if level < complete_levels:
            return 1 << level
        return last_row if level == complete_levels else 0

    ordered = []
    for level in range(max_level + 1):
        shift = max_level - level
        for index in range(row_width(level)):
            ordered.append((((2 * index) + 1) << shift, level, index))
    ordered.sort()

    if sorted_keys:
        domain = net.config.domain
        k = len(sorted_keys)
        boundaries = [domain.low]
        for rank in range(1, n_peers):
            candidate = sorted_keys[min(rank * k // n_peers, k - 1)]
            floor = boundaries[-1] + 1
            ceiling = domain.high - (n_peers - rank)
            boundaries.append(min(max(candidate, floor), ceiling))
        boundaries.append(domain.high)
        ranges_by_level = [[None] * row_width(level) for level in range(max_level + 1)]
        spans_by_level = [[None] * row_width(level) for level in range(max_level + 1)]
        for rank, (_, level, index) in enumerate(ordered):
            low, high = boundaries[rank], boundaries[rank + 1]
            ranges_by_level[level][index] = Range(low, high)
            spans_by_level[level][index] = (
                bisect_left(sorted_keys, low),
                bisect_left(sorted_keys, high),
            )
    else:
        ranges_by_level = []
        current = [net.config.domain]
        for level in range(max_level + 1):
            next_current = []
            for child in range(row_width(level + 1)):
                parent_range = current[child // 2]
                pivot = parent_range.midpoint()
                if child % 2 == 0:
                    child_range, parent_range = parent_range.split_at(pivot)
                else:
                    parent_range, child_range = parent_range.split_at(pivot)
                current[child // 2] = parent_range
                next_current.append(child_range)
            ranges_by_level.append(current)
            current = next_current

    peers_by_level = []
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
                peer.store.extend(sorted_keys[lo:hi])

    snaps_by_level = []
    for level, row in enumerate(peers_by_level):
        below = peers_by_level[level + 1] if level < max_level else []
        snaps = []
        for index, peer in enumerate(row):
            left, right = 2 * index, 2 * index + 1
            snaps.append(
                NodeInfo(
                    address=peer.address,
                    position=peer.position,
                    range=peer.range,
                    left_child=below[left].address if left < len(below) else None,
                    right_child=below[right].address if right < len(below) else None,
                )
            )
        snaps_by_level.append(snaps)

    for level, row in enumerate(peers_by_level):
        snaps = snaps_by_level[level]
        above = snaps_by_level[level - 1] if level else []
        below = snaps_by_level[level + 1] if level < max_level else []
        for index, peer in enumerate(row):
            if level:
                peer.parent = above[index // 2]
            left, right = 2 * index, 2 * index + 1
            if left < len(below):
                peer.left_child = below[left]
            if right < len(below):
                peer.right_child = below[right]
            entries = peer.left_table.entries
            for i in range(len(entries)):
                entries[i] = snaps[index - (1 << i)]
            entries = peer.right_table.entries
            for i in range(len(entries)):
                if index + 1 + (1 << i) <= len(row):
                    entries[i] = snaps[index + (1 << i)]

    previous = None
    for _, level, index in ordered:
        peer = peers_by_level[level][index]
        if previous is not None:
            left_peer = peers_by_level[previous[0]][previous[1]]
            peer.left_adjacent = snaps_by_level[previous[0]][previous[1]]
            left_peer.right_adjacent = snaps_by_level[level][index]
        previous = (level, index)


def dataset(case: str, n_peers: int) -> Optional[List[int]]:
    """The key sets the build is pinned on: both clamp branches included."""
    top = Range.full_domain().high - 1
    if case == "none":
        return None
    if case == "uniform":
        return uniform_keys(8 * n_peers, seed=n_peers)
    if case == "duplicates":  # one value: every boundary bumps off its floor
        return [123_456_789] * (3 * n_peers)
    if case == "sparse":  # fewer keys than peers
        return uniform_keys(n_peers // 3 + 1, seed=n_peers)
    if case == "piled_at_top":  # the tail meets its ceiling
        return uniform_keys(n_peers, seed=n_peers) + [top] * (4 * n_peers)
    raise ValueError(case)


def assert_same_network(actual: BatonNetwork, expected: BatonNetwork) -> None:
    """Equal in every piece of state the build writes, orders included."""
    assert list(actual.peers) == list(expected.peers)
    assert actual.peers._pool == expected.peers._pool
    assert list(actual._positions.items()) == list(expected._positions.items())
    assert actual.bus._alive == expected.bus._alive
    assert actual.alloc._next == expected.alloc._next
    for address, want in expected.peers.items():
        got = actual.peers[address]
        assert got.address == want.address
        assert got.position == want.position
        assert got.range == want.range
        assert list(got.store) == list(want.store)
        assert got.parent == want.parent
        assert got.left_child == want.left_child
        assert got.right_child == want.right_child
        assert got.left_adjacent == want.left_adjacent
        assert got.right_adjacent == want.right_adjacent
        assert got.left_table == want.left_table
        assert got.right_table == want.right_table
        for row in (got.left_table.entries, got.right_table.entries, got.store._keys):
            assert sys.getsizeof(row) == sys.getsizeof([None] * len(row))


class TestBuildAgainstReference:
    """The build writes exactly the reference's network, and shares one
    snapshot per peer as the reference did."""

    @pytest.mark.parametrize("n_peers", [1, 2, 3, 7, 64, 257, 1000, 10_000])
    @pytest.mark.parametrize(
        "case", ["none", "uniform", "duplicates", "sparse", "piled_at_top"]
    )
    def test_same_network(self, n_peers, case):
        keys = dataset(case, n_peers)
        expected = BatonNetwork(seed=3)
        reference_populate_balanced(expected, n_peers, keys=keys)
        actual = BatonNetwork(seed=3)
        populate_balanced(actual, n_peers, keys=keys)
        assert_same_network(actual, expected)
        linked = {
            id(info) for peer in actual.peers.values() for _, info in peer.iter_links()
        }
        assert len(linked) <= n_peers

    def test_entry_point_draws_match(self):
        keys = dataset("uniform", 300)
        expected = BatonNetwork(seed=9)
        reference_populate_balanced(expected, 300, keys=keys)
        actual = BatonNetwork(seed=9)
        populate_balanced(actual, 300, keys=keys)
        assert [actual.random_peer_address() for _ in range(50)] == [
            expected.random_peer_address() for _ in range(50)
        ]
