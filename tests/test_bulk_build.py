"""Bulk balanced build: equivalence with the join protocol, data loading,
and the sampled invariant checker that makes 100k-peer sanity affordable.

The heart of the construction contract (DESIGN.md): the bulk path is only
trustworthy because it is pinned link-for-link against Algorithm 1 driven
in the same canonical order, at every small N where running the protocol
is cheap.
"""

import os

import pytest

from repro.core.bulk_build import bulk_build, incremental_reference, tree_shape
from repro.core.ids import Position
from repro.core.invariants import (
    collect_violations,
    collect_violations_sampled,
)
from repro.core.network import BatonNetwork
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
        bulk = bulk_build(n_peers)
        grown = incremental_reference(n_peers)
        assert_networks_identical(bulk, grown)

    @pytest.mark.parametrize(
        "content_target", ["right_adjacent", "left_adjacent", "parent"]
    )
    def test_same_departure_costs_the_same_messages(self, content_target):
        """Equal links must mean equal behaviour: what a departure spends
        may not depend on whether two equal snapshots are one object (bulk:
        a left child's right adjacent *is* its parent link) or two (joins)."""
        from repro.core.leave import can_depart_simply, depart_leaf

        leaves = {
            address: peer.position
            for address, peer in bulk_build(40).peers.items()
            if can_depart_simply(peer)
        }
        assert Position(5, 9) in leaves.values()  # a left child: the 9-vs-17 case
        for address in leaves:
            spent = []
            for net in (bulk_build(40), incremental_reference(40)):
                with net.bus.trace("depart") as trace:
                    depart_leaf(net, net.peer(address), content_target=content_target)
                spent.append(dict(trace.by_type))
            assert spent[0] == spent[1], f"leaf {address}: bulk vs join-grown"

    def test_bulk_sends_zero_messages(self):
        net = bulk_build(63)
        assert net.bus.stats.total == 0
        # ... while the protocol path necessarily pays join traffic.
        assert incremental_reference(63).bus.stats.total > 0

    def test_bulk_passes_full_invariant_check(self):
        assert collect_violations(bulk_build(100)) == []

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
        net = bulk_build(257, keys=keys)
        assert collect_violations(net) == []
        placed = sorted(
            key for peer in net.peers.values() for key in peer.store
        )
        assert placed == sorted(keys)

    def test_load_is_balanced(self):
        keys = uniform_keys(5000, seed=3)
        net = bulk_build(257, keys=keys)
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
        anet = overlays.get("baton").build_async(31, bulk=True, keys=keys)
        assert sum(len(p.store) for p in anet.net.peers.values()) == 500


class TestSampledChecker:
    def test_clean_network_has_no_violations(self):
        net = bulk_build(500, keys=uniform_keys(5000, seed=2))
        assert collect_violations_sampled(net, sample_size=500) == []

    def test_sample_smaller_than_network(self):
        net = bulk_build(500)
        assert collect_violations_sampled(net, sample_size=32) == []

    def test_catches_range_corruption(self):
        net = bulk_build(64)
        victim = next(iter(net.peers.values()))
        victim.range = Range(victim.range.low, victim.range.high + 7)
        errors = collect_violations_sampled(net, sample_size=64)
        assert errors, "sampled checker missed a corrupted range"

    def test_catches_broken_adjacency(self):
        net = bulk_build(64)
        for peer in net.peers.values():
            if peer.right_adjacent is not None:
                peer.right_adjacent = None
                break
        assert collect_violations_sampled(net, sample_size=64)

    def test_catches_dropped_table_entry(self):
        net = bulk_build(64)
        for peer in net.peers.values():
            if peer.left_table.entries:
                peer.left_table.entries[0] = None
                break
        assert collect_violations_sampled(net, sample_size=64)

    def test_budget_stops_early_without_error(self):
        net = bulk_build(500)
        assert collect_violations_sampled(net, budget_s=0.0001) == []

    def test_agrees_with_full_checker_on_misplaced_store(self):
        net = bulk_build(64, keys=uniform_keys(640, seed=5))
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
    net = bulk_build(30_000, keys=keys)
    assert net.size == 30_000
    assert collect_violations_sampled(net, sample_size=2048) == []
    for key in keys[:25]:
        assert net.search_exact(key).found
