"""Protocol tests: node failure and repair (§III-C, §III-D)."""

import pytest

from repro.core import BatonNetwork, check_invariants
from repro.core import collect_violations
from repro.core.leave import can_depart_simply
from repro.util.errors import PeerNotFoundError

from tests.conftest import make_network


class TestFailure:
    def test_failed_peer_unreachable(self, net20):
        victim = net20.random_peer_address()
        net20.fail(victim)
        with pytest.raises(PeerNotFoundError):
            net20.peer(victim)
        assert victim in net20.ghosts

    def test_fail_unknown_address_raises(self, net20):
        with pytest.raises(PeerNotFoundError):
            net20.fail(99999)

    def test_stats_track_failures(self, net20):
        before = net20.stats.failures
        net20.fail(net20.random_peer_address())
        assert net20.stats.failures == before + 1


class TestRoutingAroundFailures:
    def test_searches_survive_single_failure(self, net100, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(200)]
        net100.bulk_load(keys)
        victim = net100.random_peer_address()
        lost = set(net100.peer(victim).store)
        net100.fail(victim)
        for key in rng.sample(keys, 50):
            result = net100.search_exact(key)
            if key not in lost:
                assert result.found, key

    def test_degraded_queries_cost_more(self, net100, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(300)]
        net100.bulk_load(keys)
        sample = rng.sample(keys, 80)
        healthy = sum(net100.search_exact(k).trace.total for k in sample)
        for _ in range(8):
            net100.fail(net100.random_peer_address())
        degraded = sum(net100.search_exact(k).trace.total for k in sample)
        assert degraded >= healthy

    def test_range_queries_partial_during_outage(self, net100, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(200)]
        net100.bulk_load(keys)
        net100.fail(net100.random_peer_address())
        result = net100.search_range(1, 10**9)  # must not raise
        assert result.keys  # partial answers still flow


class TestRepair:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repair_leaf_failure(self, seed):
        net = make_network(50, seed=seed)
        leaf = next(a for a, p in net.peers.items() if p.is_leaf)
        net.fail(leaf)
        result = net.repair(leaf)
        assert result.trace.total > 0
        check_invariants(net)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repair_internal_failure(self, seed):
        net = make_network(50, seed=seed)
        internal = next(
            a for a, p in net.peers.items() if not p.is_leaf and p.parent is not None
        )
        net.fail(internal)
        result = net.repair(internal)
        assert result.replacement is not None
        check_invariants(net)

    def test_repair_drops_simply_departable_leaf(self):
        # A leaf that could leave gracefully without restructuring has its
        # slot dropped on repair: nobody moves in, the tree shrinks by one.
        net = make_network(50, seed=0)
        leaf = next(
            a for a, p in net.peers.items() if p.is_leaf and can_depart_simply(p)
        )
        position = net.peer(leaf).position
        net.fail(leaf)
        result = net.repair(leaf)
        assert result.replacement is None
        assert net.size == 49
        assert all(p.position != position for p in net.peers.values())
        check_invariants(net)

    def test_repair_replaces_leaf_that_cannot_depart_simply(self):
        # Dropping a leaf whose sideways neighbours have children would
        # unbalance the tree, so repair moves a replacement into its slot.
        net = make_network(50, seed=0)
        leaf = next(
            a
            for a, p in net.peers.items()
            if p.is_leaf and not can_depart_simply(p)
        )
        position = net.peer(leaf).position
        net.fail(leaf)
        result = net.repair(leaf)
        assert result.replacement is not None
        assert net.peer(result.replacement).position == position
        check_invariants(net)

    def test_repair_root_failure(self):
        net = make_network(50, seed=5)
        root = next(a for a, p in net.peers.items() if p.parent is None)
        net.fail(root)
        result = net.repair(root)
        assert result.replacement is not None
        check_invariants(net)

    def test_repair_restores_range_partition_without_data(self, net100, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(300)]
        net100.bulk_load(keys)
        victim = net100.random_peer_address()
        lost = sorted(net100.peer(victim).store)
        net100.fail(victim)
        net100.repair(victim)
        check_invariants(net100)
        remaining = sorted(k for p in net100.peers.values() for k in p.store)
        expected = sorted(keys)
        for key in lost:
            expected.remove(key)
        assert remaining == expected  # §III-C: range restored, data lost

    def test_repair_singleton(self):
        net = BatonNetwork(seed=0)
        root = net.bootstrap()
        net.fail(root)
        result = net.repair(root)
        assert result.replacement is None
        assert net.size == 0

    def test_repair_unknown_failure_raises(self, net20):
        with pytest.raises(PeerNotFoundError):
            net20.repair(4242)

    def test_repair_all_handles_concurrent_failures(self):
        net = make_network(120, seed=6)
        import random

        mix = random.Random(9)
        for _ in range(12):
            net.fail(mix.choice(net.addresses()))
            net.join()
        net.repair_all()
        assert not net.ghosts
        check_invariants(net)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_fail_join_query_repair_cycles(self, seed):
        net = make_network(80, seed=seed)
        import random

        mix = random.Random(100 + seed)
        for _ in range(6):
            net.fail(mix.choice(net.addresses()))
            net.join()
            net.search_exact(mix.randint(1, 10**9 - 1))
        net.repair_all()
        assert collect_violations(net) == []
