"""Protocol tests: insert and delete (§IV-C), including range expansion."""

import pytest

from repro.core import BatonConfig, BatonNetwork, check_invariants
from repro.core.ranges import Range
from repro.net.message import MsgType

from tests.conftest import leftmost_peer, make_network, rightmost_peer


class TestInsertDelete:
    def test_insert_then_search(self, net20):
        net20.insert(777_777)
        assert net20.search_exact(777_777).found

    def test_insert_lands_in_owner_range(self, net100, rng):
        for _ in range(50):
            key = rng.randint(1, 10**9 - 1)
            result = net100.insert(key)
            assert net100.peer(result.owner).range.contains(key)

    def test_delete_removes_exactly_one(self, net20):
        net20.insert(5_000)
        net20.insert(5_000)
        assert net20.delete(5_000).applied
        assert net20.search_exact(5_000).found
        assert net20.delete(5_000).applied
        assert not net20.search_exact(5_000).found

    def test_delete_missing_not_applied(self, net20):
        assert not net20.delete(123).applied

    def test_insert_messages_tagged(self, net20):
        result = net20.insert(42_000_000)
        assert result.trace.total == result.trace.count(MsgType.INSERT)

    def test_delete_messages_tagged(self, net20):
        net20.insert(42_000_000)
        result = net20.delete(42_000_000)
        assert result.trace.total == result.trace.count(MsgType.DELETE)

    def test_costs_comparable_to_search(self, net100, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(100)]
        insert_costs = [net100.insert(k).trace.total for k in keys]
        search_costs = [net100.search_exact(k).trace.total for k in keys]
        assert abs(
            sum(insert_costs) / len(keys) - sum(search_costs) / len(keys)
        ) <= 1.0


class TestRangeExpansion:
    def narrow_net(self, n_peers=12) -> BatonNetwork:
        config = BatonConfig(domain=Range(1000, 2000))
        net = BatonNetwork.build(n_peers, seed=3, config=config)
        check_invariants(net)
        return net

    def test_insert_below_domain_expands_leftmost(self):
        net = self.narrow_net()
        result = net.insert(10)
        owner = net.peer(result.owner)
        assert owner is leftmost_peer(net)
        assert owner.range.contains(10)
        assert net.search_exact(10).found
        check_invariants(net)

    def test_insert_above_domain_expands_rightmost(self):
        net = self.narrow_net()
        result = net.insert(5000)
        owner = net.peer(result.owner)
        assert owner is rightmost_peer(net)
        assert owner.range.contains(5000)
        assert net.search_exact(5000).found
        check_invariants(net)

    def test_expansion_notifies_linkers(self):
        net = self.narrow_net()
        result = net.insert(5)
        # routing plus the log N table refresh the paper charges
        assert result.trace.count(MsgType.TABLE_UPDATE) >= 1

    def test_repeated_expansions(self):
        net = self.narrow_net()
        for key in (10, 5, 2, 5000, 9999):
            net.insert(key)
            check_invariants(net)
        assert net.search_exact(2).found
        assert net.search_exact(9999).found


class TestBalanceWiring:
    def test_insert_reports_balance_outcome(self):
        from tests.conftest import balanced_config

        net = BatonNetwork.build(10, seed=2, config=balanced_config(capacity=5))
        triggered = False
        for key in range(100, 400):
            result = net.insert(key)
            if result.balance_trace is not None:
                triggered = True
                assert result.balance_trace.total > 0
                assert result.total_messages >= result.trace.total
                break
        assert triggered, "capacity 5 must trigger balancing within 300 inserts"
