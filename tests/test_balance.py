"""Protocol tests: load balancing (§IV-D)."""

import pytest

from repro.core import BatonConfig, BatonNetwork, LoadBalanceConfig, check_invariants
from repro.core.balance import maybe_balance
from repro.workloads.generators import ZipfianKeys, uniform_keys

from tests.conftest import make_network


def balanced_net(n_peers=30, capacity=20, seed=4) -> BatonNetwork:
    config = BatonConfig(balance=LoadBalanceConfig(capacity=capacity, enabled=True))
    net = BatonNetwork.build(n_peers, seed=seed, config=config)
    check_invariants(net)
    return net


class TestTriggering:
    def test_disabled_config_is_noop(self):
        config = BatonConfig(balance=LoadBalanceConfig(enabled=False))
        net = BatonNetwork.build(10, seed=1, config=config)
        owner = net.random_peer_address()
        for _ in range(500):
            net.peer(owner).store.insert(5)
        assert maybe_balance(net, owner) is None

    def test_below_capacity_is_noop(self):
        net = balanced_net(capacity=100)
        owner = net.random_peer_address()
        assert maybe_balance(net, owner) is None

    def test_overload_triggers_event(self):
        net = balanced_net(n_peers=30, capacity=10)
        overloaded = next(a for a, p in net.peers.items() if p.is_leaf)
        peer = net.peer(overloaded)
        low, high = peer.range.low, peer.range.high
        for i in range(30):
            peer.store.insert(low + i % max(1, high - low - 1))
        outcome = maybe_balance(net, overloaded)
        assert outcome is not None
        assert outcome.trace.total > 0
        assert net.stats.balance_events
        check_invariants(net)


class TestAdjacentBalancing:
    def test_keys_and_boundary_move(self):
        net = balanced_net(n_peers=20, capacity=10)
        overloaded = next(
            a
            for a, p in net.peers.items()
            if not p.is_leaf and p.right_adjacent is not None
        )
        peer = net.peer(overloaded)
        span = peer.range
        for i in range(40):
            peer.store.insert(span.low + (i % max(1, span.width - 1)))
        size_before = len(peer.store)
        outcome = maybe_balance(net, overloaded)
        assert outcome is not None
        assert outcome.kind == "adjacent"
        assert len(peer.store) < size_before
        check_invariants(net)

    def test_duplicate_heavy_store_cannot_split(self):
        # A store of identical keys cannot place a boundary between copies.
        net = balanced_net(n_peers=16, capacity=5)
        internal = next(a for a, p in net.peers.items() if not p.is_leaf)
        peer = net.peer(internal)
        for _ in range(30):
            peer.store.insert(peer.range.low)
        outcome = maybe_balance(net, internal)
        # either nothing happened or invariants survived the attempt
        check_invariants(net)


class TestRejoinBalancing:
    def test_skewed_stream_recruits_leaves(self):
        net = balanced_net(n_peers=40, capacity=15, seed=7)
        gen = ZipfianKeys(theta=1.0, seed=99)
        for _ in range(1500):
            net.insert(gen.draw())
        kinds = {event.kind for event in net.stats.balance_events}
        assert "rejoin" in kinds, "skew must eventually force leaf recruitment"
        check_invariants(net)

    def test_uniform_stream_rarely_balances(self):
        net = balanced_net(n_peers=40, capacity=60, seed=8)
        for key in uniform_keys(1200, seed=5):
            net.insert(key)
        rejoins = [e for e in net.stats.balance_events if e.kind == "rejoin"]
        skewed = balanced_net(n_peers=40, capacity=60, seed=8)
        gen = ZipfianKeys(theta=1.0, seed=5)
        for _ in range(1200):
            skewed.insert(gen.draw())
        skewed_rejoins = [
            e for e in skewed.stats.balance_events if e.kind == "rejoin"
        ]
        assert len(skewed.stats.balance_events) >= len(net.stats.balance_events)
        check_invariants(net)
        check_invariants(skewed)

    def test_balance_events_record_messages_and_shifts(self):
        net = balanced_net(n_peers=40, capacity=10, seed=9)
        gen = ZipfianKeys(theta=1.0, seed=3)
        for _ in range(800):
            net.insert(gen.draw())
        assert net.stats.balance_events
        for event in net.stats.balance_events:
            assert event.messages > 0
            assert event.shift_size >= 0

    def test_no_data_lost_during_balancing(self):
        net = balanced_net(n_peers=30, capacity=12, seed=10)
        gen = ZipfianKeys(theta=1.0, seed=11)
        inserted = [gen.draw() for _ in range(1000)]
        for key in inserted:
            net.insert(key)
        stored = sorted(k for p in net.peers.values() for k in p.store)
        assert stored == sorted(inserted)
        check_invariants(net)
