"""Tests for the BatonNetwork facade: construction, bookkeeping, bulk load."""

import pytest

from repro.core import BatonConfig, BatonNetwork, LoadBalanceConfig
from repro.core.ranges import Range
from repro.util.errors import NetworkEmptyError

from tests.conftest import leftmost_peer, make_network, rightmost_peer


class TestConstruction:
    def test_build_convenience(self):
        net = BatonNetwork.build(25, seed=1)
        assert net.size == 25

    def test_build_rejects_zero(self):
        with pytest.raises(ValueError):
            BatonNetwork.build(0)

    def test_same_seed_same_topology(self):
        a = BatonNetwork.build(40, seed=9)
        b = BatonNetwork.build(40, seed=9)
        assert {p.position for p in a.peers.values()} == {
            p.position for p in b.peers.values()
        }


class TestBookkeeping:
    def test_random_peer_on_empty_raises(self):
        with pytest.raises(NetworkEmptyError):
            BatonNetwork(seed=0).random_peer_address()

    def test_leftmost_rightmost(self, net100):
        leftmost = leftmost_peer(net100)
        rightmost = rightmost_peer(net100)
        assert leftmost.range.low == net100.config.domain.low
        assert rightmost.range.high == net100.config.domain.high
        assert leftmost.left_adjacent is None
        assert rightmost.right_adjacent is None

    def test_load_snapshot(self, net20):
        net20.insert(123_456)
        assert sum(len(peer.store) for peer in net20.peers.values()) == 1

    def test_addresses_matches_peers(self, net20):
        assert set(net20.addresses()) == set(net20.peers)


class TestBulkLoad:
    def test_bulk_load_places_in_owner_ranges(self, net100, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(500)]
        placed = net100.bulk_load(keys)
        assert placed == len(keys)
        for peer in net100.peers.values():
            for key in peer.store:
                assert peer.range.contains(key)

    def test_bulk_load_skips_out_of_domain(self):
        config = BatonConfig(domain=Range(100, 200))
        net = BatonNetwork.build(5, seed=1, config=config)
        placed = net.bulk_load([50, 150, 250])
        assert placed == 1

    def test_bulk_load_equals_routed_inserts(self, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(100)]
        bulk = make_network(30, seed=5)
        routed = make_network(30, seed=5)
        bulk.bulk_load(keys)
        for key in keys:
            routed.insert(key)
        bulk_contents = {
            peer.position: list(peer.store) for peer in bulk.peers.values()
        }
        routed_contents = {
            peer.position: list(peer.store) for peer in routed.peers.values()
        }
        assert bulk_contents == routed_contents


class TestUpdateChannel:
    def test_immediate_mode_never_queues(self, net20):
        net20.leave(next(a for a, p in net20.peers.items() if p.is_leaf))
        assert net20.updates.pending_count == 0
