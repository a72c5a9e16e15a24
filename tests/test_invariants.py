"""Tests for the invariant checker itself: it must catch seeded corruption."""

import pytest

from repro.core import BatonNetwork, check_invariants, collect_violations, tree_height
from repro.core.ids import Position
from repro.core.ranges import Range
from repro.util.errors import InvariantViolation

from tests.conftest import make_network


class TestCleanNetworks:
    def test_empty_network_has_no_violations(self):
        net = BatonNetwork(seed=0)
        assert collect_violations(net) == []

    def test_singleton_clean(self):
        net = BatonNetwork(seed=0)
        net.bootstrap()
        assert collect_violations(net) == []

    def test_built_network_clean(self):
        assert collect_violations(make_network(77, seed=3)) == []

    def test_tree_height_of_singleton(self):
        net = BatonNetwork(seed=0)
        net.bootstrap()
        assert tree_height(net) == 1


class TestDetection:
    def test_detects_range_corruption(self):
        net = make_network(20, seed=1)
        peer = net.peer(net.random_peer_address())
        peer.range = Range(peer.range.low, peer.range.high + 10)
        violations = collect_violations(net)
        assert violations
        with pytest.raises(InvariantViolation):
            check_invariants(net)

    def test_detects_broken_adjacency(self):
        net = make_network(20, seed=1)
        peers = list(net.peers.values())
        a = next(p for p in peers if p.left_adjacent is not None)
        a.left_adjacent = None
        assert any("adjacent" in v for v in collect_violations(net))

    def test_detects_stale_link_info(self):
        net = make_network(20, seed=1)
        peer = next(p for p in net.peers.values() if p.parent is not None)
        peer.parent = peer.parent._replace(range=Range(0, 1))
        assert any("stale range" in v for v in collect_violations(net))

    def test_detects_missing_table_entry(self):
        net = make_network(40, seed=2)
        peer = next(
            p
            for p in net.peers.values()
            if any(info for _, info in p.left_table.occupied())
        )
        index, _ = next(iter(p for p in [list(peer.left_table.occupied())[0]]))[0:2]
        peer.left_table.set(index, None)
        assert any("misses occupied slot" in v for v in collect_violations(net))

    def test_detects_theorem1_break(self):
        net = make_network(40, seed=2)
        internal = next(
            p
            for p in net.peers.values()
            if not p.is_leaf and list(p.left_table.occupied())
        )
        for idx in internal.left_table.valid_indices():
            internal.left_table.set(idx, None)
        violations = collect_violations(net)
        assert any("incomplete routing tables" in v for v in violations)

    def test_detects_ghosts(self):
        net = make_network(20, seed=1)
        net.fail(net.random_peer_address())
        assert any("ghost" in v for v in collect_violations(net))

    def test_detects_position_map_drift(self):
        net = make_network(20, seed=1)
        peer = net.peer(net.random_peer_address())
        bogus = Position(12, 1)
        net._positions[bogus.code] = peer.address
        violations = collect_violations(net)
        assert violations

    def test_detects_store_out_of_range(self):
        net = make_network(20, seed=1)
        peer = net.peer(net.random_peer_address())
        peer.store.insert(peer.range.high + 100)
        assert any("outside" in v for v in collect_violations(net))

    def test_error_message_lists_violations(self):
        net = make_network(20, seed=1)
        peer = net.peer(net.random_peer_address())
        peer.store.insert(peer.range.high + 100)
        with pytest.raises(InvariantViolation, match="violation"):
            check_invariants(net)
