"""Tests for the invariant checker itself: it must catch seeded corruption."""

import pytest

from repro.core import BatonNetwork, check_invariants, collect_violations, tree_height
from repro.core.ids import Position
from repro.core.invariants import collect_violations_sampled
from repro.core.network import BatonConfig
from repro.core.ranges import Range
from repro.util.errors import InvariantViolation

from tests.conftest import make_network


# -- seeded corruptions, each returning the corrupted network ------------------


def widened_range():
    net = make_network(20, seed=1)
    peer = net.peer(net.random_peer_address())
    peer.range = Range(peer.range.low, peer.range.high + 10)
    return net


def dropped_left_adjacent():
    net = make_network(20, seed=1)
    next(p for p in net.peers.values() if p.left_adjacent is not None).left_adjacent = None
    return net


def stale_parent_range():
    net = make_network(20, seed=1)
    peer = next(p for p in net.peers.values() if p.parent is not None)
    peer.parent = peer.parent._replace(range=Range(0, 1))
    return net


def dropped_table_entry():
    net = make_network(40, seed=2)
    peer = next(p for p in net.peers.values() if any(p.left_table.occupied()))
    index, _ = next(peer.left_table.occupied())
    peer.left_table.set(index, None)
    return net


def emptied_internal_table():
    net = make_network(40, seed=2)
    internal = next(
        p for p in net.peers.values() if not p.is_leaf and any(p.left_table.occupied())
    )
    for index in internal.left_table.valid_indices():
        internal.left_table.set(index, None)
    return net


def failed_peer():
    net = make_network(20, seed=1)
    net.fail(net.random_peer_address())
    return net


def stray_key():
    net = make_network(20, seed=1)
    peer = net.peer(net.random_peer_address())
    peer.store.insert(peer.range.high + 100)
    return net


def bogus_map_slot():
    net = make_network(20, seed=1)
    net._positions[Position(12, 1).code] = net.random_peer_address()
    return net


#: Corruptions some single peer can see, so the sampled checker must too.
PER_PEER_CORRUPTIONS = [
    widened_range,
    dropped_left_adjacent,
    stale_parent_range,
    dropped_table_entry,
    emptied_internal_table,
    failed_peer,
    stray_key,
]


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

    def test_extreme_range_expansion_is_legal(self):
        # §IV-C: a key beyond the domain stretches the extreme range past
        # the edge; both checkers accept it.
        net = BatonNetwork.build(
            12, seed=3, config=BatonConfig(domain=Range(1000, 2000))
        )
        net.insert(10)
        net.insert(5000)
        assert min(peer.range.low for peer in net.peers.values()) <= 10
        assert max(peer.range.high for peer in net.peers.values()) > 5000
        assert collect_violations(net) == []
        assert collect_violations_sampled(net) == []


class TestDetection:
    def test_detects_range_corruption(self):
        net = widened_range()
        violations = collect_violations(net)
        assert violations
        with pytest.raises(InvariantViolation):
            check_invariants(net)

    def test_detects_broken_adjacency(self):
        assert any("adjacent" in v for v in collect_violations(dropped_left_adjacent()))

    def test_detects_stale_link_info(self):
        assert any("stale range" in v for v in collect_violations(stale_parent_range()))

    def test_detects_missing_table_entry(self):
        violations = collect_violations(dropped_table_entry())
        assert any("misses occupied slot" in v for v in violations)

    def test_detects_theorem1_break(self):
        violations = collect_violations(emptied_internal_table())
        assert any("incomplete routing tables" in v for v in violations)

    def test_detects_ghosts(self):
        assert any("ghost" in v for v in collect_violations(failed_peer()))

    def test_detects_position_map_drift(self):
        assert collect_violations(bogus_map_slot())

    def test_detects_store_out_of_range(self):
        assert any("outside" in v for v in collect_violations(stray_key()))

    def test_detects_leftmost_range_short_of_domain(self):
        # Key domain.low has no owner; reconcile() refreshes every link
        # snapshot, so only the domain-edge check can see it.
        net = BatonNetwork.build(16, seed=1, bulk=True)
        leftmost = next(p for p in net.peers.values() if p.left_adjacent is None)
        leftmost.range = Range(leftmost.range.low + 1, leftmost.range.high)
        net.reconcile()
        assert any("leftmost" in v for v in collect_violations(net))
        assert any("leftmost" in v for v in collect_violations_sampled(net))

    def test_detects_gap_behind_a_stale_adjacent_link(self):
        # With its left link gone, a peer's own splice check reads the
        # domain edge, not the in-order predecessor whose range no longer
        # meets its own; the in-order walk must still report that gap.
        net = make_network(20, seed=1)
        peer = next(p for p in net.peers.values() if p.left_adjacent is not None)
        peer.range = Range(peer.range.low + 1, peer.range.high)
        peer.left_adjacent = None
        violations = collect_violations(net)
        assert any(v.startswith(f"range gap/overlap before {peer.position}") for v in violations)

    def test_error_message_lists_violations(self):
        with pytest.raises(InvariantViolation, match="violation"):
            check_invariants(stray_key())


class TestAgreement:
    @pytest.mark.parametrize("corrupt", PER_PEER_CORRUPTIONS, ids=lambda f: f.__name__)
    def test_full_sample_sees_what_the_full_checker_sees(self, corrupt):
        net = corrupt()
        sampled = collect_violations_sampled(net, sample_size=net.size)
        assert sampled
        assert set(sampled) <= set(collect_violations(net))
