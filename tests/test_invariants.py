"""Tests for the invariant checker itself: it must catch seeded corruption."""

import pytest

from repro.core import BatonNetwork, check_invariants, collect_violations, tree_height
from repro.core.ids import Position
from repro.core import invariants
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

    def test_height_and_balance_read_each_slot_a_bounded_number_of_times(
        self, monkeypatch
    ):
        """One post-order pass serves both: tree_height plus the balance
        check read the position map O(N) times, where a recursion per slot
        re-walked every subtree (about 22·N reads at N=4096)."""
        net = BatonNetwork.build(4096, bulk=True)
        reads = 0
        occupant, occupied_positions = net.occupant, net.occupied_positions

        def counted_occupant(position):
            nonlocal reads
            reads += 1
            return occupant(position)

        def counted_occupied_positions():
            nonlocal reads
            for slot in occupied_positions():
                reads += 1
                yield slot

        monkeypatch.setattr(net, "occupant", counted_occupant)
        monkeypatch.setattr(net, "occupied_positions", counted_occupied_positions)
        assert tree_height(net) == 13  # 4095 peers fill levels 0-11
        assert invariants._check_balance(net) == []
        assert reads <= 3 * net.size + 16

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


def recursive_height(net, position) -> int:
    """Height of the occupied subtree under ``position``, one recursion per
    slot: the reference the one-pass ``_heights`` must agree with."""
    if net.occupant(position) is None:
        return 0
    return 1 + max(
        recursive_height(net, position.left_child()),
        recursive_height(net, position.right_child()),
    )


def churned_network(seed: int) -> BatonNetwork:
    net = make_network(60, seed=seed)
    for _ in range(20):
        net.leave(net.random_peer_address())
    return net


class TestHeights:
    def test_tree_height_of_empty_network_is_zero(self):
        assert tree_height(BatonNetwork(seed=0)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 1000])
    def test_bulk_tree_height_is_bit_length(self, n):
        # The bulk build fills levels top-down, left to right.
        assert tree_height(BatonNetwork.build(n, bulk=True)) == n.bit_length()

    @pytest.mark.parametrize("n, seed", [(10, 0), (33, 1), (77, 3), (150, 4)])
    def test_heights_match_a_per_slot_recursion(self, n, seed):
        net = make_network(n, seed=seed)
        heights = invariants._heights(net)
        assert heights == {
            position: recursive_height(net, position)
            for position, _ in net.occupied_positions()
        }
        assert tree_height(net) == recursive_height(net, Position(0, 1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heights_match_a_per_slot_recursion_after_churn(self, seed):
        net = churned_network(seed)
        assert net.size == 40
        heights = invariants._heights(net)
        assert heights == {
            position: recursive_height(net, position)
            for position, _ in net.occupied_positions()
        }
        assert collect_violations(net) == []

    def test_heights_cover_exactly_the_occupied_slots(self):
        net = make_network(50, seed=5)
        heights = invariants._heights(net)
        assert set(heights) == {position for position, _ in net.occupied_positions()}
        for peer in net.peers.values():
            assert (heights[peer.position] == 1) == peer.is_leaf

    def test_balance_accepts_a_height_difference_of_one(self):
        net = BatonNetwork(seed=0)
        net.bootstrap()
        net.join()  # the root gains one child: subtree heights 1 vs 0
        heights = invariants._heights(net)
        assert heights[Position(0, 1)] == 2
        assert invariants._check_balance(net) == []


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

    def test_detects_imbalance(self):
        net = make_network(20, seed=1)
        leaf = max(net.peers.values(), key=lambda p: p.position.level)
        code = leaf.position.code
        net._positions[2 * code] = net._positions[4 * code] = leaf.address
        violations = collect_violations(net)
        assert f"imbalance at {leaf.position}: subtree heights 2 vs 0" in violations

    def test_detects_imbalance_on_the_right(self):
        net = make_network(20, seed=1)
        leaf = max(net.peers.values(), key=lambda p: p.position.level)
        code = leaf.position.code
        net._positions[2 * code + 1] = net._positions[4 * code + 3] = leaf.address
        violations = collect_violations(net)
        assert f"imbalance at {leaf.position}: subtree heights 0 vs 2" in violations

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
