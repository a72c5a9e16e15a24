"""Tests for the multiway-tree baseline (repro.multiway)."""

import pytest

from repro.multiway import MultiwayConfig, MultiwayNetwork
from repro.net.message import MsgType
from repro.workloads.generators import uniform_keys, zipfian_keys


def check_structure(net: MultiwayNetwork) -> None:
    """Local structural invariants of the multiway tree."""
    for address, node in net.peers.items():
        if node.parent is not None:
            parent = net.peers[node.parent]
            link = parent.child_link_to(address)
            assert link is not None, f"{address} missing from parent's children"
            assert link.coverage.low <= node.range.low
            assert node.range.high <= link.coverage.high
        for child_link in node.children:
            assert child_link.address in net.peers
            assert net.peers[child_link.address].parent == address
        for neighbor in (node.left_neighbor, node.right_neighbor):
            assert neighbor is None or neighbor in net.peers
        if node.right_neighbor is not None:
            assert net.peers[node.right_neighbor].left_neighbor == address
    # own ranges partition the domain
    owned = sorted(
        (n.range.low, n.range.high) for n in net.peers.values()
    )
    for (low_a, high_a), (low_b, _) in zip(owned, owned[1:]):
        assert high_a == low_b, "own ranges must tile the domain"


class TestConstruction:
    def test_build(self):
        net = MultiwayNetwork.build(50, seed=1)
        assert net.size == 50
        check_structure(net)

    def test_fanout_respected(self):
        config = MultiwayConfig(fanout=3)
        net = MultiwayNetwork.build(60, seed=2, config=config)
        assert all(len(n.children) <= 3 for n in net.peers.values())

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            MultiwayConfig(fanout=1)

    def test_small_fanout_builds_deeper_tree(self):
        shallow = MultiwayNetwork.build(200, seed=3, config=MultiwayConfig(fanout=16))
        deep = MultiwayNetwork.build(200, seed=3, config=MultiwayConfig(fanout=2))
        assert deep.depth() >= shallow.depth()


class TestSearch:
    def test_exact_search_correct(self):
        net = MultiwayNetwork.build(60, seed=4)
        keys = uniform_keys(200, seed=1)
        net.bulk_load(keys)
        for key in keys[:100]:
            result = net.search_exact(key)
            assert result.found

    def test_search_from_every_node(self):
        net = MultiwayNetwork.build(25, seed=5)
        keys = uniform_keys(50, seed=2)
        net.bulk_load(keys)
        for start in sorted(net.peers):
            assert net.search_exact(keys[0], via=start).found

    def test_search_costs_more_than_height(self):
        # No sideways tables: horizontal walks make searches expensive —
        # the Fig 8(d) contrast.
        net = MultiwayNetwork.build(150, seed=6)
        keys = uniform_keys(150, seed=3)
        net.bulk_load(keys)
        costs = [net.search_exact(k).trace.total for k in keys]
        assert sum(costs) / len(costs) > net.depth() / 2

    def test_range_query_complete(self):
        net = MultiwayNetwork.build(60, seed=7)
        keys = uniform_keys(300, seed=4)
        net.bulk_load(keys)
        result = net.search_range(2 * 10**8, 6 * 10**8)
        assert result.keys == sorted(k for k in keys if 2 * 10**8 <= k < 6 * 10**8)

    def test_range_query_rejects_empty(self):
        net = MultiwayNetwork.build(10, seed=8)
        with pytest.raises(ValueError):
            net.search_range(5, 5)


class TestDataOps:
    def test_insert_delete_roundtrip(self):
        net = MultiwayNetwork.build(40, seed=9)
        for key in uniform_keys(100, seed=5):
            net.insert(key)
            assert net.search_exact(key).found
            assert net.delete(key).applied
            assert not net.search_exact(key).found

    def test_out_of_domain_insert_expands_root(self):
        from repro.core.ranges import Range

        config = MultiwayConfig(domain=Range(100, 200))
        net = MultiwayNetwork.build(10, seed=10, config=config)
        net.insert(500)
        assert net.search_exact(500).found

    @pytest.mark.parametrize("side", ("above", "below"))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_out_of_domain_insert_keeps_the_tiling(self, seed, side):
        """A key above the domain lands at the top segment's owner, whose
        range and coverage chain widen (each link paid); one below widens
        the root, whose own range is the lowest segment."""
        net = MultiwayNetwork.build(20, seed=seed)
        domain = net.domain
        key = domain.high + 5 if side == "above" else domain.low - 5
        before = net.bus.stats.by_type[MsgType.TABLE_UPDATE]
        net.insert(key)
        assert net.violations() == []
        assert net.search_exact(key).found
        root = net.peers[net.root]
        assert root.coverage.contains(key)
        owner = net.search_exact(key).owner
        widened = net.bus.stats.by_type[MsgType.TABLE_UPDATE] - before
        if side == "above":
            assert widened == net.peers[owner].level  # one per link to the root
        else:
            assert owner == net.root and widened == 0


class TestChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_leaves_preserve_structure_and_data(self, seed):
        net = MultiwayNetwork.build(60, seed=seed)
        keys = uniform_keys(200, seed=seed)
        net.bulk_load(keys)
        import random

        mix = random.Random(seed)
        for _ in range(40):
            net.leave(mix.choice(sorted(net.peers)))
            check_structure(net)
        stored = sorted(k for n in net.peers.values() for k in n.store)
        assert stored == sorted(keys)

    def test_leave_cost_scales_with_children(self):
        # §V-A: departing nodes gather information from all children.
        config = MultiwayConfig(fanout=8)
        net = MultiwayNetwork.build(120, seed=11, config=config)
        internal = next(
            a for a, n in net.peers.items() if len(n.children) >= 4
        )
        n_children = len(net.peers[internal].children)
        result = net.leave(internal)
        assert result.find_trace.total >= n_children

    def test_root_leave(self):
        net = MultiwayNetwork.build(30, seed=12)
        root = net.root
        result = net.leave(root)
        assert result.replacement is not None
        assert net.root == result.replacement
        check_structure(net)

    def test_shrink_to_singleton(self):
        net = MultiwayNetwork.build(12, seed=13)
        import random

        mix = random.Random(1)
        while net.size > 1:
            net.leave(mix.choice(sorted(net.peers)))
        assert net.size == 1
        net.leave(sorted(net.peers)[0])
        assert net.size == 0


class TestSkew:
    def test_skewed_data_deepens_tree(self):
        # §II: without balancing, skew degrades the multiway tree's shape.
        uniform_net = MultiwayNetwork(seed=14)
        root = uniform_net.bootstrap()
        uniform_net.peers[root].store.extend(uniform_keys(3000, seed=6))
        for _ in range(99):
            uniform_net.join()

        skew_net = MultiwayNetwork(seed=14)
        root = skew_net.bootstrap()
        skew_net.peers[root].store.extend(zipfian_keys(3000, theta=1.0, seed=6))
        for _ in range(99):
            skew_net.join()
        assert skew_net.depth() >= uniform_net.depth()
