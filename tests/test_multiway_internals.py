"""Deeper multiway-tree edge cases: interior detach, coverage widening."""

import pytest

from repro.core.ranges import Range
from repro.multiway import MultiwayConfig, MultiwayNetwork
from repro.workloads.generators import uniform_keys

from tests.test_multiway import check_structure


class TestInteriorDetach:
    def test_detaching_older_child_routes_content_to_predecessor(self):
        """A non-most-recent child's interval flows to a sibling subtree.

        Parent with own range at the bottom and children stacked above it:
        removing the *top* child must hand its interval to whoever owns the
        adjacent interval below — not to the parent (their ranges are not
        adjacent), and never corrupt sibling coverage.
        """
        net = MultiwayNetwork(seed=1, config=MultiwayConfig(fanout=4))
        root_addr = net.bootstrap()
        # three children: coverage stacks [root | c3 | c2 | c1]
        first = net.join(via=root_addr).address
        second = net.join(via=root_addr).address
        third = net.join(via=root_addr).address
        root = net.peers[root_addr]
        assert len(root.children) == 3
        top_child = max(
            (net.peers[l.address] for l in root.children),
            key=lambda n: n.coverage.low,
        )
        top_child.store.insert(top_child.range.low)
        marker = top_child.range.low
        net.leave(top_child.address)
        check_structure(net)
        # the marker key is still owned and findable
        assert net.search_exact(marker).found

    def test_many_interior_detaches_keep_partition(self):
        net = MultiwayNetwork.build(50, seed=2, config=MultiwayConfig(fanout=5))
        keys = uniform_keys(300, seed=3)
        net.bulk_load(keys)
        import random

        mix = random.Random(4)
        # preferentially remove children that are NOT the most recent
        for _ in range(25):
            candidates = [
                link.address
                for node in net.peers.values()
                for link in node.children[1:]
            ]
            if not candidates:
                break
            net.leave(mix.choice(candidates))
            check_structure(net)
        stored = sorted(k for n in net.peers.values() for k in n.store)
        assert stored == sorted(keys)


class TestCoverageConsistency:
    def test_coverage_contains_own_range_and_children(self):
        net = MultiwayNetwork.build(60, seed=5)
        for node in net.peers.values():
            assert node.coverage.low <= node.range.low
            assert node.range.high <= node.coverage.high
            for link in node.children:
                assert node.coverage.low <= link.coverage.low
                assert link.coverage.high <= node.coverage.high

    def test_root_coverage_spans_domain(self):
        net = MultiwayNetwork.build(30, seed=6)
        root = net.peers[net.root]
        assert root.coverage == net.config.domain


class TestNarrowRanges:
    def test_join_skips_unsplittable_nodes(self):
        config = MultiwayConfig(domain=Range(0, 64), fanout=2)
        net = MultiwayNetwork.build(20, seed=7, config=config)
        # with a 64-wide domain and 20 peers, several nodes hold width-1
        # ranges; joins must still have succeeded by descending past them
        assert net.size == 20
        check_structure(net)
