"""``OverlayNetwork.violations``: every overlay's structural checker.

Each checker is clean on fresh builds, and each clause of the Chord and
multiway checkers has a red test that hand-breaks a ring or a tree and
sees that clause, and only that clause, fire.  BATON's checker is
``collect_violations``, tested clause by clause in ``test_invariants.py``.
"""

from __future__ import annotations

import pytest

from repro import overlays
from repro.core.invariants import collect_violations
from repro.core.ranges import Range
from repro.net.address import Address
from repro.workloads.generators import uniform_keys


def clauses(violations: list) -> set:
    """The clause names of a checker's lines (the text before ``:``)."""
    return {line.split(":", 1)[0] for line in violations}


@pytest.mark.parametrize("name", overlays.available())
def test_fresh_builds_are_clean(name):
    for n_peers in range(1, 65):
        keys = uniform_keys(4 * n_peers, seed=n_peers)
        net = overlays.get(name).build(n_peers, seed=n_peers, keys=keys)
        assert net.violations() == [], n_peers


def test_baton_reports_collect_violations():
    net = overlays.get("baton").build(30, seed=2)
    net.peer(net.addresses()[3]).range = Range(5, 6)
    assert net.violations() == collect_violations(net) != []


# -- Chord --------------------------------------------------------------------------


def chord_ring(n_peers: int = 12, keys: bool = False):
    net = overlays.get("chord").build(
        n_peers, seed=4, keys=uniform_keys(200, seed=4) if keys else None
    )
    assert net.violations() == []
    return net, sorted(net.peers.values(), key=lambda node: node.node_id)


class TestChordClauses:
    def test_symmetry(self):
        net, ring = chord_ring()
        ring[3].predecessor = ring[5].address
        assert clauses(net.violations()) == {"symmetry"}

    def test_live_successor(self):
        net, ring = chord_ring()
        ring[3].successor = Address(10**6)
        # A ring through a dead successor cannot close either.
        assert clauses(net.violations()) == {"live successor", "ring"}

    def test_ring_out_of_id_order(self):
        """Three nodes linked high to low: symmetric and live, wrong order."""
        net, (a, b, c) = chord_ring(3)
        a.successor, c.predecessor = c.address, a.address
        c.successor, b.predecessor = b.address, c.address
        b.successor, a.predecessor = a.address, b.address
        assert clauses(net.violations()) == {"ring"}

    def test_ring_missing_nodes(self):
        """Two closed sub-rings: each symmetric and in order, neither
        covering every live node."""
        net, (a, b, c, d) = chord_ring(4)
        a.successor, b.predecessor = b.address, a.address
        b.successor, a.predecessor = a.address, b.address
        c.successor, d.predecessor = d.address, c.address
        d.successor, c.predecessor = c.address, d.address
        assert clauses(net.violations()) == {"ring"}

    def test_key_placement(self):
        net, ring = chord_ring(keys=True)
        holder = next(node for node in ring if len(node.store))
        key = next(iter(holder.store))
        holder.store.delete(key)
        ring[(ring.index(holder) + 1) % len(ring)].store.insert(key)
        assert clauses(net.violations()) == {"key placement"}


# -- multiway -----------------------------------------------------------------------


def multiway_tree(keys: bool = False):
    net = overlays.get("multiway").build(
        40, seed=4, keys=uniform_keys(400, seed=4) if keys else None
    )
    assert net.violations() == []
    return net


def inner_child(net):
    """A non-root node whose parent is not the root."""
    return next(
        node
        for node in net.peers.values()
        if node.parent is not None and net.peers[node.parent].parent is not None
    )


class TestMultiwayClauses:
    def test_parent_child_orphaned_child(self):
        net = multiway_tree()
        inner_child(net).parent = net.root
        assert clauses(net.violations()) == {"parent/child"}

    def test_parent_child_dangling_link(self):
        net = multiway_tree()
        node = inner_child(net)
        net.peers[node.parent].children.remove(
            net.peers[node.parent].child_link_to(node.address)
        )
        assert clauses(net.violations()) == {"parent/child"}

    def test_parent_child_second_root(self):
        net = multiway_tree()
        node = inner_child(net)
        parent = net.peers[node.parent]
        parent.children.remove(parent.child_link_to(node.address))
        node.parent = None
        assert clauses(net.violations()) == {"parent/child"}

    def test_fan_out(self):
        net = multiway_tree()
        widest = max(len(node.children) for node in net.peers.values())
        net.config.fanout = widest - 1
        assert clauses(net.violations()) == {"fan-out"}

    def test_coverage(self):
        net = multiway_tree()
        node = inner_child(net)
        parent = net.peers[node.parent]
        node.coverage = Range(node.coverage.low, parent.coverage.high + 1)
        assert clauses(net.violations()) == {"coverage"}

    def test_coverage_stale_link(self):
        net = multiway_tree()
        node = inner_child(net)
        link = net.peers[node.parent].child_link_to(node.address)
        link.coverage = Range(node.coverage.low, node.coverage.high - 1)
        assert clauses(net.violations()) == {"coverage"}

    def test_tiling_gap(self):
        net = multiway_tree()
        node = next(n for n in net.peers.values() if n.range.width > 1)
        node.range = Range(node.range.low + 1, node.range.high)
        assert clauses(net.violations()) == {"tiling"}

    def test_tiling_short_of_the_domain(self):
        net = multiway_tree()
        last = max(net.peers.values(), key=lambda n: n.range.high)
        last.range = Range(last.range.low, last.range.high - 1)
        assert clauses(net.violations()) == {"tiling"}

    def test_key_placement(self):
        net = multiway_tree(keys=True)
        node = next(n for n in net.peers.values() if n.range.low > 0)
        node.store.insert(node.range.low - 1)
        assert clauses(net.violations()) == {"key placement"}

