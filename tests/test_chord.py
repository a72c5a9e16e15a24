"""Tests for the Chord baseline (repro.chord)."""

import math

import pytest

from repro.chord import ChordNetwork, hash_key, id_distance, in_interval
from repro.chord.hashing import in_open_interval
from repro.util.errors import ProtocolError
from repro.workloads.generators import uniform_keys


def ring_cycle(net: ChordNetwork) -> list:
    """Successor chain starting from the lowest address."""
    start = sorted(net.nodes)[0]
    cycle = [start]
    current = net.nodes[start].successor
    while current != start:
        cycle.append(current)
        current = net.nodes[current].successor
    return cycle


def check_ring(net: ChordNetwork) -> None:
    cycle = ring_cycle(net)
    assert len(cycle) == net.size, "successors must form a single cycle"
    ids = [net.nodes[a].node_id for a in cycle]
    rotation = ids.index(min(ids))
    rotated = ids[rotation:] + ids[:rotation]
    assert rotated == sorted(ids), "cycle must follow identifier order"
    for address in cycle:
        node = net.nodes[address]
        successor = net.nodes[node.successor]
        assert successor.predecessor == address


class TestIntervalMath:
    def test_plain_interval(self):
        assert in_interval(5, 2, 8)
        assert in_interval(8, 2, 8)  # half-open on the right: (low, high]
        assert not in_interval(2, 2, 8)

    def test_wrapping_interval(self):
        m = 4  # ring of 16 ids
        assert in_interval(15, 12, 3, m)
        assert in_interval(1, 12, 3, m)
        assert not in_interval(5, 12, 3, m)

    def test_full_ring_interval(self):
        assert in_interval(7, 3, 3)

    def test_open_interval(self):
        assert in_open_interval(5, 2, 8)
        assert not in_open_interval(8, 2, 8)
        assert not in_open_interval(2, 2, 8)

    def test_distance(self):
        m = 4
        assert id_distance(14, 2, m) == 4
        assert id_distance(2, 14, m) == 12
        assert id_distance(5, 5, m) == 0

    def test_hash_is_deterministic_and_bounded(self):
        assert hash_key(12345) == hash_key(12345)
        for key in (1, 10**9 - 1, 424242):
            assert 0 <= hash_key(key) < (1 << 24)


class TestRingMaintenance:
    def test_build_forms_valid_ring(self):
        check_ring(ChordNetwork.build(64, seed=2))

    def test_singleton_is_own_successor(self):
        net = ChordNetwork(seed=1)
        root = net.bootstrap()
        node = net.nodes[root]
        assert node.successor == root
        assert node.predecessor == root

    def test_join_preserves_ring(self):
        net = ChordNetwork.build(20, seed=3)
        for _ in range(10):
            net.join()
            check_ring(net)

    def test_leave_preserves_ring(self):
        net = ChordNetwork.build(30, seed=4)
        for _ in range(15):
            net.leave(net.random_peer_address())
            check_ring(net)

    def test_failed_sync_join_unwinds_its_node(self, monkeypatch):
        """A join whose lookup raises leaves the ring as it found it —
        no half-born node, no stray liveness, no leaked identifier."""
        net = ChordNetwork.build(12, seed=3)
        nodes, live, ids = dict(net.nodes), net.bus.live_count, set(net._used_ids)

        def broken_lookup(start, target_id, mtype):
            raise ProtocolError("lookup died")
            yield  # a step generator that never yields

        monkeypatch.setattr(net, "successor_steps", broken_lookup)
        with pytest.raises(ProtocolError, match="lookup died"):
            net.join()
        assert dict(net.nodes) == nodes
        assert net.bus.live_count == live
        assert net._used_ids == ids

    def test_fingers_point_at_true_successors(self):
        net = ChordNetwork.build(40, seed=5)
        ids = sorted(node.node_id for node in net.nodes.values())

        def true_successor(target: int) -> int:
            for node_id in ids:
                if node_id >= target:
                    return node_id
            return ids[0]

        for node in net.nodes.values():
            for i in range(net.m_bits):
                finger_id = net.nodes[node.finger[i]].node_id
                assert finger_id == true_successor(node.finger_start(i))


class TestDataOps:
    def test_insert_search_delete_roundtrip(self):
        net = ChordNetwork.build(32, seed=6)
        keys = uniform_keys(100, seed=1)
        for key in keys:
            net.insert(key)
        for key in keys:
            assert net.search_exact(key).found
        for key in keys:
            assert net.delete(key).applied
        for key in keys:
            assert not net.search_exact(key).found

    def test_keys_survive_churn(self):
        net = ChordNetwork.build(32, seed=7)
        keys = uniform_keys(150, seed=2)
        net.bulk_load(keys)
        for _ in range(10):
            net.join()
            net.leave(net.random_peer_address())
        for key in keys[:50]:
            assert net.search_exact(key).found

    def test_lookup_cost_logarithmic(self):
        costs = {}
        for n_nodes in (64, 256):
            net = ChordNetwork.build(n_nodes, seed=8)
            keys = uniform_keys(100, seed=3)
            net.bulk_load(keys)
            costs[n_nodes] = sum(
                net.search_exact(k).trace.total for k in keys
            ) / len(keys)
            assert costs[n_nodes] <= math.log2(n_nodes) + 2
        assert costs[256] > costs[64] - 1  # grows (roughly) with log N

    def test_join_table_update_is_superlogarithmic(self):
        # The Θ(log² N) contrast the paper draws in Fig 8(b).
        net = ChordNetwork.build(128, seed=9)
        update_costs = [net.join().update_trace.total for _ in range(10)]
        assert sum(update_costs) / 10 > 3 * math.log2(net.size)

    def test_range_scan_visits_whole_ring(self):
        net = ChordNetwork.build(40, seed=10)
        keys = uniform_keys(200, seed=4)
        net.bulk_load(keys)
        result = net.search_range(10**8, 5 * 10**8)
        assert result.nodes_visited == net.size
        assert result.keys == sorted(k for k in keys if 10**8 <= k < 5 * 10**8)


class TestEdges:
    def test_build_rejects_zero(self):
        with pytest.raises(ValueError):
            ChordNetwork.build(0)

    def test_leave_to_singleton_then_grow(self):
        net = ChordNetwork.build(5, seed=11)
        while net.size > 1:
            net.leave(net.random_peer_address())
        for _ in range(5):
            net.join()
        check_ring(net)
