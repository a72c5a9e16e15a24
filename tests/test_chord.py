"""Tests for the Chord baseline (repro.chord)."""

import hashlib
import math

import pytest

from repro import overlays
from repro.chord import ChordConfig, ChordNetwork, hash_key, id_distance, in_interval
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

        space = 1 << net.m_bits
        for node in net.nodes.values():
            for i in range(net.m_bits):
                finger_id = net.nodes[node.finger[i]].node_id
                assert finger_id == true_successor((node.node_id + (1 << i)) % space)


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


def golden_run(n_peers: int, seed: int, m_bits: int) -> dict:
    """Build a ring, run a fixed op script, and fingerprint the outcome.

    The fingerprint is every message category's count, each op's message
    total (a join's find plus update) and answer, a SHA-256 over every
    node's state and the ring's next random draw — so a kernel rewrite that
    moves one routing decision, one finger or one rng draw shows up here.
    The dense 9-bit ring makes lookup targets and key hashes land on node
    ids, so the interval tests' closed and open ends are exercised, not just
    their interiors.
    """
    net = ChordNetwork.build(n_peers, seed=seed, config=ChordConfig(m_bits=m_bits))
    keys = uniform_keys(120, seed=seed + 7)
    outcomes = [net.insert(key).trace.total for key in keys]
    outcomes += [net.delete(key).trace.total for key in keys[::3]]
    for _ in range(10):
        left = net.leave(net.random_peer_address())
        outcomes.append(left.find_trace.total + left.update_trace.total)
        joined = net.join()
        outcomes.append(joined.find_trace.total + joined.update_trace.total)
    for key in keys[:40]:
        found = net.search_exact(key)
        outcomes.append((found.trace.total, found.found))
    ends = sorted(keys)
    for low, high in ((ends[10], ends[50]), (ends[51], ends[53]), (ends[70], ends[100])):
        scan = net.search_range(low, high)
        outcomes.append((scan.trace.total, tuple(scan.keys)))
    return fingerprint(net, outcomes)


def golden_async_run(n_peers: int, seed: int, m_bits: int) -> dict:
    """Overlapping joins, leaves, writes and lookups on the event-driven
    runtime, so the kernel meets stale fingers and vanished nodes."""
    anet = overlays.get("chord").build(
        n_peers, seed=seed, config=ChordConfig(m_bits=m_bits)
    ).wrap()
    net = anet.net
    keys = uniform_keys(60, seed=seed + 11)
    leavers = net.rng.sample(sorted(net.nodes), 20)
    futures = []
    for i, key in enumerate(keys):
        futures.append(anet.submit_insert(key))
        if i % 3 == 0:
            futures.append(anet.submit_join())
            futures.append(anet.submit_leave(leavers[i // 3]))
        if i % 2 == 0:
            futures.append(anet.submit_search_exact(keys[i // 2]))
    anet.drain()
    outcomes = [
        (f.kind, f.status, type(f.error).__name__, f.trace.total, f.hops)
        for f in futures
    ]
    return fingerprint(net, outcomes)


def fingerprint(net: ChordNetwork, outcomes: list) -> dict:
    """Per-type message counts, digests of ``outcomes`` and of every node's
    state, and the ring's next random draw."""
    state = sorted(
        (
            address,
            node.node_id,
            tuple(node.finger),
            node.predecessor,
            tuple(sorted(node.store)),
        )
        for address, node in net.nodes.items()
    )
    return {
        "by_type": {
            mtype.name: count for mtype, count in net.bus.stats.by_type.items()
        },
        "outcomes": hashlib.sha256(repr(outcomes).encode()).hexdigest(),
        "state": hashlib.sha256(repr(state).encode()).hexdigest(),
        "next_random": net.rng.random(),
    }


GOLDEN = {
    (64, 0, 24): {
        "by_type": {
            "DELETE": 167,
            "INSERT": 490,
            "JOIN_FIND": 234,
            "JOIN_TRANSFER": 73,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 189,
            "SEARCH": 152,
            "TABLE_UPDATE": 10597,
        },
        "outcomes": "802dc24d4ecf61689fbf29d746afe79d129912afbf3553d6bc960667286c2132",
        "state": "73c66859d11668d1061d2aa24f85b4f271b4bbadbcf0d8fcedb8be625d50a26c",
        "next_random": 0.9886898889857565,
    },
    (64, 1, 24): {
        "by_type": {
            "DELETE": 146,
            "INSERT": 462,
            "JOIN_FIND": 244,
            "JOIN_TRANSFER": 73,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 189,
            "SEARCH": 148,
            "TABLE_UPDATE": 10473,
        },
        "outcomes": "da388267b8ac388633b9a002bb5904883ae85fdb064b2139b33885eec0b8c285",
        "state": "d1bff7f08da50ad8fa68d10385d40796cd16f9293ac313e55c0e2409d8446ec9",
        "next_random": 0.5014295859466933,
    },
    (300, 0, 24): {
        "by_type": {
            "DELETE": 184,
            "INSERT": 612,
            "JOIN_FIND": 1338,
            "JOIN_TRANSFER": 309,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 897,
            "SEARCH": 199,
            "TABLE_UPDATE": 57640,
        },
        "outcomes": "01e57c7479f29781e6f37c6e72d57a47f3d9f686ed2838799df3b82f8b12d414",
        "state": "f94669b5ce12562568796979dd04f4ff846e2f57377e1c248bdc1c7dd99c7143",
        "next_random": 0.6318794317305464,
    },
    (300, 1, 24): {
        "by_type": {
            "DELETE": 194,
            "INSERT": 596,
            "JOIN_FIND": 1312,
            "JOIN_TRANSFER": 309,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 897,
            "SEARCH": 218,
            "TABLE_UPDATE": 56594,
        },
        "outcomes": "1a9f06bd621e570545d922a89c3814d235aa678cd8b6f13a58e3e7bb7e9c9c6a",
        "state": "2f941f3cceba5606b49283056d70d747c38cbef2ea72d9be9b9eae4dc2b948f0",
        "next_random": 0.8596949680465177,
    },
    (64, 0, 9): {
        "by_type": {
            "DELETE": 160,
            "INSERT": 483,
            "JOIN_FIND": 243,
            "JOIN_TRANSFER": 73,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 189,
            "SEARCH": 151,
            "TABLE_UPDATE": 4542,
        },
        "outcomes": "835508b4f791f155374e0b9b66855168326e4e1eee6c97e0e045c3fb6b27c37e",
        "state": "29ca8ee3df82aba64eb692327adceb5dcfdc42fa65b0c72803e026011fc7ab2e",
        "next_random": 0.6793183678168555,
    },
    (64, 1, 9): {
        "by_type": {
            "DELETE": 161,
            "INSERT": 455,
            "JOIN_FIND": 250,
            "JOIN_TRANSFER": 73,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 189,
            "SEARCH": 158,
            "TABLE_UPDATE": 4447,
        },
        "outcomes": "ab0f370d137edd9b2cd5192530eef14397dd3a9ce2f704a4397c0334be6e9140",
        "state": "cf6f491de37f5a7cfcd467c2bf70905ba2cc073d90c18ec3326c2b8d94036b5d",
        "next_random": 0.30562287648676134,
    },
    (300, 0, 9): {
        "by_type": {
            "DELETE": 209,
            "INSERT": 589,
            "JOIN_FIND": 1318,
            "JOIN_TRANSFER": 309,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 897,
            "SEARCH": 191,
            "TABLE_UPDATE": 25916,
        },
        "outcomes": "0720ffa6683e481b39bd1e8d7955b4040319466f55007f678a59db9b23a041b2",
        "state": "ae4f234473ba5704b05a896f2ad48c5c83bb769359763506a952e0f0e3b0061c",
        "next_random": 0.13744427713979768,
    },
    (300, 1, 9): {
        "by_type": {
            "DELETE": 203,
            "INSERT": 588,
            "JOIN_FIND": 1320,
            "JOIN_TRANSFER": 309,
            "LEAVE_TRANSFER": 20,
            "RANGE_SEARCH": 897,
            "SEARCH": 202,
            "TABLE_UPDATE": 25445,
        },
        "outcomes": "04c57e561219c2ab9ade9907f765d113650165423b795994e4c843576a1d88fe",
        "state": "427fba6c22272067da5ed6c81409678effbcb8cb1a0c16024cb6f5c1d1bacf2c",
        "next_random": 0.35449675578396944,
    },
}
GOLDEN_ASYNC = {
    (80, 0, 24): {
        "by_type": {
            "INSERT": 235,
            "JOIN_FIND": 343,
            "JOIN_TRANSFER": 98,
            "LEAVE_TRANSFER": 40,
            "SEARCH": 116,
            "TABLE_UPDATE": 15859,
        },
        "outcomes": "e0a9d043575ed6b53067b6d9c02b912230a5273ed15c81bf5d637a60f9644375",
        "state": "7d061bb776d616ce5bca2b3300fc774e628231c099d5651ebd97729e0071044a",
        "next_random": 0.39479198298829066,
    },
    (80, 1, 24): {
        "by_type": {
            "INSERT": 244,
            "JOIN_FIND": 346,
            "JOIN_TRANSFER": 99,
            "LEAVE_TRANSFER": 40,
            "SEARCH": 110,
            "TABLE_UPDATE": 16054,
        },
        "outcomes": "0fb579027b016eddc930986785cfb2f2c612b3cb322ef4fbb88b5c7f93112680",
        "state": "618a288a1cb3084d7bff379b1cda62e125370fa8ed09dc106424b52e8cb52caf",
        "next_random": 0.1155581805922733,
    },
    (80, 0, 9): {
        "by_type": {
            "INSERT": 230,
            "JOIN_FIND": 341,
            "JOIN_TRANSFER": 99,
            "LEAVE_TRANSFER": 40,
            "SEARCH": 123,
            "TABLE_UPDATE": 6929,
        },
        "outcomes": "deacfc963d4ee9ec89e5dc1d7dbeaf3708dbe23819ddb4e5778c66a92b035d7f",
        "state": "d1e36bcbc114d1238ccd82a404dfeec9a53415a04c9e94b10fb901723a679ba2",
        "next_random": 0.8355597356596641,
    },
    (80, 1, 9): {
        "by_type": {
            "INSERT": 238,
            "JOIN_FIND": 354,
            "JOIN_TRANSFER": 99,
            "LEAVE_TRANSFER": 40,
            "SEARCH": 116,
            "TABLE_UPDATE": 6630,
        },
        "outcomes": "a561749e84f4e8b1f62d3ee5efe5cf9de97f5aa2cdec6e887193f72424ad7f9d",
        "state": "671be5b693a08530c1e64248eede368997f7df911d95954967c03bad3ba36cc3",
        "next_random": 0.10012914395045203,
    },
}


class TestGoldenPin:
    """Byte-for-byte behaviour of the routing kernel, pinned at constants
    recorded before it was rewritten on masked ring distances."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_fixed_script_matches_pinned_fingerprint(self, case):
        assert golden_run(*case) == GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_ASYNC))
    def test_concurrent_churn_matches_pinned_fingerprint(self, case):
        assert golden_async_run(*case) == GOLDEN_ASYNC[case]
