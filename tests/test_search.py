"""Protocol tests: exact-match search (§IV-A)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BatonNetwork, search
from repro.core.ranges import Range
from repro.net.message import MsgType
from repro.util.errors import PeerNotFoundError

from tests.conftest import leftmost_peer, make_network, rightmost_peer


class TestCorrectness:
    def test_finds_loaded_keys_from_random_starts(self, net100, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(300)]
        net100.bulk_load(keys)
        for key in rng.sample(keys, 100):
            result = net100.search_exact(key)
            assert result.found
            assert key in net100.peer(result.owner).store

    def test_missing_key_reports_owner(self, net100):
        result = net100.search_exact(123_456_789)
        assert not result.found
        assert net100.peer(result.owner).range.contains(123_456_789)

    def test_search_from_every_start(self, net20, rng):
        keys = [rng.randint(1, 10**9 - 1) for _ in range(50)]
        net20.bulk_load(keys)
        for start in net20.addresses():
            key = rng.choice(keys)
            assert net20.search_exact(key, via=start).found

    def test_singleton_network(self):
        net = BatonNetwork(seed=0)
        root = net.bootstrap()
        net.peer(root).store.insert(7)
        assert net.search_exact(7).found
        assert not net.search_exact(8).found

    def test_search_at_range_boundaries(self, net20):
        # Keys exactly on peers' range boundaries route to the upper owner.
        for peer in list(net20.peers.values())[:10]:
            result = net20.search_exact(peer.range.low)
            assert net20.peer(result.owner).range.contains(peer.range.low)

    def test_key_below_domain_lands_leftmost(self, net20):
        result = net20.search_exact(0)
        assert result.owner == leftmost_peer(net20).address
        assert not result.found

    def test_key_above_domain_lands_rightmost(self, net20):
        result = net20.search_exact(10**10)
        assert result.owner == rightmost_peer(net20).address
        assert not result.found


class TestCost:
    def test_hop_count_logarithmic(self, rng):
        for n_peers in (64, 256):
            net = make_network(n_peers, seed=2)
            keys = [rng.randint(1, 10**9 - 1) for _ in range(200)]
            net.bulk_load(keys)
            costs = [net.search_exact(k).trace.total for k in keys]
            bound = 1.44 * math.log2(n_peers) + 4
            assert sum(costs) / len(costs) <= bound
            assert max(costs) <= 2 * bound

    def test_messages_tagged_as_search(self, net20):
        result = net20.search_exact(5_000_000)
        assert result.trace.total == result.trace.count(MsgType.SEARCH)

    def test_query_at_owner_costs_zero(self, net20, rng):
        key = rng.randint(1, 10**9 - 1)
        owner = net20.search_exact(key).owner
        result = net20.search_exact(key, via=owner)
        assert result.trace.total == 0


class TestAgainstOracle:
    def test_owner_matches_range_partition(self, net100, rng):
        # The peer found by routing must be the one whose range covers the
        # key according to the global partition.
        by_low = sorted(net100.peers.values(), key=lambda p: p.range.low)
        for _ in range(100):
            key = rng.randint(1, 10**9 - 1)
            owner = net100.search_exact(key).owner
            import bisect

            lows = [p.range.low for p in by_low]
            expected = by_low[bisect.bisect_right(lows, key) - 1]
            assert owner == expected.address


# -- the routing decision against the eager list it replaced ------------------


def oracle_hop_candidates(peer, key):
    """The eager (primary, fallback) builder ``next_hops`` replaced, kept
    verbatim as the order oracle; reads only the peer's own links."""
    primary = []
    if key >= peer.range.high:
        table, child, adjacent = (
            peer.right_table,
            peer.right_child,
            peer.right_adjacent,
        )
        entries = table.entries
        for index in reversed(table.valid_indices()):
            info = entries[index]
            if info is not None and info.range.low <= key:
                primary.append(info.address)
    else:
        table, child, adjacent = (
            peer.left_table,
            peer.left_child,
            peer.left_adjacent,
        )
        entries = table.entries
        for index in reversed(table.valid_indices()):
            info = entries[index]
            if info is not None and info.range.high > key:
                primary.append(info.address)
    if child is not None:
        primary.append(child.address)
    if adjacent is not None:
        primary.append(adjacent.address)
    fallback = []
    if peer.parent is not None:
        fallback.append(peer.parent.address)
    seen = {peer.address}
    deduped_primary = []
    for address in primary:
        if address not in seen:
            seen.add(address)
            deduped_primary.append(address)
    deduped_fallback = [a for a in fallback if a not in seen]
    return deduped_primary, deduped_fallback


def oracle_walk(net, start, key, mtype):
    """The walk as it ran on the eager list: every candidate in order, a
    dead one paid for and skipped; returns the peer it stopped at."""
    current = start
    for _ in range(search.hop_limit(net)):
        peer = net.peer(current)
        if peer.range.contains(key):
            break
        primary, fallback = oracle_hop_candidates(peer, key)
        if not primary:
            break
        for candidate in primary + fallback:
            try:
                net.bus.send(current, candidate, mtype)
            except PeerNotFoundError:
                continue
            current = candidate
            break
        else:
            break  # marooned; the ghosted network is degraded, so give up
    return current


def probe_keys(peer):
    """Keys left of, inside and right of ``peer``'s range: both domain
    overshoots, its own bounds and both bounds of every table entry."""
    keys = {0, 10**10, peer.range.low - 1, peer.range.low, peer.range.high}
    for table in (peer.left_table, peer.right_table):
        for _, info in table.occupied():
            keys.update((info.range.low, info.range.high - 1, info.range.high))
    return sorted(keys)


def assert_stream_matches_oracle(net, extra_keys=()):
    for peer in net.peers.values():
        for key in [*probe_keys(peer), *extra_keys]:
            primary, fallback = oracle_hop_candidates(peer, key)
            expected = primary + fallback if primary else []
            assert list(search.next_hops(peer, key)) == expected, (peer, key)


@pytest.fixture(scope="module")
def bulk_thousand() -> BatonNetwork:
    return BatonNetwork.build(1000, bulk=True)


@pytest.fixture(scope="module")
def ghosted() -> BatonNetwork:
    """Churned N=64 with four unrepaired crashes, plus hand-planted stale
    table entries: four rows naming the table's owner, four repeating a
    nearer row.  Shared by the module: searching only moves counters."""
    net = make_network(64, seed=5)
    rng = random.Random(9)
    for _ in range(12):
        net.leave(rng.choice(net.addresses()))
        net.join()
    for victim in rng.sample(net.addresses(), 4):
        net.fail(victim)
    planted = 0
    for peer in net.peers.values():
        for table in (peer.left_table, peer.right_table):
            rows = [index for index, _ in table.occupied()]
            if len(rows) >= 3 and planted < 4:
                near, mid, far = rows[0], rows[1], rows[-1]
                entries = table.entries
                entries[far] = entries[far]._replace(address=peer.address)
                entries[mid] = entries[mid]._replace(address=entries[near].address)
                planted += 1
    assert planted == 4 and len(net.ghosts) >= 3
    return net


any_key = st.integers(min_value=0, max_value=2 * 10**9)


class TestRoutingDecision:
    """``next_hops`` yields exactly the list the eager builder built."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 10**6), st.lists(any_key, max_size=4))
    def test_join_grown_networks(self, n_peers, seed, keys):
        assert_stream_matches_oracle(BatonNetwork.build(n_peers, seed=seed), keys)

    @settings(max_examples=5, deadline=None)
    @given(st.lists(any_key, min_size=1, max_size=4))
    def test_bulk_thousand(self, bulk_thousand, keys):
        assert_stream_matches_oracle(bulk_thousand, keys)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(any_key, min_size=1, max_size=8))
    def test_ghosts_and_stale_entries(self, ghosted, keys):
        assert_stream_matches_oracle(ghosted, keys)

    def test_extreme_node_has_no_candidates_not_even_its_parent(self, net20):
        rightmost = rightmost_peer(net20)
        assert rightmost.parent is not None
        assert list(search.next_hops(rightmost, 10**10)) == []

    def test_walks_spend_the_same_messages_as_the_eager_list(self, ghosted):
        net = ghosted
        rng = random.Random(4)
        keys = [rng.randint(1, 10**9 - 1) for _ in range(200)]
        dead_hops = 0
        for start in net.addresses():
            for key in keys:
                result = net.search_exact(key, via=start)
                with net.bus.trace("oracle") as expected:
                    owner = oracle_walk(net, start, key, MsgType.SEARCH)
                assert result.owner == owner
                assert result.trace.by_type == expected.by_type
                assert result.trace.path == expected.path
                dead_hops += sum(a in net.ghosts for a in expected.path)
        assert dead_hops > 0  # the fallbacks were exercised
