"""Property-based tests (hypothesis) on the core invariants.

The heavyweight one is the model-based test: an arbitrary interleaving of
joins, leaves, inserts, deletes and searches must keep every structural
invariant *and* agree with a plain multiset oracle about the stored data.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BatonNetwork, check_invariants, collect_violations
from repro.core.ids import Position
from repro.core.links import LEFT, RIGHT, RoutingTable
from repro.core.storage import LocalStore

positions = st.integers(min_value=0, max_value=12).flatmap(
    lambda level: st.integers(min_value=1, max_value=2**level).map(
        lambda number: Position(level, number)
    )
)


class TestPositionProperties:
    @given(positions)
    def test_children_invert_parent(self, position):
        assert position.left_child().parent() == position
        assert position.right_child().parent() == position

    @given(positions)
    def test_inorder_sandwich(self, position):
        # left child < node < right child in in-order terms
        assert position.left_child().inorder_lt(position)
        assert position.inorder_lt(position.right_child())

    @given(positions, positions)
    def test_inorder_antisymmetry(self, a, b):
        if a == b:
            assert not a.inorder_lt(b) and not b.inorder_lt(a)
        else:
            assert a.inorder_lt(b) != b.inorder_lt(a)

    @given(positions, positions, positions)
    def test_inorder_transitivity(self, a, b, c):
        if a.inorder_lt(b) and b.inorder_lt(c):
            assert a.inorder_lt(c)

    @given(positions)
    def test_table_positions_are_symmetric(self, position):
        # if q is in p's right table, p is in q's left table (same index)
        right = RoutingTable(position, RIGHT)
        for index in right.valid_indices():
            q = right.position_at(index)
            assert RoutingTable(q, LEFT).position_at(index) == position


class TestStoreAgainstOracle:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "contains"]),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=200,
        )
    )
    def test_store_behaves_like_sorted_multiset(self, ops):
        store = LocalStore()
        oracle: Counter = Counter()
        for op, key in ops:
            if op == "insert":
                store.insert(key)
                oracle[key] += 1
            elif op == "delete":
                assert store.delete(key) == (oracle[key] > 0)
                if oracle[key] > 0:
                    oracle[key] -= 1
            else:
                assert (key in store) == (oracle[key] > 0)
        assert list(store) == sorted(oracle.elements())

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), max_size=100),
        st.integers(min_value=0, max_value=1000),
    )
    def test_split_below_partitions(self, keys, pivot):
        store = LocalStore(keys)
        moved = store.split_below(pivot)
        assert all(k < pivot for k in moved)
        assert all(k >= pivot for k in store)
        assert sorted(moved + list(store)) == sorted(keys)


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.integers(0, 10**6)),
        st.tuples(st.just("leave"), st.integers(0, 10**6)),
        st.tuples(st.just("insert"), st.integers(1, 10**9 - 1)),
        st.tuples(st.just("delete"), st.integers(1, 10**9 - 1)),
        st.tuples(st.just("search"), st.integers(1, 10**9 - 1)),
    ),
    min_size=5,
    max_size=60,
)


class TestModelBased:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 1000), ops=ops_strategy)
    def test_random_op_sequences_keep_invariants_and_data(self, seed, ops):
        net = BatonNetwork.build(8, seed=seed)
        oracle: Counter = Counter()
        inserted_keys: list[int] = []
        for op, value in ops:
            if op == "join":
                net.join()
            elif op == "leave" and net.size > 1:
                addresses = net.addresses()
                net.leave(addresses[value % len(addresses)])
            elif op == "insert":
                net.insert(value)
                oracle[value] += 1
                inserted_keys.append(value)
            elif op == "delete":
                key = (
                    inserted_keys[value % len(inserted_keys)]
                    if inserted_keys and value % 2
                    else value
                )
                applied = net.delete(key).applied
                assert applied == (oracle[key] > 0)
                if applied:
                    oracle[key] -= 1
            elif op == "search":
                key = (
                    inserted_keys[value % len(inserted_keys)]
                    if inserted_keys
                    else value
                )
                assert net.search_exact(key).found == (oracle[key] > 0)
        check_invariants(net)
        stored = Counter()
        for peer in net.peers.values():
            stored.update(peer.store)
        assert stored == +oracle  # +drops zero entries

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100),
        n_initial=st.integers(2, 30),
        churn=st.lists(st.booleans(), min_size=5, max_size=40),
    )
    def test_churn_preserves_range_partition(self, seed, n_initial, churn):
        net = BatonNetwork.build(n_initial, seed=seed)
        for is_join in churn:
            if is_join or net.size <= 1:
                net.join()
            else:
                net.leave(net.random_peer_address())
        assert collect_violations(net) == []
        # in-order ranges tile the whole domain exactly
        ranges = sorted(
            (p.range.low, p.range.high) for p in net.peers.values()
        )
        assert ranges[0][0] == net.config.domain.low
        assert ranges[-1][1] == net.config.domain.high
        for (_, high), (low, _) in zip(ranges, ranges[1:]):
            assert high == low


class TestSearchProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 100),
        keys=st.lists(st.integers(1, 10**9 - 1), min_size=1, max_size=60),
        probe=st.integers(1, 10**9 - 1),
    )
    def test_search_agrees_with_membership(self, seed, keys, probe):
        net = BatonNetwork.build(12, seed=seed)
        net.bulk_load(keys)
        assert net.search_exact(probe).found == (probe in set(keys))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 100),
        keys=st.lists(st.integers(1, 10**9 - 1), min_size=1, max_size=60),
        bounds=st.tuples(st.integers(1, 10**9 - 2), st.integers(1, 10**9 - 1)),
    )
    def test_range_search_agrees_with_filter(self, seed, keys, bounds):
        low, high = min(bounds), max(bounds)
        if low == high:
            high += 1
        net = BatonNetwork.build(12, seed=seed)
        net.bulk_load(keys)
        result = net.search_range(low, high)
        assert sorted(result.keys) == sorted(k for k in keys if low <= k < high)
