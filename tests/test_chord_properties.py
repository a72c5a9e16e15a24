"""Property-based tests for Chord's ring arithmetic and maintenance."""

from hypothesis import given, settings, strategies as st

from repro.chord import ChordNetwork, hash_key, id_distance, in_interval
from repro.chord.hashing import in_open_interval

m_bits = 8  # small ring for exhaustive-ish property checks
ring_ids = st.integers(min_value=0, max_value=(1 << m_bits) - 1)


class TestIntervalProperties:
    @given(ring_ids, ring_ids, ring_ids)
    def test_interval_membership_matches_distance_form(self, value, low, high):
        """(low, high] membership == walking distance characterisation."""
        if low == high:
            expected = True  # whole-ring convention
        else:
            expected = 0 < id_distance(low, value, m_bits) <= id_distance(
                low, high, m_bits
            )
        assert in_interval(value, low, high, m_bits) == expected

    @given(ring_ids, ring_ids, ring_ids)
    def test_open_interval_membership_matches_distance_form(self, value, low, high):
        """(low, high) membership == 0 < d < span, a zero span being 2^m."""
        span = id_distance(low, high, m_bits) or (1 << m_bits)
        expected = 0 < id_distance(low, value, m_bits) < span
        assert in_open_interval(value, low, high, m_bits) == expected

    @given(st.data(), st.sampled_from([3, 24]))
    def test_masked_kernel_forms_match_reference(self, data, bits):
        """The routing kernel's inline tests agree with both reference
        helpers: with ``base = low + 1``, ``(value - base) & mask`` compared
        with ``(high - base) & mask`` by ``<=`` is (low, high] and by ``<``
        is (low, high) — the edges ``low == high`` and ``value`` at either
        end drawn on purpose."""
        ids = st.integers(min_value=0, max_value=(1 << bits) - 1)
        low = data.draw(ids)
        high = data.draw(st.one_of(st.just(low), ids))
        value = data.draw(st.one_of(st.sampled_from([low, high]), ids))
        mask = (1 << bits) - 1
        base = low + 1
        gap, span = (value - base) & mask, (high - base) & mask
        assert (gap <= span) == in_interval(value, low, high, bits)
        assert (gap < span) == in_open_interval(value, low, high, bits)

    @given(ring_ids, ring_ids, ring_ids)
    def test_open_interval_is_subset_of_half_open(self, value, low, high):
        if in_open_interval(value, low, high, m_bits) and low != high:
            assert in_interval(value, low, high, m_bits)

    @given(ring_ids, ring_ids)
    def test_distance_antisymmetry(self, a, b):
        if a != b:
            total = id_distance(a, b, m_bits) + id_distance(b, a, m_bits)
            assert total == (1 << m_bits)
        else:
            assert id_distance(a, b, m_bits) == 0

    @given(st.integers(min_value=1, max_value=10**9))
    def test_hash_stays_in_ring(self, key):
        assert 0 <= hash_key(key, m_bits) < (1 << m_bits)


class TestRingProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 200),
        n_nodes=st.integers(2, 40),
        churn=st.lists(st.booleans(), max_size=20),
    )
    def test_ring_survives_arbitrary_churn(self, seed, n_nodes, churn):
        net = ChordNetwork.build(n_nodes, seed=seed)
        for is_join in churn:
            if is_join or net.size <= 1:
                net.join()
            else:
                net.leave(net.random_peer_address())
        # successors form one cycle covering every node
        start = sorted(net.peers)[0]
        seen = {start}
        current = net.peers[start].successor
        while current != start:
            assert current not in seen, "successor cycle is broken"
            seen.add(current)
            current = net.peers[current].successor
        assert len(seen) == net.size

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 200),
        keys=st.lists(st.integers(1, 10**9 - 1), min_size=1, max_size=40),
        probe=st.integers(1, 10**9 - 1),
    )
    def test_lookup_agrees_with_membership(self, seed, keys, probe):
        net = ChordNetwork.build(10, seed=seed)
        net.bulk_load(keys)
        assert net.search_exact(probe).found == (probe in set(keys))
