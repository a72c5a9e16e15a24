"""Tests for workload generators (repro.workloads)."""

import random
import timeit
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

import pytest

from repro.core.ranges import Range
from repro.workloads import (
    UniformKeys,
    ZipfianKeys,
    exact_queries,
    range_queries,
    uniform_keys,
    zipfian_keys,
)


class TestUniform:
    def test_keys_within_domain(self):
        for key in uniform_keys(500, seed=1):
            assert 1 <= key < 10**9

    def test_deterministic(self):
        assert uniform_keys(50, seed=7) == uniform_keys(50, seed=7)

    def test_seed_changes_stream(self):
        assert uniform_keys(50, seed=7) != uniform_keys(50, seed=8)

    def test_custom_domain(self):
        keys = uniform_keys(200, seed=2, domain=Range(100, 110))
        assert all(100 <= k < 110 for k in keys)

    def test_roughly_uniform_spread(self):
        keys = uniform_keys(5000, seed=3)
        low_half = sum(1 for k in keys if k < 5 * 10**8)
        assert 2200 <= low_half <= 2800


class TestZipfian:
    def test_keys_within_domain(self):
        for key in zipfian_keys(500, seed=1):
            assert 1 <= key < 10**9

    def test_deterministic(self):
        assert zipfian_keys(50, seed=7) == zipfian_keys(50, seed=7)

    def test_low_ranks_dominate(self):
        gen = ZipfianKeys(theta=1.0, n_ranks=1000, seed=4)
        ranks = Counter(gen.draw_rank() for _ in range(5000))
        assert ranks[1] > ranks.get(100, 0)
        top_ten = sum(ranks[r] for r in range(1, 11))
        assert top_ten > 5000 * 0.25  # heavy head for theta=1, K=1000

    def test_skew_concentrates_keys(self):
        keys = zipfian_keys(5000, theta=1.0, seed=5)
        hot = sum(1 for k in keys if k < 10**8)  # lowest 10% of the domain
        assert hot > 2500  # vastly above the uniform 10%

    def test_higher_theta_is_more_skewed(self):
        mild = ZipfianKeys(theta=0.5, n_ranks=1000, seed=6)
        harsh = ZipfianKeys(theta=1.5, n_ranks=1000, seed=6)
        mild_top = sum(1 for _ in range(2000) if mild.draw_rank() <= 10)
        harsh_top = sum(1 for _ in range(2000) if harsh.draw_rank() <= 10)
        assert harsh_top > mild_top

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianKeys(theta=0)
        with pytest.raises(ValueError):
            ZipfianKeys(n_ranks=0)

    def test_bisect_beats_per_draw_rebuild_5x(self):
        """The precomputed CDF is O(log n_ranks) per draw; rebuilding the
        weights on every draw is O(n_ranks).  A wide, flake-proof margin,
        so a regression back to per-draw rebuilds fails loudly."""
        n_ranks, draws = 5_000, 2_000
        sampler = ZipfianKeys(theta=1.0, n_ranks=n_ranks, seed=3)

        def naive() -> None:
            rng = random.Random(3)
            for _ in range(draws):
                weights = [1.0 / rank for rank in range(1, n_ranks + 1)]
                cumulative = list(accumulate(weights))
                bisect_left(cumulative, rng.random() * cumulative[-1])

        def fast() -> None:
            for _ in range(draws):
                sampler.draw_rank()

        fast_s = min(timeit.repeat(fast, number=1, repeat=3))
        naive_s = timeit.timeit(naive, number=1)
        assert fast_s * 5 < naive_s, (fast_s, naive_s)


class TestQueries:
    def test_exact_queries_hit_loaded_keys(self):
        loaded = uniform_keys(100, seed=1)
        queries = exact_queries(loaded, 50, seed=2, hit_ratio=1.0)
        assert all(q in set(loaded) for q in queries)

    def test_exact_queries_miss_ratio(self):
        loaded = uniform_keys(100, seed=1)
        queries = exact_queries(loaded, 400, seed=2, hit_ratio=0.5)
        hits = sum(1 for q in queries if q in set(loaded))
        assert 120 <= hits <= 280

    def test_range_queries_span_selectivity(self):
        for low, high in range_queries(100, selectivity=0.01, seed=3):
            assert high - low == int(10**9 * 0.01) or high - low >= 1
            assert 1 <= low < high <= 10**9

    def test_range_queries_validation(self):
        with pytest.raises(ValueError):
            range_queries(10, selectivity=0.0)

