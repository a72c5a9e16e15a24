"""Unit tests for seeded randomness (repro.util.rng)."""

import hashlib
import random

import pytest

from repro.util.rng import SeededRng, derive_seed
from repro.workloads.generators import UniformKeys, uniform_keys


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_base_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_is_not_concatenation(self):
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a, b = SeededRng(7), SeededRng(7)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_child_streams_independent_of_parent_draws(self):
        parent = SeededRng(7)
        child_before = parent.child("x").randint(0, 10**9)
        parent.randint(0, 100)  # consume parent randomness
        child_after = SeededRng(7).child("x").randint(0, 10**9)
        assert child_before == child_after

    def test_choice_and_sample(self):
        rng = SeededRng(1)
        items = list(range(20))
        assert rng.choice(items) in items
        sample = rng.sample(items, 5)
        assert len(set(sample)) == 5

    def test_shuffle_in_place_is_permutation(self):
        rng = SeededRng(2)
        items = list(range(30))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_uniform_bounds(self):
        rng = SeededRng(3)
        for _ in range(100):
            assert 2.0 <= rng.uniform(2.0, 5.0) < 5.0


class TestBatchDraw:
    """``randints`` is ``count`` ``randint`` calls: same values, and the
    generator ends in the same state, so later draws are unchanged too."""

    WIDTHS = [1, 2, 3, 2**31, 2**32, 2**32 + 1, 2**40 + 3, 10**9 - 1]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("low", [0, 1, -5, -(2**33)])
    def test_same_stream_as_randint(self, width, low):
        high = low + width - 1
        batch = SeededRng(21)
        single = random.Random(21)
        assert batch.randints(low, high, 500) == [
            single.randint(low, high) for _ in range(500)
        ]
        assert batch._random.getstate() == single.getstate()

    def test_zero_count_draws_nothing(self):
        rng = SeededRng(4)
        before = rng._random.getstate()
        assert rng.randints(1, 10, 0) == []
        assert rng._random.getstate() == before

    def test_empty_range_raises(self):
        with pytest.raises(ValueError, match="empty range"):
            SeededRng(4).randints(5, 4, 3)

    def test_take_then_draw_continues_the_stream(self):
        mixed = UniformKeys(seed=8)
        single = UniformKeys(seed=8)
        assert mixed.take(100) + [mixed.draw()] == [single.draw() for _ in range(101)]

    @pytest.mark.parametrize(
        "workload, digest",
        [
            ("query_flat", "bd4a9fa514d6dfd8"),
            ("churn_durable", "7978f2f5320e9eca"),
            ("wan_lossy_sessions", "5c9ff68050b523cf"),
        ],
    )
    def test_benchmark_datasets_are_unchanged(self, workload, digest):
        keys = uniform_keys(200_000, seed=derive_seed(0, workload, "keys"))
        assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == digest
