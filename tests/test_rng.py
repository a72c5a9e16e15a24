"""Unit tests for seeded randomness (repro.util.rng)."""

import hashlib
import random
import timeit

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

    def test_weighted_choice_respects_weights(self):
        rng = SeededRng(4)
        outcomes = [rng.weighted_choice(["a", "b"], [0.999, 0.001]) for _ in range(200)]
        assert outcomes.count("a") > 180

    def test_weighted_choice_deterministic(self):
        draws1 = [
            SeededRng(9).weighted_choice("abcd", [1, 2, 3, 4]) for _ in range(5)
        ]
        draws2 = [
            SeededRng(9).weighted_choice("abcd", [1, 2, 3, 4]) for _ in range(5)
        ]
        assert draws1 == draws2

    def test_weighted_choice_rejects_bad_input(self):
        import pytest

        with pytest.raises(ValueError):
            SeededRng(1).weighted_choice(["a", "b"], [1.0])
        with pytest.raises(ValueError):
            SeededRng(1).weighted_choice(["a", "b"], [0.0, 0.0])

    def test_weighted_chooser_matches_weighted_choice_stream(self):
        # Both consume exactly one uniform draw per sample, so the same seed
        # yields the same sequence.
        items = list(range(50))
        weights = [1.0 / (i + 1) for i in range(50)]
        chooser = SeededRng(13).weighted_chooser(items, weights)
        one_shot = SeededRng(13)
        for _ in range(200):
            assert chooser() == one_shot.weighted_choice(items, weights)

    def test_weighted_chooser_respects_weights(self):
        chooser = SeededRng(4).weighted_chooser(["a", "b"], [0.999, 0.001])
        outcomes = [chooser() for _ in range(200)]
        assert outcomes.count("a") > 180

    def test_weighted_chooser_beats_per_call_choice_5x(self):
        """The chooser builds its cumulative table once; ``weighted_choice``
        rebuilds it on every call."""
        items = list(range(5_000))
        weights = [1.0 / (rank + 1) for rank in items]
        choose = SeededRng(11).weighted_chooser(items, weights)
        per_call_rng = SeededRng(11)

        def fast() -> None:
            for _ in range(2_000):
                choose()

        def per_call() -> None:
            for _ in range(2_000):
                per_call_rng.weighted_choice(items, weights)

        fast_s = min(timeit.repeat(fast, number=1, repeat=3))
        per_call_s = timeit.timeit(per_call, number=1)
        assert fast_s * 5 < per_call_s, (fast_s, per_call_s)


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
