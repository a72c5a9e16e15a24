"""Unit tests for the local key store (repro.core.storage)."""

import pytest

from repro.core.ranges import Range
from repro.core.storage import LocalStore
from repro.util.errors import ProtocolError


class TestBasics:
    def test_empty(self):
        store = LocalStore()
        assert len(store) == 0
        assert store.min() is None
        assert store.max() is None
        assert store.median() is None

    def test_insert_keeps_sorted_order(self):
        store = LocalStore()
        for key in (5, 1, 9, 3):
            store.insert(key)
        assert list(store) == [1, 3, 5, 9]

    def test_duplicates_are_kept(self):
        store = LocalStore([4, 4, 4])
        store.insert(4)
        assert len(store) == 4

    def test_contains(self):
        store = LocalStore([2, 4, 6])
        assert 4 in store
        assert 5 not in store

    def test_delete_removes_one_occurrence(self):
        store = LocalStore([7, 7, 8])
        assert store.delete(7)
        assert list(store) == [7, 8]

    def test_delete_missing_returns_false(self):
        store = LocalStore([1, 2])
        assert not store.delete(99)
        assert len(store) == 2

    def test_clear_returns_everything(self):
        store = LocalStore([3, 1, 2])
        assert store.clear() == [1, 2, 3]
        assert len(store) == 0

    def test_extend_merges_sorted(self):
        store = LocalStore([5, 1])
        store.extend([3, 2])
        assert list(store) == [1, 2, 3, 5]


class TestAdoptSorted:
    def test_adopts_the_sorted_keys_as_its_content(self):
        store = LocalStore()
        store.adopt_sorted([2, 4, 6])
        assert list(store) == [2, 4, 6]
        assert store.keys_in(3, 7) == [4, 6]

    def test_rejects_a_non_empty_store(self):
        store = LocalStore([1])
        with pytest.raises(ValueError):
            store.adopt_sorted([2, 3])
        assert list(store) == [1]


class TestRangeQueries:
    def test_keys_in_half_open(self):
        store = LocalStore([1, 3, 5, 7])
        assert store.keys_in(3, 7) == [3, 5]

    def test_keys_in_window_between_keys_is_empty(self):
        store = LocalStore([1, 3, 5, 7, 9])
        assert store.keys_in(4, 5) == []
        assert store.keys_in(0, 100) == [1, 3, 5, 7, 9]

    def test_keys_in_with_duplicates(self):
        store = LocalStore([2, 2, 2, 3])
        assert store.keys_in(2, 3) == [2, 2, 2]


class TestAggregates:
    def test_min_max(self):
        store = LocalStore([42, 7, 19])
        assert store.min() == 7
        assert store.max() == 42

    def test_median_odd(self):
        assert LocalStore([1, 2, 3]).median() == 2

    def test_median_even_takes_upper(self):
        assert LocalStore([1, 2, 3, 4]).median() == 3


class TestSplitPivot:
    def test_empty_store_splits_at_midpoint(self):
        assert LocalStore().split_pivot(Range(0, 100)) == 50

    def test_interior_median(self):
        assert LocalStore([10, 20, 30]).split_pivot(Range(0, 100)) == 20

    def test_median_on_low_boundary_falls_back_to_midpoint(self):
        assert LocalStore([0, 0, 0]).split_pivot(Range(0, 100)) == 50

    def test_width_one_range_raises(self):
        with pytest.raises(ProtocolError):
            LocalStore([7]).split_pivot(Range(7, 8))


class TestSplits:
    def test_split_below(self):
        store = LocalStore([1, 3, 5, 7])
        moved = store.split_below(5)
        assert moved == [1, 3]
        assert list(store) == [5, 7]

    def test_split_at_or_above(self):
        store = LocalStore([1, 3, 5, 7])
        moved = store.split_at_or_above(5)
        assert moved == [5, 7]
        assert list(store) == [1, 3]

    def test_split_below_everything(self):
        store = LocalStore([1, 2])
        assert store.split_below(10) == [1, 2]
        assert len(store) == 0

    def test_split_preserves_total(self):
        store = LocalStore(range(100))
        moved = store.split_below(37)
        assert len(moved) + len(store) == 100
        assert all(k < 37 for k in moved)
        assert all(k >= 37 for k in store)
