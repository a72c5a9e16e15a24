"""Unit tests for key ranges (repro.core.ranges)."""

import pytest

from repro.core.ranges import Range


class TestBasics:
    def test_full_domain(self):
        domain = Range.full_domain()
        assert domain.low == 1
        assert domain.high == 1_000_000_000

    def test_width(self):
        assert Range(10, 25).width == 15

    def test_empty(self):
        assert Range(5, 5).is_empty
        assert not Range(5, 6).is_empty

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Range(10, 5)

    def test_contains_half_open(self):
        r = Range(10, 20)
        assert r.contains(10)
        assert r.contains(19)
        assert not r.contains(20)
        assert not r.contains(9)


class TestOverlap:
    def test_disjoint(self):
        assert not Range(0, 10).overlaps(Range(10, 20))  # touching, half-open
        assert not Range(0, 10).overlaps(Range(15, 20))

    def test_overlapping(self):
        assert Range(0, 11).overlaps(Range(10, 20))
        assert Range(12, 15).overlaps(Range(10, 20))


class TestSplitMerge:
    def test_split_at(self):
        left, right = Range(10, 20).split_at(14)
        assert left == Range(10, 14)
        assert right == Range(14, 20)

    def test_split_rejects_boundary_pivot(self):
        with pytest.raises(ValueError):
            Range(10, 20).split_at(10)
        with pytest.raises(ValueError):
            Range(10, 20).split_at(20)

    def test_midpoint_is_strictly_inside(self):
        for r in (Range(0, 2), Range(5, 100), Range(7, 9)):
            assert r.low < r.midpoint() < r.high

    def test_merge_adjacent(self):
        assert Range(0, 10).merge(Range(10, 20)) == Range(0, 20)
        assert Range(10, 20).merge(Range(0, 10)) == Range(0, 20)

    def test_merge_rejects_gap(self):
        with pytest.raises(ValueError):
            Range(0, 10).merge(Range(11, 20))

    def test_merge_rejects_overlap(self):
        with pytest.raises(ValueError):
            Range(0, 12).merge(Range(10, 20))

    def test_split_then_merge_roundtrip(self):
        original = Range(100, 900)
        left, right = original.split_at(345)
        assert left.merge(right) == original


class TestExtend:
    def test_extend_below(self):
        assert Range(10, 20).extend_to_include(5) == Range(5, 20)

    def test_extend_above(self):
        assert Range(10, 20).extend_to_include(25) == Range(10, 26)

    def test_extend_inside_is_noop(self):
        assert Range(10, 20).extend_to_include(15) == Range(10, 20)


class TestSplitGuards:
    def test_can_split_requires_interior_pivot(self):
        assert Range(0, 2).can_split
        assert not Range(5, 6).can_split
        assert not Range(5, 5).can_split

    def test_width_one_midpoint_degenerates_to_low(self):
        narrow = Range(5, 6)
        assert narrow.midpoint() == narrow.low

    def test_width_one_split_at_midpoint_is_rejected(self):
        narrow = Range(5, 6)
        with pytest.raises(ValueError):
            narrow.split_at(narrow.midpoint())

    def test_width_two_splits_cleanly(self):
        left, right = Range(5, 7).split_at(Range(5, 7).midpoint())
        assert (left, right) == (Range(5, 6), Range(6, 7))
