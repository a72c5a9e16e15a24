"""Half-open key ranges.

Every peer directly manages a contiguous range of the key domain; §IV
requires a node's own range to sit between the range of its left subtree and
the range of its right subtree, so the in-order traversal of peers reads out
the sorted partition of the whole domain.  Ranges here are half-open integer
intervals ``[low, high)``, the usual convention that makes adjacent ranges
compose without gaps or overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass


DEFAULT_DOMAIN_LOW = 1
DEFAULT_DOMAIN_HIGH = 1_000_000_000
"""The paper's key domain: values are drawn from [1, 10^9)."""


@dataclass(frozen=True)
class Range:
    """A half-open interval ``[low, high)`` of integer keys."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"invalid range [{self.low}, {self.high})")

    @staticmethod
    def full_domain() -> "Range":
        """The paper's whole key domain."""
        return Range(DEFAULT_DOMAIN_LOW, DEFAULT_DOMAIN_HIGH)

    @property
    def width(self) -> int:
        return self.high - self.low

    @property
    def is_empty(self) -> bool:
        return self.low == self.high

    def contains(self, key: int) -> bool:
        return self.low <= key < self.high

    def overlaps(self, other: "Range") -> bool:
        """True iff the two ranges share at least one key."""
        return self.low < other.high and other.low < self.high

    @property
    def can_split(self) -> bool:
        """Whether the range holds an interior pivot (width >= 2).

        A width-1 range's :meth:`midpoint` equals ``low``, which
        :meth:`split_at` rejects — callers on the join/load-balancing split
        path must check this before splitting.
        """
        return self.width >= 2

    def midpoint(self) -> int:
        """A split point dividing the range roughly in half.

        Only meaningful as a pivot when :attr:`can_split` holds; on a
        width-1 range it degenerates to ``low``, which is not a valid
        :meth:`split_at` pivot.
        """
        return self.low + self.width // 2

    def split_at(self, pivot: int) -> tuple["Range", "Range"]:
        """Split into ``[low, pivot)`` and ``[pivot, high)``.

        The pivot must lie strictly inside the range so both halves are
        non-empty.
        """
        if not self.low < pivot < self.high:
            raise ValueError(f"pivot {pivot} not strictly inside [{self.low}, {self.high})")
        return Range(self.low, pivot), Range(pivot, self.high)

    def extend_to_include(self, key: int) -> "Range":
        """The smallest range containing both this range and ``key``.

        Used by the leftmost/rightmost peers when an insert falls outside the
        currently covered domain (§IV-C).
        """
        return Range(min(self.low, key), max(self.high, key + 1))

    def merge(self, other: "Range") -> "Range":
        """Union of two *adjacent* ranges (must share a boundary)."""
        if self.high == other.low:
            return Range(self.low, other.high)
        if other.high == self.low:
            return Range(other.low, self.high)
        raise ValueError(f"ranges [{self}] and [{other}] are not adjacent")

    def __str__(self) -> str:
        return f"[{self.low}, {self.high})"
