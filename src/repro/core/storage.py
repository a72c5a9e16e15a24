"""A peer's local key store.

Keys are plain integers kept in a sorted list (duplicates allowed, matching
the paper's footnote about duplicate partition-key values).  The store only
needs ordered-set operations — insert, delete, range count, split at a pivot
— all O(log n) via bisection plus O(n) for the physical list edits, which is
plenty at simulation scale.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional

from repro.util.errors import ProtocolError

if TYPE_CHECKING:
    from repro.core.ranges import Range


class LocalStore:
    """Sorted multiset of integer keys owned by one peer."""

    __slots__ = ("_keys",)

    def __init__(self, keys: Optional[Iterable[int]] = None):
        self._keys: List[int] = sorted(keys) if keys else []

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __contains__(self, key: int) -> bool:
        index = bisect.bisect_left(self._keys, key)
        return index < len(self._keys) and self._keys[index] == key

    # -- updates ------------------------------------------------------------

    def insert(self, key: int) -> None:
        """Add one occurrence of ``key`` (duplicates are kept)."""
        bisect.insort(self._keys, key)

    def delete(self, key: int) -> bool:
        """Remove one occurrence of ``key``; return whether it was present."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            del self._keys[index]
            return True
        return False

    def extend(self, keys: Iterable[int]) -> None:
        """Bulk-add keys (used for content handover on leave/balance)."""
        self._keys.extend(keys)
        self._keys.sort()

    def adopt_sorted(self, keys: List[int]) -> None:
        """Take ``keys`` — already sorted, and handed over — as the whole
        content of an empty store (the bulk build deals each peer its
        exact-size slice of the sorted dataset; no copy, no re-sort)."""
        if self._keys:
            raise ValueError("adopt_sorted needs an empty store")
        self._keys = keys

    def clear(self) -> List[int]:
        """Remove and return every key (content transfer on departure)."""
        keys, self._keys = self._keys, []
        return keys

    # -- queries ------------------------------------------------------------

    def keys_in(self, low: int, high: int) -> List[int]:
        """The keys in [low, high), in sorted order."""
        lo = bisect.bisect_left(self._keys, low)
        hi = bisect.bisect_left(self._keys, high)
        return self._keys[lo:hi]

    def min(self) -> Optional[int]:
        return self._keys[0] if self._keys else None

    def max(self) -> Optional[int]:
        return self._keys[-1] if self._keys else None

    def median(self) -> Optional[int]:
        """The middle key, used as a data-aware split point on join."""
        if not self._keys:
            return None
        return self._keys[len(self._keys) // 2]

    # -- splitting ------------------------------------------------------------

    def split_pivot(self, range_: "Range") -> int:
        """Where a join splits ``range_``, the range this store covers.

        The median key, so the new child takes half the *content* (the
        paper's wording), when it lies strictly inside the range; else (an
        empty store, or a median on the boundary) the arithmetic midpoint.
        The one split rule of BATON's join, forced join and multiway's join.
        """
        if not range_.can_split:
            raise ProtocolError(f"range {range_} too narrow to split")
        median = self.median()
        if median is not None and range_.low < median < range_.high:
            return median
        return range_.midpoint()

    def split_below(self, pivot: int) -> List[int]:
        """Remove and return all keys < ``pivot`` (handover to a left child)."""
        index = bisect.bisect_left(self._keys, pivot)
        moved, self._keys = self._keys[:index], self._keys[index:]
        return moved

    def split_at_or_above(self, pivot: int) -> List[int]:
        """Remove and return all keys >= ``pivot`` (handover to a right child)."""
        index = bisect.bisect_left(self._keys, pivot)
        moved, self._keys = self._keys[index:], self._keys[:index]
        return moved
