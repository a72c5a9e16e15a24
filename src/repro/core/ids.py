"""Logical node positions in the BATON tree.

A node's *logical id* is the pair ``(level, number)`` from §III of the paper:
the root is level 0; at level ``L`` positions are numbered 1..2^L whether or
not a peer currently occupies them.  The pair fully determines the node's
place in the binary tree, its parent/children positions, and — through the
in-order traversal — its place in the linear key order that ranges follow.

Positions are immutable values; peers move *between* positions during
restructuring, so identity of a peer is its address, never its position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional


@lru_cache(maxsize=1 << 17)
def _interned(level: int, number: int) -> "Position":
    """Shared Position instances for the tree-geometry hot paths.

    Parent/child/table-slot arithmetic creates the same handful of
    positions over and over (every reconcile sweep walks the whole tree);
    interning skips the validating constructor on repeats.  Positions are
    immutable, so sharing is safe.  Only the geometry methods below go
    through here — direct ``Position(...)`` construction still validates.
    """
    return Position(level, number)


@dataclass(frozen=True, order=False, slots=True)
class Position:
    """A slot in the (conceptually infinite) binary tree."""

    level: int
    number: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 1 <= self.number <= (1 << self.level):
            raise ValueError(
                f"number must be in [1, 2^{self.level}], got {self.number}"
            )

    def __getstate__(self) -> tuple:
        # Explicit pickle path (network snapshot restore): skips the
        # generic slotted-dataclass state walk; values were validated at
        # construction, so restore trusts them.
        return (self.level, self.number)

    def __setstate__(self, state: tuple) -> None:
        object.__setattr__(self, "level", state[0])
        object.__setattr__(self, "number", state[1])

    # -- heap code ----------------------------------------------------------

    @property
    def code(self) -> int:
        """The slot's index in heap (level) order: ``2^level + number - 1``.

        One int per slot, root = 1, on which the whole geometry is shifts:
        parent ``c >> 1``, children ``2c`` / ``2c + 1``, sibling ``c ^ 1``,
        the table slot at distance ``2^i`` is ``c ± 2^i`` while that stays
        inside the level's ``[2^level, 2^(level+1))``.  The position map
        and the ground-truth link rebuild key on it (an int hashes in C; a
        ``Position`` hashes through a Python-level ``__hash__``).
        """
        return (1 << self.level) + self.number - 1

    @staticmethod
    def from_code(code: int) -> "Position":
        """Inverse of :attr:`code` (interned)."""
        level = code.bit_length() - 1
        return _interned(level, code - (1 << level) + 1)

    # -- tree geometry ------------------------------------------------------

    @property
    def is_left_child(self) -> bool:
        """Left children have odd numbers (root is neither side)."""
        return self.level > 0 and self.number % 2 == 1

    def parent(self) -> Optional["Position"]:
        """Position of the parent slot, or None for the root."""
        if self.level == 0:
            return None
        return _interned(self.level - 1, (self.number + 1) // 2)

    def left_child(self) -> "Position":
        return _interned(self.level + 1, 2 * self.number - 1)

    def right_child(self) -> "Position":
        return _interned(self.level + 1, 2 * self.number)

    def sibling(self) -> Optional["Position"]:
        """The other child of this node's parent, or None for the root."""
        if self.level == 0:
            return None
        offset = 1 if self.is_left_child else -1
        return _interned(self.level, self.number + offset)

    # -- in-order (key) order -------------------------------------------------

    def inorder_num_den(self) -> tuple[int, int]:
        """Exact in-order key as the fraction ``(2*number - 1) / 2^(level+1)``.

        Mapping every slot into (0, 1) this way linearises the infinite tree:
        slot A precedes slot B in an in-order traversal iff key(A) < key(B).
        Returned as (numerator, denominator) of exact integers.
        """
        return 2 * self.number - 1, 1 << (self.level + 1)

    def inorder_lt(self, other: "Position") -> bool:
        """True iff self comes before other in the in-order traversal."""
        num_a, den_a = self.inorder_num_den()
        num_b, den_b = other.inorder_num_den()
        return num_a * den_b < num_b * den_a

    def __str__(self) -> str:
        return f"({self.level},{self.number})"


ROOT = Position(0, 1)
"""The root slot (level 0, number 1)."""
