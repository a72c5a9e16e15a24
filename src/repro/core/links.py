"""Links between peers: remote-node snapshots and sideways routing tables.

A *link* is what one peer knows about another: its physical address, its
logical position, the range it currently manages, and the addresses of its
children.  The paper is explicit that routing-table entries carry this extra
information beyond the bare IP address (§III) — search needs the ranges, and
the join algorithm needs to know which neighbours lack children.

The two sideways routing tables hold links to same-level nodes at distances
``2^i``.  An *in-range* slot with no occupant holds ``None`` ("an entry is
still made ... but marked as null"); slots beyond the level's number range
(``number ± 2^i`` outside ``[1, 2^L]``) do not exist at all.  A table is
*full* when every existing slot is non-null — the local condition behind
Theorem 1's balance guarantee.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.core.ids import Position, _interned
from repro.core.ranges import Range
from repro.net.address import Address

LEFT = "left"
RIGHT = "right"


@lru_cache(maxsize=1 << 16)
def _table_slots(level: int, number: int, side: str) -> Tuple[Position, ...]:
    """The valid sideways slots of a table, nearest first.

    Slot geometry depends only on the owner's (level, number) and the
    side, and :class:`Position` is immutable — so the tuple is computed
    once per distinct owner slot and shared by every table that is asked
    for its geometry (``position_at``: joins, link updates, the invariant
    checker).  Refresh sweeps rebuild tables wholesale but never come
    here — they fill rows by heap-code arithmetic.
    """
    slots = []
    distance = 1
    if side == LEFT:
        while number - distance >= 1:
            slots.append(_interned(level, number - distance))
            distance <<= 1
    elif side == RIGHT:
        cap = 1 << level
        while number + distance <= cap:
            slots.append(_interned(level, number + distance))
            distance <<= 1
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return tuple(slots)


class NodeInfo(NamedTuple):
    """One peer's view of a remote peer.

    An immutable value: a link owner that hears of a change (range move,
    new child, replacement) *replaces* the snapshot it holds, never edits
    it, so one object is safely shared by every linker of a slot — the
    bulk build and the ground-truth rebuild both hand out exactly one per
    occupied slot (DESIGN.md, "Memory is part of the contract").  A tuple
    rather than a frozen dataclass: a 100k-peer network holds on the order
    of N·log N link slots (every routing-table row is one) and builds a
    snapshot per announced change, and a frozen dataclass's ``__init__``
    costs about twice a tuple's.
    """

    address: Address
    position: Position
    range: Range
    left_child: Optional[Address] = None
    right_child: Optional[Address] = None

    @property
    def has_both_children(self) -> bool:
        return self.left_child is not None and self.right_child is not None

    @property
    def has_any_child(self) -> bool:
        return self.left_child is not None or self.right_child is not None

    def __str__(self) -> str:
        return f"peer@{self.address}{self.position}{self.range}"


#: ``ROW_DISTANCES[w]`` is ``(1, 2, 4, …, 2^(w-1))``: the heap-code offsets
#: of a ``w``-row table's slots, nearest first (prefixes of one tuple, so
#: the ints are shared).  Whole-table fills (the bulk build and the
#: ground-truth rebuild) read a row's slots off it.
_POWERS = tuple(1 << i for i in range(64))
ROW_DISTANCES = tuple(_POWERS[:width] for width in range(65))

#: ``new_tuple(NodeInfo, fields)`` builds a snapshot without NodeInfo's
#: Python-level constructor; the same whole-table fills use it.
new_tuple = tuple.__new__


#: Shared index ranges for the dense tables below: a table with k slots
#: always iterates 0..k-1, and k only varies with the owner's level, so
#: one range object per distinct k serves every table in the network.
@lru_cache(maxsize=64)
def _index_range(n: int) -> range:
    return range(n)


class RoutingTable:
    """One sideways routing table (left or right) of a peer.

    ``entries[i]`` describes the node at distance ``2^i`` on this side, or is
    ``None`` if that in-range slot is currently unoccupied.  ``entries`` is a
    dense list over exactly the in-range indices (slot geometry is fixed by
    the owner position): at 100k peers there are ~200k tables averaging
    log N rows each, and a dict per table was the second-largest line item
    in the memory profile after the row snapshots themselves.
    """

    __slots__ = ("owner", "side", "entries", "_slots_cache", "_valid_indices")

    def __init__(self, owner: Position, side: str, width: Optional[int] = None):
        # The slot *count* is pure arithmetic — #{i : number ± 2^i stays in
        # [1, 2^level]} — so construction never materialises the slot
        # positions; ``_slots`` builds them on first geometry lookup.  At
        # 100k peers that makes table construction O(1) per table, which
        # cut bulk-build wall-clock by almost half.  A caller that has
        # already computed that count (the ground-truth rebuild) passes it
        # as ``width``.
        if width is None:
            if side == LEFT:
                width = (owner.number - 1).bit_length()
            elif side == RIGHT:
                width = ((1 << owner.level) - owner.number).bit_length()
            else:
                raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
        self.owner = owner
        self.side = side
        self._slots_cache: Optional[Tuple[Position, ...]] = None
        self._valid_indices: range = _index_range(width)
        self.entries: List[Optional[NodeInfo]] = [None] * width

    @property
    def _slots(self) -> Tuple[Position, ...]:
        cached = self._slots_cache
        if cached is None:
            cached = self._slots_cache = _table_slots(
                self.owner.level, self.owner.number, self.side
            )
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            return NotImplemented
        return (
            self.owner == other.owner
            and self.side == other.side
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"RoutingTable(owner={self.owner!r}, side={self.side!r}, "
            f"entries={self.entries!r})"
        )

    # -- geometry -----------------------------------------------------------

    def valid_indices(self) -> range:
        """Indices i whose slot ``number ± 2^i`` exists at this level."""
        return self._valid_indices

    def position_at(self, index: int) -> Optional[Position]:
        """The slot at distance ``2^index``, or None when out of range."""
        slots = self._slots
        return slots[index] if 0 <= index < len(slots) else None

    # -- access ---------------------------------------------------------------

    def get(self, index: int) -> Optional[NodeInfo]:
        entries = self.entries
        return entries[index] if 0 <= index < len(entries) else None

    def set(self, index: int, info: Optional[NodeInfo]) -> None:
        if self.position_at(index) is None:
            raise ValueError(
                f"index {index} out of range for {self.side} table of {self.owner}"
            )
        if info is not None and info.position != self.position_at(index):
            raise ValueError(
                f"entry position {info.position} does not match slot "
                f"{self.position_at(index)}"
            )
        self.entries[index] = info

    def occupied(self) -> Iterator[tuple[int, NodeInfo]]:
        """(index, link) pairs for every non-null entry, nearest first.

        Iterates the cached slot geometry (0..k-1) rather than sorting the
        entry dict's keys on every call — this is on the hot path of both
        routing and reconcile sweeps.
        """
        entries = self.entries
        for index in self._valid_indices:
            info = entries[index]
            if info is not None:
                yield index, info

    def addresses(self) -> List[Address]:
        """Addresses of all linked neighbours on this side."""
        return [info.address for _, info in self.occupied()]

    # -- paper-level predicates -----------------------------------------------

    def is_full(self) -> bool:
        """All in-range slots occupied (the Theorem 1 condition)."""
        return None not in self.entries

    def nodes_missing_children(self) -> List[NodeInfo]:
        """Linked neighbours that do not yet have both children."""
        return [info for _, info in self.occupied() if not info.has_both_children]

    def nodes_with_children(self) -> List[NodeInfo]:
        """Linked neighbours that have at least one child."""
        return [info for _, info in self.occupied() if info.has_any_child]

    def entry_for_address(self, address: Address) -> Optional[tuple[int, NodeInfo]]:
        """Locate the entry linking to ``address``, if present."""
        entries = self.entries
        for index in self._valid_indices:
            info = entries[index]
            if info is not None and info.address == address:
                return index, info
        return None
