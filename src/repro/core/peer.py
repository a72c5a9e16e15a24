"""The state one BATON peer maintains.

Exactly the link set from §III: parent, two children, two adjacent nodes
(in-order predecessor/successor) and the two sideways routing tables — plus
the range it manages and its local key store.  Peers never reach into each
other's state directly; the protocol modules move information between peers
via counted messages and then call these local mutators.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.ids import Position
from repro.core.links import LEFT, RIGHT, NodeInfo, RoutingTable
from repro.core.ranges import Range
from repro.core.storage import LocalStore
from repro.net.address import Address


class BatonPeer:
    """A peer occupying one tree position.

    Slotted: peers are the unit of population, and at N=100k the
    per-instance ``__dict__`` of an open class costs more than the links
    it holds.  The slot list **is** the public attribute API — every field
    below is read and written by the protocol modules and tests.
    """

    __slots__ = (
        "address",
        "position",
        "range",
        "store",
        "replicas",
        "replica_anchor",
        "parent",
        "left_child",
        "right_child",
        "left_adjacent",
        "right_adjacent",
        "left_table",
        "right_table",
        "subscriptions",
        "seen_messages",
        "route_cache",
    )

    def __init__(self, address: Address, position: Position, range_: Range):
        self.address = address
        self.position = position
        self.range = range_
        self.store = LocalStore()
        #: Mirrored stores of other peers (replication extension; keyed by
        #: the owner's address).  Empty unless ``BatonConfig.replication``.
        self.replicas: dict[Address, list[int]] = {}
        #: Where this peer's own mirror was last anchored (replication
        #: extension).  Write-throughs follow the anchor while it is live;
        #: a replica refresh re-anchors at the current adjacent and cleans
        #: the old anchor, so stale mirrors never accumulate.
        self.replica_anchor: Optional[Address] = None
        self.parent: Optional[NodeInfo] = None
        self.left_child: Optional[NodeInfo] = None
        self.right_child: Optional[NodeInfo] = None
        self.left_adjacent: Optional[NodeInfo] = None
        self.right_adjacent: Optional[NodeInfo] = None
        self.left_table = RoutingTable(owner=position, side=LEFT)
        self.right_table = RoutingTable(owner=position, side=RIGHT)
        #: Range subscriptions stored at this owner, keyed by sub_id
        #: (dissemination extension).  Lazily allocated: ``None`` until
        #: the first entry lands, so pub/sub-free populations pay nothing.
        self.subscriptions: Optional[dict] = None
        #: Bounded window of applied dissemination ids (exactly-once
        #: application; see ``repro.pubsub.state``).  Lazy like above.
        self.seen_messages: Optional[dict] = None
        #: Hot-range routing cache (locality extension; see
        #: :mod:`repro.core.cache`).  Lazy like above: ``None`` until this
        #: peer originates a resolved walk with the cache enabled, so
        #: cache-off populations pay nothing.
        self.route_cache = None

    # -- descriptive properties ---------------------------------------------

    @property
    def level(self) -> int:
        return self.position.level

    @property
    def is_leaf(self) -> bool:
        return self.left_child is None and self.right_child is None

    def snapshot(self) -> NodeInfo:
        """A fresh :class:`NodeInfo` describing this peer to others."""
        return NodeInfo(
            address=self.address,
            position=self.position,
            range=self.range,
            left_child=self.left_child.address if self.left_child else None,
            right_child=self.right_child.address if self.right_child else None,
        )

    def tables_full(self) -> bool:
        """Theorem 1 condition: both sideways tables have no null entry."""
        return self.left_table.is_full() and self.right_table.is_full()

    def can_accept_child(self) -> bool:
        """Algorithm 1 acceptance test: full tables and a free child slot."""
        return self.tables_full() and (
            self.left_child is None or self.right_child is None
        )

    # -- generic link access ----------------------------------------------------

    def child_on(self, side: str) -> Optional[NodeInfo]:
        return self.left_child if side == LEFT else self.right_child

    def set_child(self, side: str, info: Optional[NodeInfo]) -> None:
        if side == LEFT:
            self.left_child = info
        else:
            self.right_child = info

    def adjacent_on(self, side: str) -> Optional[NodeInfo]:
        return self.left_adjacent if side == LEFT else self.right_adjacent

    def set_adjacent(self, side: str, info: Optional[NodeInfo]) -> None:
        if side == LEFT:
            self.left_adjacent = info
        else:
            self.right_adjacent = info

    def table_on(self, side: str) -> RoutingTable:
        return self.left_table if side == LEFT else self.right_table

    def iter_links(self) -> Iterator[tuple[str, NodeInfo]]:
        """Every non-null link, labelled by kind.

        Because all BATON link relations are symmetric (x links y iff y links
        x), this is exactly the set of peers that must be notified when this
        peer's state changes.
        """
        if self.parent is not None:
            yield "parent", self.parent
        if self.left_child is not None:
            yield "left_child", self.left_child
        if self.right_child is not None:
            yield "right_child", self.right_child
        if self.left_adjacent is not None:
            yield "left_adjacent", self.left_adjacent
        if self.right_adjacent is not None:
            yield "right_adjacent", self.right_adjacent
        for _, info in self.left_table.occupied():
            yield "left_table", info
        for _, info in self.right_table.occupied():
            yield "right_table", info

    def link_addresses(self) -> List[Address]:
        """Deduplicated addresses of every linked peer."""
        seen: dict[Address, None] = {}
        for _, info in self.iter_links():
            seen.setdefault(info.address, None)
        return list(seen)

    # -- table entry addressing by position ------------------------------------

    def table_slot_for(self, position: Position) -> Optional[tuple[str, int]]:
        """Which (side, index) of my tables covers ``position``, if any.

        Returns None when the position is not at my level or not at a
        power-of-two distance.
        """
        entries, index = self._row_for(position)
        if entries is None:
            return None
        return (LEFT if entries is self.left_table.entries else RIGHT), index

    def _row_for(self, position: Position) -> tuple[Optional[list], int]:
        """``(entries, index)`` of the table slot covering ``position``.

        ``(None, -1)`` when there is none: ``position`` is not at my level,
        or not a power-of-two distance away.  The row itself comes back so
        the caller writes ``entries[index]`` directly; the slot is the
        position's own, so :meth:`RoutingTable.set`'s checks could never
        fire on it.
        """
        own = self.position
        if position.level == own.level:
            delta = position.number - own.number
            if delta > 0:
                if not delta & (delta - 1):
                    return self.right_table.entries, delta.bit_length() - 1
            elif delta < 0:
                delta = -delta
                if not delta & (delta - 1):
                    return self.left_table.entries, delta.bit_length() - 1
        return None, -1

    def set_table_entry(self, info: NodeInfo) -> bool:
        """Record ``info`` in whichever table slot matches its position."""
        entries, index = self._row_for(info.position)
        if entries is None:
            return False
        entries[index] = info
        return True

    def clear_table_entry(self, position: Position) -> bool:
        """Null out the slot for ``position`` (neighbour departed)."""
        entries, index = self._row_for(position)
        if entries is None:
            return False
        entries[index] = None
        return True

    # -- updating knowledge about other peers -----------------------------------

    def update_link_info(self, info: NodeInfo) -> int:
        """Refresh every link slot that points at ``info.address``.

        Returns the number of slots refreshed.  Used when a linked peer
        announces a change (new range, new child, position move).  One
        table entry per side at most: the slot ``info``'s position expects
        it at is refreshed in place; otherwise the first entry naming the
        peer was parked at a stale slot by a position move and is dropped.
        """
        address = info.address
        if self.route_cache is not None:
            # The announcing peer's snapshot already paid its message;
            # correcting a cached route from it is free (locality cache's
            # restructure hook — see repro.core.cache).
            info_range = info.range
            self.route_cache.refresh(address, info_range.low, info_range.high)
        updated = 0
        link = self.parent
        if link is not None and link.address == address:
            self.parent = info
            updated += 1
        link = self.left_child
        if link is not None and link.address == address:
            self.left_child = info
            updated += 1
        link = self.right_child
        if link is not None and link.address == address:
            self.right_child = info
            updated += 1
        link = self.left_adjacent
        if link is not None and link.address == address:
            self.left_adjacent = info
            updated += 1
        link = self.right_adjacent
        if link is not None and link.address == address:
            self.right_adjacent = info
            updated += 1
        expected, index = self._row_for(info.position)
        for entries in (self.left_table.entries, self.right_table.entries):
            if entries is expected:
                current = entries[index]
                if current is not None and current.address == address:
                    entries[index] = info
                    updated += 1
                    continue
            for current in entries:
                if current is not None and current.address == address:
                    # Parked at a stale slot by a position move.
                    entries[entries.index(current)] = None
                    updated += 1
                    break
        return updated

    def replace_link_address(self, old: Address, info: NodeInfo) -> int:
        """Repoint every link slot from ``old`` to the replacement peer.

        Used when a replacement node takes over a departed peer's position
        (§III-B): the logical position is unchanged but the physical address
        is new.  In each table the first entry naming ``old`` takes
        ``info`` when it sits at ``info``'s slot and is dropped otherwise.
        """
        if self.route_cache is not None:
            # The departed address can never answer a shortcut again.
            self.route_cache.invalidate(old)
        updated = 0
        link = self.parent
        if link is not None and link.address == old:
            self.parent = info
            updated += 1
        link = self.left_child
        if link is not None and link.address == old:
            self.left_child = info
            updated += 1
        link = self.right_child
        if link is not None and link.address == old:
            self.right_child = info
            updated += 1
        link = self.left_adjacent
        if link is not None and link.address == old:
            self.left_adjacent = info
            updated += 1
        link = self.right_adjacent
        if link is not None and link.address == old:
            self.right_adjacent = info
            updated += 1
        expected, index = self._row_for(info.position)
        for entries in (self.left_table.entries, self.right_table.entries):
            updated += _repoint(
                entries, index if entries is expected else -1, old, info
            )
        return updated

    # -- position changes (restructuring) ---------------------------------------

    def move_to(self, position: Position) -> None:
        """Take over a new tree position, clearing position-bound links.

        The caller (restructuring protocol) is responsible for rebuilding
        links afterwards; range and store travel with the peer ("no data
        movement is required", §III-E).
        """
        self.position = position
        self.parent = None
        self.left_child = None
        self.right_child = None
        self.left_adjacent = None
        self.right_adjacent = None
        self.left_table = RoutingTable(owner=position, side=LEFT)
        self.right_table = RoutingTable(owner=position, side=RIGHT)

    def __repr__(self) -> str:
        return f"BatonPeer(addr={self.address}, pos={self.position}, range={self.range})"


def _repoint(
    entries: List[Optional[NodeInfo]], index: int, old: Address, info: NodeInfo
) -> int:
    """Repoint a table row's first entry naming ``old``: to ``info`` when it
    sits at ``index`` (``info``'s own slot), to ``None`` elsewhere.  Returns
    1 if the row named ``old`` at all, else 0."""
    for current in entries:
        if current is not None and current.address == old:
            # ``list.index`` (in C) finds this very row: an earlier entry
            # equal to ``current`` would name ``old`` too.
            i = entries.index(current)
            entries[i] = info if i == index else None
            return 1
    return 0
