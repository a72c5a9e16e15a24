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
        if position.level != self.level:
            return None
        delta = position.number - self.position.number
        if delta == 0:
            return None
        side = RIGHT if delta > 0 else LEFT
        distance = abs(delta)
        if distance & (distance - 1) != 0:
            return None
        return side, distance.bit_length() - 1

    def set_table_entry(self, info: NodeInfo) -> bool:
        """Record ``info`` in whichever table slot matches its position."""
        slot = self.table_slot_for(info.position)
        if slot is None:
            return False
        side, index = slot
        self.table_on(side).set(index, info)
        return True

    def clear_table_entry(self, position: Position) -> bool:
        """Null out the slot for ``position`` (neighbour departed)."""
        slot = self.table_slot_for(position)
        if slot is None:
            return False
        side, index = slot
        self.table_on(side).set(index, None)
        return True

    # -- updating knowledge about other peers -----------------------------------

    def update_link_info(self, info: NodeInfo) -> int:
        """Refresh every link slot that points at ``info.address``.

        Returns the number of slots refreshed.  Used when a linked peer
        announces a change (new range, new child, position move).
        """
        if self.route_cache is not None:
            # The announcing peer's snapshot already paid its message;
            # correcting a cached route from it is free (locality cache's
            # restructure hook — see repro.core.cache).
            info_range = info.range
            self.route_cache.refresh(
                info.address, info_range.low, info_range.high
            )
        updated = 0
        if self.parent is not None and self.parent.address == info.address:
            self.parent = info
            updated += 1
        # Fast path for the tables: when the announcing peer sits exactly
        # where my geometry expects it (the overwhelmingly common case),
        # its entry can only live in that one slot — no scan needed.  The
        # scan below still catches entries parked at a stale slot after a
        # position move.
        expected_slot = self.table_slot_for(info.position)
        for side in (LEFT, RIGHT):
            child = self.child_on(side)
            if child is not None and child.address == info.address:
                self.set_child(side, info)
                updated += 1
            adjacent = self.adjacent_on(side)
            if adjacent is not None and adjacent.address == info.address:
                self.set_adjacent(side, info)
                updated += 1
            table = self.table_on(side)
            if expected_slot is not None and expected_slot[0] == side:
                index = expected_slot[1]
                current = table.get(index)
                if current is not None and current.address == info.address:
                    table.set(index, info)
                    updated += 1
                    continue
            found = table.entry_for_address(info.address)
            if found is not None:
                index, _ = found
                if table.position_at(index) == info.position:
                    table.set(index, info)
                else:
                    table.set(index, None)
                updated += 1
        return updated

    def replace_link_address(self, old: Address, info: NodeInfo) -> int:
        """Repoint every link slot from ``old`` to the replacement peer.

        Used when a replacement node takes over a departed peer's position
        (§III-B): the logical position is unchanged but the physical address
        is new.
        """
        if self.route_cache is not None:
            # The departed address can never answer a shortcut again.
            self.route_cache.invalidate(old)
        updated = 0
        if self.parent is not None and self.parent.address == old:
            self.parent = info
            updated += 1
        for side in (LEFT, RIGHT):
            child = self.child_on(side)
            if child is not None and child.address == old:
                self.set_child(side, info)
                updated += 1
            adjacent = self.adjacent_on(side)
            if adjacent is not None and adjacent.address == old:
                self.set_adjacent(side, info)
                updated += 1
            table = self.table_on(side)
            found = table.entry_for_address(old)
            if found is not None:
                index, _ = found
                if table.position_at(index) == info.position:
                    table.set(index, info)
                else:
                    table.set(index, None)
                updated += 1
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
