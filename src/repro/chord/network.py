"""The Chord ring: joins, leaves, lookups and data operations.

Message accounting mirrors the BATON side: every inter-node hop crosses the
shared :class:`~repro.net.bus.MessageBus` with a semantic category, and the
public operations return the unified result types from
:mod:`repro.core.results`, so the Figure 8 experiments read both systems
with the same code.

Every operation is written once as a *step generator* (see
:mod:`repro.util.stepper`) that yields one :class:`~repro.sim.topology.Hop`
per inter-node hop, declaring which pair of nodes the message travels
between so the event-driven runtime can price it per link.  The
synchronous facade (:class:`~repro.net.overlay.OverlayNetwork`) drives
them to completion atomically; the event-driven runtime
(:class:`~repro.sim.runtime.AsyncOverlayRuntime`, which needs no
Chord-specific code) resumes them one simulator event at a time, so
concurrent operations interleave at finger-hop granularity while sending
byte-for-byte the same message sequence as the synchronous path.

Concurrency semantics:

* Ring splices (a join's or leave's successor/predecessor rewiring) run
  atomically between yields, so the successor ring is consistent at every
  event boundary.  Finger maintenance is best-effort — a sub-lookup that
  hits a vanished node is skipped and the successor pointers keep routing
  correct — mirroring how the real protocol leans on stabilization rather
  than atomicity.
* An operation whose carrier node departs mid-flight fails with
  :class:`~repro.util.errors.PeerNotFoundError` — the client's view of a
  lost request.  A join whose find phase dies is aborted and unwound.
* Ring scans truncate (``complete=False``) when a successor vanishes
  mid-walk instead of failing the whole query, mirroring BATON's broken
  adjacent-chain behaviour.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.chord.hashing import DEFAULT_M_BITS, hash_key
from repro.chord.node import ChordNode
from repro.core.ranges import Range
from repro.core.results import (
    DataOpResult,
    JoinResult,
    LeaveResult,
    RangeSearchResult,
    SearchResult,
)
from repro.core.storage import LocalStore
from repro.net.address import Address, AddressAllocator, AddressPoolDict
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.net.overlay import OverlayNetwork
from repro.sim.topology import Hop
from repro.util.errors import (
    NetworkEmptyError,
    PeerNotFoundError,
    ProtocolError,
    ReproError,
)
from repro.util.rng import SeededRng
from repro.util.stepper import MessageSteps


@dataclass
class ChordConfig:
    """Ring-wide settings."""

    m_bits: int = DEFAULT_M_BITS


class ChordNetwork(OverlayNetwork):
    """A simulated Chord ring with per-operation message traces."""

    overlay_name = "chord"

    def __init__(self, config: Optional[ChordConfig] = None, seed: int = 0):
        self.config = config or ChordConfig()
        self.rng = SeededRng(seed)
        self.bus = MessageBus()
        self.alloc = AddressAllocator()
        self.nodes: dict[Address, ChordNode] = AddressPoolDict()
        self._used_ids: set[int] = set()

    # -- bookkeeping ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def m_bits(self) -> int:
        return self.config.m_bits

    @property
    def domain(self) -> Range:
        """Keys are hashed onto the ring, so any key is fair game."""
        return Range.full_domain()

    def node(self, address: Address) -> ChordNode:
        """The live node at ``address`` (raises if departed/unknown)."""
        try:
            return self.nodes[address]
        except KeyError:
            raise PeerNotFoundError(address) from None

    def addresses(self) -> List[Address]:
        return list(self.nodes)

    def random_peer_address(self) -> Address:
        """A uniformly random live node (query/join entry points)."""
        if not self.nodes:
            raise NetworkEmptyError("ring has no nodes")
        return self.nodes.random_address(self.rng)

    def store_of(self, address: Address) -> LocalStore:
        """The key store of the live node at ``address``."""
        return self.node(address).store

    def _new_id(self) -> int:
        space = 1 << self.m_bits
        if len(self._used_ids) >= space:
            raise ProtocolError("identifier space exhausted")
        while True:
            node_id = self.rng.randint(0, space - 1)
            if node_id not in self._used_ids:
                self._used_ids.add(node_id)
                return node_id

    @classmethod
    def build(
        cls,
        n_peers: int,
        seed: int = 0,
        config: Optional[ChordConfig] = None,
        keys: Optional[Iterable[int]] = None,
    ) -> "ChordNetwork":
        """A ring of ``n_peers`` holding ``keys``.

        Keys are hashed onto the ring, so growing around them buys nothing:
        the ring grows empty and each key goes straight to its successor.
        """
        net = super().build(n_peers, seed=seed, config=config)
        if keys is not None:
            net.bulk_load(keys)
        return net

    # -- construction ----------------------------------------------------------

    def bootstrap(self) -> Address:
        """Create the first node; it is its own successor and predecessor."""
        if self.nodes:
            raise ValueError("ring is already bootstrapped")
        node = ChordNode(self.alloc.allocate(), self._new_id(), self.m_bits)
        node.predecessor = node.address
        for i in range(self.m_bits):
            node.finger[i] = node.address
        self.nodes[node.address] = node
        self.bus.register(node.address)
        return node.address

    def spawn_node(self) -> ChordNode:
        """Allocate a node about to join.

        The node does NOT enter ``self.nodes`` yet — that happens atomically
        with the ring splice in :meth:`join_update_steps`.  Until then no
        concurrent operation can select the half-born node (successor and
        fingers still ``None``) as a query entry point or leave victim,
        which would fail it spuriously and bias the measurements.
        """
        return ChordNode(self.alloc.allocate(), self._new_id(), self.m_bits)

    def abort_join(self, node: ChordNode) -> None:
        """Withdraw a spawned node whose join died before it was spliced in."""
        if self.nodes.get(node.address) is node:
            del self.nodes[node.address]
        self.bus.unregister(node.address)
        self._used_ids.discard(node.node_id)

    def join_steps(
        self,
        entry: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Classic Chord join: lookup, init_finger_table, update_others.

        The join both facades run; ``trace`` is cut at the splice into
        the result's find and update halves (``degraded`` is unused: the
        ring has no give-up branch).  A join that raises — its lookup died
        under churn, or the successor vanished before the splice — unwinds
        the spawned node, so the ring, the bus and the id set stay as they
        were."""
        node = self.spawn_node()
        try:
            successor = yield from self.successor_steps(
                entry, node.node_id, MsgType.JOIN_FIND
            )
            find_trace = trace.frozen("chord.join.find")
            yield from self.join_update_steps(node, entry, successor)
        except ReproError:
            self.abort_join(node)
            raise
        return JoinResult(
            address=node.address,
            parent=successor,
            find_trace=find_trace,
            update_trace=trace.since(find_trace, "chord.join.update"),
        )

    def leave_steps(
        self,
        address: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Graceful departure: hand keys to the successor, repair fingers.

        The leave both facades run; the successor is known locally, so
        the find half is empty and ``trace`` is all update."""
        node = self.node(address)  # raises if the node already vanished
        find_trace = trace.frozen("chord.leave.find")
        successor: Optional[Address] = None
        if self.size == 1:
            del self.nodes[address]
            self.bus.unregister(address)
        else:
            successor = node.successor
            yield from self.leave_update_steps(node)
        return LeaveResult(
            departed=address,
            replacement=successor,
            find_trace=find_trace,
            update_trace=trace.since(find_trace, "chord.leave.update"),
        )

    # -- routing (step generators) ---------------------------------------------
    #
    # The kernel tests ring intervals as masked clockwise distances, inline:
    # with ``mask = 2^m - 1`` and ``base = low + 1``, ``value`` lies in
    # (low, high] iff ``(value - base) & mask <= (high - base) & mask`` and in
    # (low, high) iff the same with ``<`` — ``low == high`` reads as the whole
    # ring (bar ``low`` itself for the open interval), exactly as
    # :func:`~repro.chord.hashing.in_interval` / ``in_open_interval`` define
    # it.  Those helpers stay the reference definitions; the per-hop path
    # calls no helper and probes the node map once per finger.

    def predecessor_steps(
        self, start: Address, target_id: int, mtype: MsgType
    ) -> MessageSteps:
        """Hop finger by finger to the node preceding ``target_id``.

        Each hop forwards to the closest preceding finger — the highest live
        finger strictly inside (node, target) — or, when none is, to the
        successor."""
        live = self.nodes.get
        send = self.bus.send
        mask = (1 << self.config.m_bits) - 1
        current = start
        size = len(self.nodes)
        for _ in range(4 * max(size.bit_length(), 2) + size + 16):
            node = live(current)
            if node is None:
                raise PeerNotFoundError(current)
            fingers = node.finger
            successor = fingers[0]
            succ = live(successor)
            if succ is None:
                raise PeerNotFoundError(successor)
            base = node.node_id + 1
            gap = (target_id - base) & mask
            if gap <= (succ.node_id - base) & mask:
                return current
            for finger in reversed(fingers):
                hop_node = live(finger)
                if hop_node is not None and (hop_node.node_id - base) & mask < gap:
                    next_hop = finger
                    break
            else:
                next_hop = successor
            send(current, next_hop, mtype)
            yield tuple.__new__(Hop, (current, next_hop))
            current = next_hop
        raise ProtocolError(f"chord lookup for {target_id} did not terminate")

    def successor_steps(
        self, start: Address, target_id: int, mtype: MsgType
    ) -> MessageSteps:
        """``find_successor``: predecessor walk plus the final successor hop."""
        predecessor = yield from self.predecessor_steps(start, target_id, mtype)
        successor = self.node(predecessor).successor
        if successor != predecessor:
            self.bus.send(predecessor, successor, mtype)
            yield tuple.__new__(Hop, (predecessor, successor))
        return successor

    # -- join helpers -------------------------------------------------------------

    def join_update_steps(
        self, node: ChordNode, entry: Address, successor: Address
    ) -> MessageSteps:
        """The join's update phase: splice, init fingers, update others.

        The ring splice (successor/predecessor rewiring) is one atomic
        segment — the newcomer becomes a ring member, visible to entry-point
        and victim selection, only here; everything after it is best-effort
        finger maintenance that tolerates nodes vanishing under churn.
        """
        succ = self.node(successor)  # raises before any wiring: join aborts
        self.nodes[node.address] = node
        self.bus.register(node.address)
        node.successor = successor
        node.predecessor = succ.predecessor
        self.bus.send(node.address, successor, MsgType.TABLE_UPDATE)
        succ.predecessor = node.address
        if node.predecessor is not None:
            self.bus.send(node.address, node.predecessor, MsgType.TABLE_UPDATE)
            self.node(node.predecessor).successor = node.address
        yield Hop(node.address, successor)
        yield from self._init_fingers_steps(node, entry)
        yield from self.update_others_steps(node)
        try:
            self._transfer_keys_on_join(node)
        except PeerNotFoundError:
            pass  # successor vanished this instant; keys stay where they are

    def _init_fingers_steps(self, node: ChordNode, entry: Address) -> MessageSteps:
        """Fill ``finger[1:]``, reusing the previous finger when possible."""
        nodes = self.nodes
        m_bits = self.config.m_bits
        mask = (1 << m_bits) - 1
        fingers = node.finger
        base = node.node_id + 1
        for i in range(1, m_bits):
            start = (node.node_id + (1 << i)) & mask  # finger i's start id
            previous = fingers[i - 1]
            prev_node = nodes.get(previous)
            if (
                prev_node is not None
                and previous != node.address
                and (start - base) & mask <= (prev_node.node_id - base) & mask
            ):
                # The interval [start_i, previous finger] is empty of nodes:
                # reuse without a lookup (the classic optimisation).
                fingers[i] = previous
            else:
                try:
                    fingers[i] = yield from self.successor_steps(
                        entry, start, MsgType.TABLE_UPDATE
                    )
                except PeerNotFoundError:
                    fingers[i] = None  # churn broke the lookup; successors route

    def update_others_steps(self, node: ChordNode) -> MessageSteps:
        """Tell existing nodes to adopt the newcomer into their fingers."""
        space = 1 << self.m_bits
        for i in range(self.m_bits):
            target = (node.node_id - (1 << i)) % space
            try:
                predecessor = yield from self.predecessor_steps(
                    node.address, target, MsgType.TABLE_UPDATE
                )
            except PeerNotFoundError:
                continue  # lookup died under churn; stabilization territory
            yield from self.update_finger_table_steps(predecessor, node, i)

    def update_finger_table_steps(
        self, address: Address, node: ChordNode, index: int
    ) -> MessageSteps:
        """Cascade a finger adoption backwards along predecessors."""
        nodes = self.nodes
        send = self.bus.send
        mask = (1 << self.config.m_bits) - 1
        current = address
        for _ in range(len(nodes) + 4):
            holder = nodes.get(current)
            if holder is None or holder.address == node.address:
                return
            finger_node = nodes.get(holder.finger[index])
            base = holder.node_id + 1
            if (
                finger_node is None
                or (node.node_id - base) & mask < (finger_node.node_id - base) & mask
            ):
                send(node.address, current, MsgType.TABLE_UPDATE)
                holder.finger[index] = node.address
                if holder.predecessor is None or holder.predecessor == current:
                    return
                yield Hop(current, holder.predecessor)  # cascade backwards
                current = holder.predecessor
            else:
                return

    def _transfer_keys_on_join(self, node: ChordNode) -> None:
        """Pull the keys the newcomer is now responsible for."""
        succ = self.node(node.successor)
        if succ.address == node.address:
            return
        self.bus.send(node.address, succ.address, MsgType.JOIN_TRANSFER)
        m_bits = self.config.m_bits
        mask = (1 << m_bits) - 1
        pred = self.nodes.get(node.predecessor)
        base = (pred.node_id if pred is not None else node.node_id) + 1
        span = (node.node_id - base) & mask  # keys hashed into (pred, node]
        moved = [
            key for key in succ.store if (hash_key(key, m_bits) - base) & mask <= span
        ]
        for key in moved:
            succ.store.delete(key)
        node.store.extend(moved)

    # -- leave helpers ------------------------------------------------------------

    def leave_update_steps(self, node: ChordNode) -> MessageSteps:
        """Hand keys over, repoint the ring (atomic), then repair fingers."""
        successor = node.successor
        succ = self.node(successor)
        self.bus.send(node.address, successor, MsgType.LEAVE_TRANSFER)
        succ.store.extend(node.store.clear())
        succ.predecessor = node.predecessor
        if node.predecessor is not None and node.predecessor in self.nodes:
            self.bus.send(node.address, node.predecessor, MsgType.LEAVE_TRANSFER)
            self.nodes[node.predecessor].successor = successor
        yield Hop(node.address, successor)
        yield from self.repoint_fingers_steps(node)
        if self.nodes.get(node.address) is node:
            del self.nodes[node.address]
        self.bus.unregister(node.address)

    def repoint_fingers_steps(self, node: ChordNode) -> MessageSteps:
        """Repair fingers that pointed at the departing node (Θ(log² N))."""
        nodes = self.nodes
        space = 1 << self.m_bits
        successor = node.successor
        for i in range(self.m_bits):
            target = (node.node_id - (1 << i)) % space
            try:
                predecessor = yield from self.predecessor_steps(
                    node.address, target, MsgType.TABLE_UPDATE
                )
            except PeerNotFoundError:
                continue  # repair lookup died under churn; fingers stay stale
            current = predecessor
            for _ in range(len(nodes) + 4):
                holder = nodes.get(current)
                if holder is None or holder.finger[i] != node.address:
                    break
                self.bus.send(node.address, current, MsgType.TABLE_UPDATE)
                holder.finger[i] = successor
                if holder.predecessor is None or holder.predecessor == current:
                    break
                yield Hop(current, holder.predecessor)
                current = holder.predecessor

    # -- data operations -----------------------------------------------------------

    def search_exact_steps(
        self,
        start: Address,
        key: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Hash the key and look up its successor (``degraded`` is unused:
        the ring has no give-up branch)."""
        owner = yield from self.successor_steps(
            start, hash_key(key, self.m_bits), MsgType.SEARCH
        )
        found = key in self.node(owner).store
        return SearchResult(found=found, owner=owner, trace=trace)

    def search_range_steps(
        self,
        start: Address,
        low: int,
        high: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Range scan on a hash-partitioned ring: visit *every* node.

        Hashing scatters [low, high) uniformly over the ring, so the only
        complete answer walks all successors — the O(N) cliff that motivates
        order-preserving overlays like BATON.  ``complete`` is True only
        when the walk closed the full ring; a vanished successor truncates
        the answer, exactly like a broken adjacent chain does in BATON.
        """
        owners: List[Address] = []
        keys: List[int] = []
        complete = False
        current = start
        for _ in range(max(self.size, 1)):
            node = self.nodes.get(current)
            if node is None:
                break  # walk carrier vanished: truncated answer
            owners.append(current)
            keys.extend(node.store.keys_in(low, high))
            successor = node.successor
            if successor == start:
                complete = True
                break
            if successor is None:
                break
            try:
                self.bus.send(current, successor, MsgType.RANGE_SEARCH)
            except PeerNotFoundError:
                break  # dead successor: partial answer
            yield tuple.__new__(Hop, (current, successor))
            current = successor
        return RangeSearchResult(
            owners=owners, keys=sorted(keys), trace=trace, complete=complete
        )

    def data_op_steps(
        self,
        start: Address,
        key: int,
        mtype: MsgType,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Insert or delete ``key`` at its hashed successor node."""
        owner = yield from self.successor_steps(
            start, hash_key(key, self.m_bits), mtype
        )
        store = self.node(owner).store
        if mtype is MsgType.INSERT:
            store.insert(key)
            applied = True
        else:
            applied = store.delete(key)
        return DataOpResult(applied=applied, owner=owner, trace=trace)

    def bulk_load(self, keys: List[int]) -> int:
        """Place keys at their owners without routed messages (untimed load)."""
        by_id = sorted(
            (node.node_id, address) for address, node in self.nodes.items()
        )
        ids = [node_id for node_id, _ in by_id]
        placed = 0
        for key in keys:
            key_id = hash_key(key, self.m_bits)
            index = bisect.bisect_left(ids, key_id)
            if index == len(ids):
                index = 0
            self.nodes[by_id[index][1]].store.insert(key)
            placed += 1
        return placed
