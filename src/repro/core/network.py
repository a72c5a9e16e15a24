"""The BATON overlay network: public API and shared protocol plumbing.

:class:`BatonNetwork` owns the peers, the message bus and the position map,
and exposes the paper's operations — join, leave, fail/repair, insert,
delete, exact-match and range search — by delegating to the protocol modules
(:mod:`repro.core.join`, :mod:`repro.core.leave`, …).

Honesty rules (see DESIGN.md at the repository root): protocol decisions use
only the acting peer's local links.  The global position map kept here serves
three sanctioned purposes only — the invariant checker, the restructuring
link-rebuild helper (a documented cost-model substitution), and test
assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.core.ids import ROOT, Position
from repro.core.links import LEFT, RIGHT, NodeInfo
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.core.results import (
    DataOpResult,
    JoinResult,
    LeaveResult,
    NetworkStats,
    RangeSearchResult,
    RepairResult,
    SearchResult,
)
from repro.net.address import Address, AddressAllocator
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.util.errors import NetworkEmptyError, PeerNotFoundError
from repro.util.rng import SeededRng


@dataclass
class LoadBalanceConfig:
    """Tuning for §IV-D load balancing.

    A peer is *overloaded* when its store exceeds ``capacity`` keys and
    *lightly loaded* when below ``low_watermark * capacity``.  An overloaded
    leaf first tries its adjacent nodes; an adjacent node can absorb keys if
    that keeps it under ``absorb_factor * capacity``.  Otherwise the leaf
    recruits a lightly loaded leaf found by probing through the routing
    tables (``probe_limit`` probes at most).
    """

    capacity: int = 200
    low_watermark: float = 0.25
    absorb_factor: float = 0.75
    probe_limit: int = 16
    enabled: bool = True
    #: Ablation toggle: with rejoins disabled, overloaded leaves only shift
    #: data to adjacents — the "ripple through the network" regime §IV-D
    #: argues against.
    allow_rejoin: bool = True


@dataclass
class LocalityConfig:
    """The locality extension's knobs (DESIGN.md, "Locality contract").

    Everything defaults off, in which case every code path is byte-for-byte
    the paper's protocol: no extra rng draws, no extra messages, identical
    event logs (pinned by tests/test_locality.py).
    """

    #: Topology-aware join: the contact peer probes this many candidate
    #: entry points (itself included) on the joiner's behalf and forwards
    #: the Algorithm 1 walk to the cheapest neighbourhood.  0/1 disables
    #: probing.  Requires ``BatonNetwork.topology`` to be set.
    join_probes: int = 0
    #: Region-diverse replica placement: mirror at the nearest linked peer
    #: in a *different* region when the topology exposes ``region_of``;
    #: falls back to the plain adjacent holder otherwise.
    replica_diversity: bool = False
    #: Hot-range routing cache capacity per peer (entries); 0 disables the
    #: cache entirely (no per-peer cache objects are ever allocated).
    cache_size: int = 0

    def __post_init__(self) -> None:
        if self.join_probes < 0:
            raise ValueError("join_probes cannot be negative")
        if self.cache_size < 0:
            raise ValueError("cache_size cannot be negative")


@dataclass
class BatonConfig:
    """Network-wide settings."""

    domain: Range = field(default_factory=Range.full_domain)
    #: "median" splits a parent's range at the median of its stored keys
    #: (data-aware, the paper's "splits half of its content"); "midpoint"
    #: splits the range arithmetically.  Ablation toggle.
    split_policy: str = "median"
    balance: LoadBalanceConfig = field(default_factory=LoadBalanceConfig)
    #: Data-durability extension (not in the paper): mirror each peer's
    #: store at its right adjacent and restore it during repair.  See
    #: :mod:`repro.core.replication`.
    replication: bool = False
    #: Locality extension (not in the paper): topology-aware joins,
    #: region-diverse replicas, hot-range routing cache.  See
    #: :mod:`repro.core.cache` and DESIGN.md's "Locality contract".
    locality: LocalityConfig = field(default_factory=LocalityConfig)

    def __post_init__(self) -> None:
        if self.split_policy not in ("median", "midpoint"):
            raise ValueError(f"unknown split policy {self.split_policy!r}")


class UpdateChannel:
    """Delivery channel for third-party routing-state notifications.

    In normal (immediate) mode a notification is counted on the bus and
    applied at the receiver right away.  In *deferred* mode — used by the
    network-dynamics experiment (Fig 8i) to model update-propagation delay —
    the message is still counted at send time (it is in flight) but the
    receiver-side application is queued until :meth:`flush`.  Queries issued
    in between see stale link state and pay recovery messages, which is
    exactly the effect §V-E measures.

    A third mode serves the event-driven runtime (:mod:`repro.sim.runtime`):
    when a *delivery sink* is installed, each notification's receiver-side
    application is handed to the sink, which schedules it on the simulator
    at a per-message sampled latency.  The channel tracks how many such
    applications are still in flight so degraded-routing heuristics can
    tell that link state is transiently stale.

    Only fire-and-forget refreshes go through this channel.  Request/response
    handshakes inside join/leave (which the initiator blocks on) are always
    immediate.
    """

    def __init__(self, bus: MessageBus):
        self._bus = bus
        self.deferred = False
        self._queue: List[Callable[[], None]] = []
        self._sink: Optional[
            Callable[[Address, Address, Callable[[], None]], None]
        ] = None
        self.in_flight = 0

    def set_sink(
        self,
        sink: Optional[Callable[[Address, Address, Callable[[], None]], None]],
    ) -> None:
        """Route receiver-side applications through ``sink`` (None restores
        immediate application).  The sink takes the source and destination
        addresses and a zero-argument deliver callback, and decides when to
        invoke it — the link identity lets the runtime price the delivery
        per (src, dst) link, and the destination lets it drain a peer's
        in-flight updates before that peer hands its state to a
        replacement."""
        self._sink = sink

    def notify(
        self,
        src: Address,
        dst: Address,
        mtype: MsgType,
        apply: Callable[[], None],
    ) -> bool:
        """Send one notification; returns False if the target is dead."""
        try:
            self._bus.send(src, dst, mtype)
        except PeerNotFoundError:
            return False
        if self._sink is not None:
            self.in_flight += 1

            def deliver() -> None:
                self.in_flight -= 1
                apply()

            self._sink(src, dst, deliver)
        elif self.deferred:
            self._queue.append(apply)
        else:
            apply()
        return True

    @property
    def pending_count(self) -> int:
        return len(self._queue) + self.in_flight

    def flush(self) -> int:
        """Apply every queued notification; returns how many were applied."""
        applied = 0
        while self._queue:
            action = self._queue.pop(0)
            action()
            applied += 1
        return applied


class BatonNetwork:
    """A simulated BATON overlay."""

    def __init__(self, config: Optional[BatonConfig] = None, seed: int = 0):
        self.config = config or BatonConfig()
        self.rng = SeededRng(seed)
        self.bus = MessageBus()
        self.updates = UpdateChannel(self.bus)
        self.alloc = AddressAllocator()
        self.peers: Dict[Address, BatonPeer] = {}
        #: Live addresses as a flat pool with swap-remove bookkeeping, so a
        #: uniform entry-point draw is O(1).  The old implementation sorted
        #: the peer dict on every draw — O(N log N) per submitted query,
        #: the dominant cost of the workload driver beyond N≈10k.
        self._address_pool: List[Address] = []
        self._pool_index: Dict[Address, int] = {}
        #: Peers that failed abruptly; state retained for the repair
        #: coordinator's reconstruction and for test assertions.
        self.ghosts: Dict[Address, BatonPeer] = {}
        self.stats = NetworkStats()
        #: The position map, keyed by ``Position.code``; read and written
        #: only in this class (``occupant`` / ``occupied_positions`` /
        #: ``occupancy`` out, the four bookkeeping methods below in).
        self._positions: Dict[int, Address] = {}
        #: Back-off bookkeeping for §IV-D (see balance.maybe_balance).
        self._balance_backoff: Dict[Address, int] = {}
        #: Dissemination ids and pub/sub counters (see repro.pubsub).
        #: Imported lazily: repro.pubsub reaches repro.sim for Hop, which
        #: imports this module right back.
        from repro.pubsub.state import PubSubState

        self.pubsub = PubSubState()
        #: The run's physical topology, when one exists (locality
        #: extension).  The async runtime installs its own; synchronous
        #: callers that want topology-aware joins or region-diverse
        #: replicas set it explicitly.  Protocol decisions only ever read
        #: the deterministic ``direct_delay``/``region_of`` surface — never
        #: the jittered ``sample`` stream — so setting it perturbs nothing.
        self.topology = None
        #: Hot-range cache counters, shared by every peer's cache (locality
        #: extension; all-zero unless ``config.locality.cache_size > 0``).
        from repro.core.cache import CacheStats

        self.cache_stats = CacheStats()
        self.bus.set_level_resolver(self._level_of)

    # -- bookkeeping ---------------------------------------------------------

    def _level_of(self, address: Address) -> Optional[int]:
        peer = self.peers.get(address)
        return peer.position.level if peer is not None else None

    @property
    def size(self) -> int:
        """Number of live peers."""
        return len(self.peers)

    def peer(self, address: Address) -> BatonPeer:
        """The live peer at ``address`` (raises if dead/unknown)."""
        try:
            return self.peers[address]
        except KeyError:
            raise PeerNotFoundError(address) from None

    def occupant(self, position: Position) -> Optional[Address]:
        """Address occupying a tree position (sanctioned uses only)."""
        return self._positions.get(position.code)

    def occupied_positions(self) -> Iterator[tuple[Position, Address]]:
        """Every occupied slot with its occupant, ghost-held slots included
        (sanctioned uses only: the invariant checker and tests)."""
        for code, address in self._positions.items():
            yield Position.from_code(code), address

    def occupancy(self) -> Mapping[int, Address]:
        """Read-only live view of the position map, keyed by heap code
        (``Position.code``) — what the ground-truth link rebuild walks."""
        return MappingProxyType(self._positions)

    def addresses(self) -> List[Address]:
        return list(self.peers)

    def random_peer_address(self) -> Address:
        """A uniformly random live peer (query/join entry points), O(1)."""
        pool = self._address_pool
        if not pool:
            raise NetworkEmptyError("network has no peers")
        return pool[self.rng.randint(0, len(pool) - 1)]

    def register_peer(self, peer: BatonPeer) -> None:
        self.peers[peer.address] = peer
        self._positions[peer.position.code] = peer.address
        if peer.address not in self._pool_index:
            self._pool_index[peer.address] = len(self._address_pool)
            self._address_pool.append(peer.address)
        self.bus.register(peer.address)

    def unregister_peer(self, address: Address) -> BatonPeer:
        peer = self.peers.pop(address)
        self.release_slot(peer)
        self.pool_discard(address)
        self.bus.unregister(address)
        return peer

    def pool_discard(self, address: Address) -> None:
        """Swap-remove ``address`` from the O(1) entry-point pool.

        Pool order is irrelevant to a uniform draw; the draw itself is what
        must stay O(1).  Called by :meth:`unregister_peer` and by the abrupt
        failure path, which removes a peer without the leave protocol.
        """
        index = self._pool_index.pop(address, None)
        if index is None:
            return
        last = self._address_pool.pop()
        if last != address:
            self._address_pool[index] = last
            self._pool_index[last] = index

    def release_slot(self, peer: BatonPeer) -> None:
        """Vacate ``peer``'s slot in the position map if it still holds it.

        Called on its own by repair: a failed peer keeps its slot until the
        repair has decided what fills it.
        """
        code = peer.position.code
        if self._positions.get(code) == peer.address:
            del self._positions[code]

    def record_move(self, peer: BatonPeer, old_position: Position) -> None:
        """Update the position map after a restructuring move."""
        old_code = old_position.code
        if self._positions.get(old_code) == peer.address:
            del self._positions[old_code]
        self._positions[peer.position.code] = peer.address

    # -- construction ----------------------------------------------------------

    def bootstrap(self) -> Address:
        """Create the first peer, owning the whole domain, at the root."""
        if self.peers:
            raise ValueError("network is already bootstrapped")
        peer = BatonPeer(self.alloc.allocate(), ROOT, self.config.domain)
        self.register_peer(peer)
        self.stats.joins += 1
        return peer.address

    @classmethod
    def build(
        cls,
        n_peers: int,
        seed: int = 0,
        config: Optional[BatonConfig] = None,
        bulk: bool = False,
        keys: Optional[Iterable[int]] = None,
    ) -> "BatonNetwork":
        """Convenience constructor: bootstrap and join ``n_peers - 1`` peers.

        ``bulk=True`` computes the final balanced tree directly instead of
        simulating N joins (see :mod:`repro.core.bulk_build` and DESIGN.md's
        "Construction contract") — same shape, same links, zero messages;
        entry-point placement differs only in that joins are random-entry.
        ``keys`` (bulk only) is the dataset to load while building.  The
        scale profile (``python -m repro profile``) and the end-to-end
        benchmark build BATON this way; protocol tests that pin message
        traces keep joins.
        """
        if n_peers < 1:
            raise ValueError("need at least one peer")
        if keys is not None and not bulk:
            raise ValueError("keys= requires bulk=True (joins load via insert)")
        if bulk:
            from repro.core.bulk_build import populate_balanced

            net = cls(config=config, seed=seed)
            populate_balanced(net, n_peers, keys=keys)
            return net
        net = cls(config=config, seed=seed)
        net.bootstrap()
        for _ in range(n_peers - 1):
            net.join()
        return net

    # -- operations (delegate to protocol modules) ------------------------------

    def join(self, via: Optional[Address] = None) -> JoinResult:
        """Add one peer, contacting ``via`` (default: a random peer)."""
        from repro.core import join as join_protocol

        start = via if via is not None else self.random_peer_address()
        result = join_protocol.join(self, start)
        self.stats.joins += 1
        return result

    def leave(self, address: Address) -> LeaveResult:
        """Gracefully remove the peer at ``address``."""
        from repro.core import leave as leave_protocol

        result = leave_protocol.leave(self, address)
        self.stats.leaves += 1
        return result

    def fail(self, address: Address) -> None:
        """Abrupt departure: the peer vanishes without any protocol."""
        from repro.core import failure as failure_protocol

        failure_protocol.fail(self, address)
        self.stats.failures += 1

    def repair(self, failed: Address) -> RepairResult:
        """Run the §III-C repair for a failed peer."""
        from repro.core import failure as failure_protocol

        result = failure_protocol.repair(self, failed)
        self.stats.repairs += 1
        return result

    def repair_all(self) -> List[RepairResult]:
        """Repair every outstanding failure, retrying order-sensitive cases.

        Concurrent failures can depend on each other (a replacement's parent
        failed too); repairing in a different order resolves them, mirroring
        how independent repairs interleave in a real deployment.
        """
        from repro.core import failure as failure_protocol
        from repro.util.errors import ProtocolError

        def attempt(address: Address) -> Optional[RepairResult]:
            try:
                return self.repair(address)
            except ProtocolError:
                return None  # blocked on another ghost; a later pass retries

        return failure_protocol.repair_in_passes(self, attempt)

    def search_exact(
        self, key: int, via: Optional[Address] = None
    ) -> SearchResult:
        """Route an exact-match query from ``via`` (default random peer)."""
        from repro.core import search as search_protocol

        start = via if via is not None else self.random_peer_address()
        return search_protocol.search_exact(self, start, key)

    def search_range(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> RangeSearchResult:
        """Route a range query for [low, high) from ``via``."""
        from repro.core import search as search_protocol

        start = via if via is not None else self.random_peer_address()
        return search_protocol.search_range(self, start, low, high)

    def insert(self, key: int, via: Optional[Address] = None) -> DataOpResult:
        """Route an insert; may trigger load balancing (§IV-D)."""
        from repro.core import data as data_protocol

        start = via if via is not None else self.random_peer_address()
        return data_protocol.insert(self, start, key)

    def delete(self, key: int, via: Optional[Address] = None) -> DataOpResult:
        """Route a delete of one occurrence of ``key``."""
        from repro.core import data as data_protocol

        start = via if via is not None else self.random_peer_address()
        return data_protocol.delete(self, start, key)

    def multicast(self, low: int, high: int, via: Optional[Address] = None):
        """Deliver one message to every owner of [low, high) (pub/sub)."""
        from repro import pubsub as pubsub_protocol

        return pubsub_protocol.multicast(self, low, high, via=via)

    def subscribe(self, subscriber: Address, low: int, high: int):
        """Install a subscription for [low, high) at every range owner."""
        from repro import pubsub as pubsub_protocol

        return pubsub_protocol.subscribe(self, subscriber, low, high)

    def refresh_replicas(self) -> int:
        """Anti-entropy sweep of the replication extension (if enabled)."""
        from repro.core import replication

        if not self.config.replication:
            return 0
        return replication.refresh_replicas(self)

    # -- bulk loading -----------------------------------------------------------

    def bulk_load(self, keys: List[int]) -> int:
        """Place keys directly into their owners without routed messages.

        Experiments use this for the untimed initial data load (the paper
        loads 1000·N values "in batches"); the measured operations are then
        routed individually.  Returns the number of keys placed.
        """
        owners = sorted(self.peers.values(), key=lambda p: p.range.low)
        bounds = [p.range.low for p in owners]
        import bisect

        placed = 0
        for key in keys:
            index = bisect.bisect_right(bounds, key) - 1
            if index < 0:
                index = 0
            owner = owners[index]
            if not owner.range.contains(key):
                continue
            owner.store.insert(key)
            placed += 1
        return placed

    # -- shared protocol plumbing ------------------------------------------------

    def count_message(self, src: Address, dst: Address, mtype: MsgType) -> None:
        """Count one protocol message on the bus (raises if dst is dead)."""
        self.bus.send(src, dst, mtype)

    def broadcast_update(
        self,
        peer: BatonPeer,
        exclude: Optional[set[Address]] = None,
        mtype: MsgType = MsgType.TABLE_UPDATE,
    ) -> int:
        """Push ``peer``'s fresh snapshot to everything it links to.

        All BATON link relations are symmetric, so a peer's own link set is
        exactly the set of peers holding (now stale) information about it.
        Deferred-aware; returns the number of messages sent.
        """
        excluded = exclude or set()
        snapshot = peer.snapshot()
        sent = 0
        for target in peer.link_addresses():
            if target in excluded or target == peer.address:
                continue
            receiver = self.peers.get(target)
            if receiver is None:
                continue

            def apply(receiver: BatonPeer = receiver) -> None:
                receiver.update_link_info(snapshot)

            if self.updates.notify(peer.address, target, mtype, apply):
                sent += 1
        return sent

    def open_trace(self, label: str):
        """Context manager alias for :meth:`MessageBus.trace`."""
        return self.bus.trace(label)

    def new_trace(self, label: str) -> Trace:
        """An empty trace (for operations that turn out to be no-ops)."""
        return Trace(label=label)

    # -- snapshots for experiments ------------------------------------------------

    def load_snapshot(self) -> Dict[Address, int]:
        """Store sizes per peer (load-balance experiments)."""
        return {address: len(peer.store) for address, peer in self.peers.items()}

    def leftmost_peer(self) -> BatonPeer:
        """The peer owning the lowest range (no left adjacent)."""
        if not self.peers:
            raise NetworkEmptyError("network has no peers")
        return min(self.peers.values(), key=lambda p: p.range.low)

    def rightmost_peer(self) -> BatonPeer:
        """The peer owning the highest range (no right adjacent)."""
        if not self.peers:
            raise NetworkEmptyError("network has no peers")
        return max(self.peers.values(), key=lambda p: p.range.high)
