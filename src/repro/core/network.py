"""The BATON overlay network: public API and shared protocol plumbing.

:class:`BatonNetwork` owns the peers, the message bus and the position map,
and exposes the paper's operations — join, leave, fail/repair, insert,
delete, exact-match and range search — by delegating to the protocol modules
(:mod:`repro.core.join`, :mod:`repro.core.leave`, …).  Join, leave, the
two searches and the two writes are step generators there; the
synchronous facade that drives them is inherited
(:class:`repro.net.overlay.OverlayNetwork`).  The extension ops — fail,
repair, replica refresh, multicast, subscribe — are step generators on
this class too, so the event runtime runs every BATON op with no code of
its own.

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
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.core.results import NetworkStats, RepairResult
from repro.core.storage import LocalStore
from repro.net.address import Address, AddressAllocator, AddressPoolDict
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.net.overlay import OverlayNetwork
from repro.util.collector import paused
from repro.util.errors import NetworkEmptyError, PeerNotFoundError
from repro.util.rng import SeededRng
from repro.util.stepper import MessageSteps, drive


@dataclass
class LoadBalanceConfig:
    """Tuning for §IV-D load balancing.

    A peer is *overloaded* when its store exceeds ``capacity`` keys.  It
    first shifts keys to an adjacent node; a leaf that cannot then recruits
    a lightly loaded leaf.  The shares of ``capacity`` that make an
    adjacent able to absorb and a leaf light, and the probe budget, are
    :mod:`repro.core.balance`'s constants.
    """

    capacity: int = 200
    enabled: bool = True


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
    balance: LoadBalanceConfig = field(default_factory=LoadBalanceConfig)
    #: Data-durability extension (not in the paper): mirror each peer's
    #: store at its right adjacent and restore it during repair.  See
    #: :mod:`repro.core.replication`.
    replication: bool = False
    #: Locality extension (not in the paper): topology-aware joins,
    #: region-diverse replicas, hot-range routing cache.  See
    #: :mod:`repro.core.cache` and DESIGN.md's "Locality contract".
    locality: LocalityConfig = field(default_factory=LocalityConfig)


class UpdateChannel:
    """Delivery channel for third-party routing-state notifications.

    Driven synchronously, a notification is counted on the bus and applied
    at the receiver right away.  Under the event-driven runtime
    (:mod:`repro.sim.runtime`) the channel is *scheduled*: once
    :meth:`attach`-ed to a simulator and a topology, each notification's
    receiver-side application lands one sampled link delay later, in send
    order per receiver.  Queries issued in between see stale link state and
    pay recovery messages.  The channel tracks how many such applications
    are still in flight so degraded-routing heuristics can tell that link
    state is transiently stale.

    Only fire-and-forget refreshes go through this channel.  Request/response
    handshakes inside join/leave (which the initiator blocks on) are always
    immediate.
    """

    def __init__(self, bus: MessageBus):
        self._bus = bus
        self.in_flight = 0
        #: Scheduled mode: the runtime's clock and transport (None until
        #: :meth:`attach`), and each receiver's in-flight ``[event, apply]``
        #: pairs in send order (the last one's arrival is the FIFO floor).
        self._sim = None
        self._topology = None
        self._inbox: Dict[Address, List[list]] = {}

    def attach(self, sim, topology) -> None:
        """Enter scheduled mode: apply each notification on ``sim`` one
        ``topology``-sampled (src, dst) link delay after it was sent."""
        self._sim = sim
        self._topology = topology

    def drain(self, address: Address) -> None:
        """Deliver every in-flight notification addressed to ``address`` now.

        A peer about to commit a structural handshake (accept a child, hand
        its state to a replacement) drains its inbox first, so the decision
        reads current links and no refresh lands on a detached object.  A
        no-op when driven synchronously: the channel applied everything at
        send.  The drained inbox takes its FIFO floor with it, so a later
        refresh lands one sampled delay after it is sent, not behind the
        cancelled arrival times.
        """
        if self._sim is None:
            return
        for event, apply in self._inbox.pop(address, []):
            if self._sim.cancel(event):
                self.in_flight -= 1
                apply()

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
        if self._sim is not None:
            self._schedule(src, dst, apply)
        else:
            apply()
        return True

    def _schedule(
        self, src: Address, dst: Address, apply: Callable[[], None]
    ) -> None:
        """Scheduled mode: apply a refresh one (src, dst) link delay later.

        The delay is drawn for the actual link, so a refresh crossing
        regions takes longer to land than one next door — queries near a
        remote peer race a wider staleness window.  Deliveries to the same
        receiver keep their send order (an ordered transport, as TCP gives
        a real deployment); without this, two refreshes about the same
        peer could apply newest-first and leave the receiver permanently
        stale.
        """
        self.in_flight += 1
        pending = self._inbox.setdefault(dst, [])
        entry: list = [None, apply]

        def fire() -> None:
            try:
                pending.remove(entry)
            except ValueError:
                pass
            self.in_flight -= 1
            apply()

        # Priced like any other single message (size 1.0, matching Hop's
        # default), so bandwidth-limited links delay refreshes and routed
        # traffic alike — the staleness window they race is consistent.
        sim = self._sim
        arrival = sim.now + self._topology.sample(src, dst, size=1.0)
        if pending:
            arrival = max(arrival, pending[-1][0].time)
        entry[0] = sim.schedule_at(arrival, fire, label="table-update")
        pending.append(entry)

    @property
    def pending_count(self) -> int:
        return self.in_flight


class BatonNetwork(OverlayNetwork):
    """A simulated BATON overlay."""

    overlay_name = "baton"
    capabilities = frozenset(
        {
            "fail",
            "repair",
            "balance",
            "reconcile",
            "replication",
            "multicast",
            "subscribe",
            "locality",
        }
    )

    def __init__(self, config: Optional[BatonConfig] = None, seed: int = 0):
        self.config = config or BatonConfig()
        self.rng = SeededRng(seed)
        self.bus = MessageBus()
        self.updates = UpdateChannel(self.bus)
        self.alloc = AddressAllocator()
        #: Live peers; the dict keeps its keys in a swap-remove pool, so a
        #: uniform entry-point draw is O(1).
        self.peers: Dict[Address, BatonPeer] = AddressPoolDict()
        #: Peers that failed abruptly; state retained for the repair
        #: coordinator's reconstruction and for test assertions.
        self.ghosts: Dict[Address, BatonPeer] = {}
        self.stats = NetworkStats()
        #: The position map, keyed by ``Position.code``; written only in
        #: this class (the four bookkeeping methods below) and read through
        #: ``occupant`` / ``occupied_positions`` / ``occupancy`` — and raw
        #: by the ground-truth rebuild's ``restructure.MapView``.
        self._positions: Dict[int, Address] = {}
        #: Back-off bookkeeping for §IV-D (see balance.maybe_balance).
        self._balance_backoff: Dict[Address, int] = {}
        #: Dissemination ids and pub/sub counters (see repro.pubsub).
        #: Imported lazily: repro.pubsub reaches repro.sim for Hop, which
        #: imports this module right back.
        from repro.pubsub.state import PubSubState

        self.pubsub = PubSubState()
        #: The run's physical topology, when one exists (locality
        #: extension).  The event runtime installs its own
        #: (:meth:`attach`); synchronous callers that want topology-aware
        #: joins or region-diverse replicas set it explicitly.  Protocol
        #: decisions only ever read the deterministic
        #: ``direct_delay``/``region_of`` surface — never the jittered
        #: ``sample`` stream — so setting it perturbs nothing.
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

    @property
    def domain(self) -> Range:
        """The key interval workload generators should draw from."""
        return self.config.domain

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
        if not self.peers:
            raise NetworkEmptyError("network has no peers")
        return self.peers.random_address(self.rng)

    def store_of(self, address: Address) -> LocalStore:
        """The key store of the live peer at ``address``."""
        return self.peer(address).store

    def register_peer(self, peer: BatonPeer) -> None:
        self.peers[peer.address] = peer
        self._positions[peer.position.code] = peer.address
        self.bus.register(peer.address)

    def unregister_peer(self, address: Address) -> BatonPeer:
        """Remove the peer at ``address``, vacating its slot if it still
        holds it.  A ghost goes the same way when its repair departs the
        dead peer (it left the bus when it failed)."""
        peer = self.ghosts.get(address)
        if peer is None:
            peer = self.peers[address]
            del self.peers[address]
            self.bus.unregister(address)
        code = peer.position.code
        if self._positions.get(code) == address:
            del self._positions[code]
        return peer

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
        """A network of ``n_peers`` grown around ``keys`` (:meth:`grow`).

        ``bulk=True`` computes the final balanced tree directly instead of
        simulating N joins (see :mod:`repro.core.bulk_build` and DESIGN.md's
        "Construction contract") — same shape, same links, zero messages;
        entry-point placement differs only in that joins are random-entry;
        it runs with the cycle collector paused, the grown build does not.
        The end-to-end benchmark builds BATON this way; protocol tests that
        pin message traces keep joins.
        """
        if not bulk:
            return super().build(n_peers, seed=seed, config=config, keys=keys)
        from repro.core.bulk_build import populate_balanced

        net = cls(config=config, seed=seed)
        with paused():
            populate_balanced(net, n_peers, keys=keys)
        return net

    def grow(self, n_peers: int, keys: Optional[Iterable[int]] = None) -> None:
        """The shared growth loop, after checking every key has an owner
        (raises ``ValueError`` naming the lowest key below the domain, else
        the highest above it)."""
        if keys is not None:
            keys = list(keys)
            if keys:
                from repro.core.bulk_build import check_keys_in_domain

                check_keys_in_domain(self.config.domain, min(keys), max(keys))
        super().grow(n_peers, keys)

    # -- operations (step generators in the protocol modules) -----------------

    def join_steps(
        self,
        start: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The join both facades run (:func:`repro.core.join.join_steps`)."""
        from repro.core import join as join_protocol

        return join_protocol.join_steps(self, start, trace, degraded)

    def leave_steps(
        self,
        address: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The leave both facades run (:func:`repro.core.leave.leave_steps`)."""
        from repro.core import leave as leave_protocol

        return leave_protocol.leave_steps(self, address, trace, degraded)

    def search_exact_steps(
        self,
        start: Address,
        key: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The exact-match query both facades run
        (:func:`repro.core.search.search_exact_steps`)."""
        from repro.core import search as search_protocol

        return search_protocol.search_exact_steps(
            self, start, key, trace, degraded
        )

    def search_range_steps(
        self,
        start: Address,
        low: int,
        high: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The range query both facades run
        (:func:`repro.core.search.search_range_steps`)."""
        from repro.core import search as search_protocol

        return search_protocol.search_range_steps(
            self, start, low, high, trace, degraded
        )

    def data_op_steps(
        self,
        start: Address,
        key: int,
        mtype: MsgType,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The insert or delete both facades run; an insert may trigger
        load balancing (:func:`repro.core.data.data_op_steps`)."""
        from repro.core import data as data_protocol

        return data_protocol.data_op_steps(
            self, start, key, mtype, trace, degraded
        )

    # -- extension ops (step generators in the protocol modules) -------------
    #
    # Like the shared ops above, each is written once and run by both
    # facades: the sync methods below drive it, the event runtime resumes
    # it (behind the op's ingress hop, bar the refresh).  A target that is
    # already gone is a race only the runtime produces (``degraded`` is
    # set): there the op reports None (a refresh, 0); driven synchronously
    # it raises PeerNotFoundError.

    def fail(self, address: Address) -> None:
        """Abrupt departure: the peer vanishes without any protocol."""
        drive(self.fail_steps(address, None))

    def fail_steps(
        self,
        address: Address,
        trace: Optional[Trace],
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The crash as one hop-free step (:func:`repro.core.failure.fail`);
        returns the crashed address."""
        from repro.core import failure as failure_protocol

        yield from ()
        if degraded is not None and address not in self.peers:
            return None  # it left or crashed while the crash was in flight
        failure_protocol.fail(self, address)
        self.stats.failures += 1
        return address

    def repair(self, failed: Address) -> RepairResult:
        """Run the §III-C repair for a failed peer."""
        with self.bus.trace("repair") as trace:
            return drive(self.repair_steps(failed, trace))

    def repair_steps(
        self,
        failed: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The repair both facades run (:func:`repro.core.failure.repair_steps`)."""
        from repro.core import failure as failure_protocol

        if degraded is not None and failed not in self.ghosts:
            return None  # already repaired (or never actually crashed)
        return (yield from failure_protocol.repair_steps(self, failed, trace))

    def repair_all(
        self, attempt: Optional[Callable[[Address], Optional[RepairResult]]] = None
    ) -> List[RepairResult]:
        """Repair every outstanding failure, retrying order-sensitive cases.

        Concurrent failures can depend on each other (a replacement's parent
        failed too); repairing in a different order resolves them, mirroring
        how independent repairs interleave in a real deployment.
        ``attempt(address)`` runs one repair and returns None when it is
        blocked on another ghost; the default is :meth:`repair` (the event
        runtime passes a priced one).
        """
        from repro.core import failure as failure_protocol
        from repro.util.errors import ProtocolError

        def repair_now(address: Address) -> Optional[RepairResult]:
            try:
                return self.repair(address)
            except ProtocolError:
                return None  # blocked on another ghost; a later pass retries

        return failure_protocol.repair_in_passes(self, attempt or repair_now)

    def multicast(self, low: int, high: int, via: Optional[Address] = None):
        """Deliver one message to every owner of [low, high) (pub/sub)."""
        start = via if via is not None else self.random_peer_address()
        with self.bus.trace("multicast") as trace:
            return drive(self.multicast_steps(start, low, high, trace))

    def multicast_steps(
        self,
        start: Address,
        low: int,
        high: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The range multicast both facades run
        (:func:`repro.pubsub.multicast.multicast_steps`)."""
        from repro.pubsub.multicast import multicast_steps

        return multicast_steps(
            self, start, low, high, degraded=degraded, trace=trace
        )

    def subscribe(self, subscriber: Address, low: int, high: int):
        """Install a subscription for [low, high) at every range owner."""
        with self.bus.trace("subscribe") as trace:
            return drive(self.subscribe_steps(subscriber, low, high, trace))

    def subscribe_steps(
        self,
        subscriber: Address,
        low: int,
        high: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """The subscription walk both facades run
        (:func:`repro.pubsub.subscribe.subscribe_steps`)."""
        from repro.pubsub.subscribe import subscribe_steps

        return subscribe_steps(
            self, subscriber, low, high, degraded=degraded, trace=trace
        )

    def refresh_replicas(self) -> int:
        """Anti-entropy sweep of the replication extension (if enabled):
        every peer's :meth:`replica_refresh_steps`, driven in turn, with
        the cycle collector paused.  Returns the number of messages spent
        (one per peer)."""
        if not self.config.replication:
            return 0
        with paused():
            return sum(
                drive(self.replica_refresh_steps(address, None))
                for address in self.addresses()
            )

    def replica_refresh_steps(
        self,
        address: Address,
        trace: Optional[Trace],
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Re-anchor one peer's mirror at its current adjacent
        (:func:`repro.core.replication.refresh_peer_steps`); returns the
        messages spent.  A peer-initiated transfer: no ingress hop."""
        from repro.core import replication

        if not self.config.replication:
            return 0
        if degraded is not None and address not in self.peers:
            return 0  # vanished between submission rounds
        return (yield from replication.refresh_peer_steps(self, self.peer(address)))

    # -- runtime hooks ------------------------------------------------------------

    def attach(self, sim, topology) -> None:
        """Run on an event runtime's clock: routing-table refreshes land
        one sampled link delay after they are sent (``UpdateChannel``'s
        scheduled mode), and the locality extension's protocol decisions
        (join probing, replica diversity) read the run's topology — only
        its deterministic ``direct_delay``/``region_of`` surface, so
        installing it perturbs nothing when the locality knobs are off."""
        self.updates.attach(sim, topology)
        self.topology = topology

    def reconcile(self) -> int:
        """One anti-entropy round: refresh every peer's links to ground truth.

        Concurrent operations read each other's link state mid-refresh, so
        at quiescence third-party snapshots (ranges, child flags, table
        entries) can be stale in ways the synchronous protocols never
        produce — a real deployment runs a periodic maintenance sweep for
        exactly this reason.  Like the restructuring link rebuild this
        substitutes the position map for the peer-to-peer exchange
        (the documented cost-model substitution; compare ``bulk_load``),
        but the traffic is no longer free: each refreshed peer is charged
        one RECONCILE digest message to a live neighbour — the modeled
        cost of the exchange (DESIGN.md, "Durability contract") — so
        maintenance traffic is a first-class, sweepable metric.  Returns
        the number of messages spent.  Runs with the cycle collector
        paused (DESIGN.md, "Performance contract").
        """
        from repro.core import cache as route_cache_protocol
        from repro.core import restructure as restructure_protocol

        view = restructure_protocol.MapView(self, include_ghosts=bool(self.ghosts))
        validate_routes = route_cache_protocol.cache_enabled(self)
        messages = 0
        with paused():
            for peer in list(self.peers.values()):
                partner = self._reconcile_partner(peer)
                if partner is not None:
                    self.bus.send(peer.address, partner, MsgType.RECONCILE)
                    messages += 1
                restructure_protocol.refresh_links_from_map(view, peer)
                if validate_routes:
                    # The same sweep bounds hot-range cache staleness: dead
                    # owners dropped, moved ranges corrected (counted as
                    # invalidations; see repro.core.cache).
                    route_cache_protocol.reconcile_peer(self, peer)
        return messages

    def _reconcile_partner(self, peer: BatonPeer) -> Optional[Address]:
        """A live neighbour to exchange the reconcile digest with."""
        for info in (
            peer.parent,
            peer.left_adjacent,
            peer.right_adjacent,
            peer.left_child,
            peer.right_child,
        ):
            if info is not None and info.address in self.peers:
                return info.address
        return None

    def liveness_targets(self, address: Address) -> List[Address]:
        """Peers ``address`` heartbeats in a liveness-monitor round: its
        in-order adjacents, which together cover every peer, so a crash is
        always *somebody's* dead neighbour."""
        peer = self.peers.get(address)
        if peer is None:
            return []
        targets = []
        if peer.left_adjacent is not None:
            targets.append(peer.left_adjacent.address)
        if peer.right_adjacent is not None:
            targets.append(peer.right_adjacent.address)
        return targets

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
