"""Concurrent churn-and-query workloads for the event-driven runtime.

The paper's §V-E sweeps "number of concurrent joins/leaves"; D3-Tree and
ART evaluate their overlays under sustained concurrent load.  This driver
reproduces that regime on any
:class:`~repro.sim.runtime.AsyncOverlayRuntime` — BATON, Chord or the
multiway tree, selected through the :mod:`repro.overlays` registry — so
at any instant many operations are in flight and queries race
half-applied structural changes.  Three flat pieces (DESIGN.md,
"Workload driver contract"): :func:`poisson`, the one arrival source;
:class:`WorkloadRun`, the one executor — it resolves each arrival's
target against live state at fire time, submits, and folds every
completion into the report, for Poisson and scripted producers alike;
and :meth:`WorkloadRun.fold`, the one report fold, which turns every
network-lifetime counter into this run's own delta.
:func:`run_concurrent_workload` wires them into the standard mix.

Overlay capabilities are respected rather than stubbed: churn events that
would be abrupt crashes fall back to graceful leaves on overlays without
the ``fail`` capability, and the post-run repair/reconcile steps are
no-ops where the overlay has nothing to repair or reconcile.

Everything is seeded — the arrival streams use labelled sub-rngs — so a
run replays byte-for-byte (the regression tests compare two runs' event
logs and reports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (chaos imports us)
    from repro.workloads.chaos import ChaosScenario

from repro.core.ranges import Range
from repro.net.message import MsgType
from repro.sim.engine import Simulator
from repro.sim.runtime import AsyncOverlayRuntime, OpFuture
from repro.util.rng import SeededRng
from repro.util.stats import StreamingQuantiles

#: Width of each range query's interval.
RANGE_SPAN = 2_000_000


@dataclass(frozen=True)
class ConcurrentConfig:
    """Arrival processes for one concurrent run.

    Rates are events per simulated time unit (the latency model's unit, so
    ``query_rate=4`` with mean latency 1 means four new queries arrive per
    mean network hop).  A rate of 0 disables that process.
    """

    duration: float = 50.0
    churn_rate: float = 0.5
    query_rate: float = 4.0
    insert_rate: float = 0.0
    #: Fraction of churn events that are joins (the rest depart).
    join_fraction: float = 0.5
    #: Fraction of departures that are abrupt crashes instead of graceful
    #: leaves.  Crashed peers are repaired after the run drains.  Overlays
    #: without the ``fail`` capability depart gracefully instead.
    fail_fraction: float = 0.0
    #: Fraction of queries that are range queries (the rest exact-match).
    range_fraction: float = 0.0
    #: Range-multicast publishes per time unit (``multicast`` capability;
    #: overlays without it raise CapabilityError up front rather than
    #: silently running a publish-free mix).
    publish_rate: float = 0.0
    #: Subscription installs per time unit (``subscribe`` capability).
    subscribe_rate: float = 0.0
    #: Width of each publish / subscription interval.
    pubsub_span: int = 50_000_000
    #: Departures are suppressed below this population.
    min_peers: int = 8
    #: Run an anti-entropy ``reconcile()`` sweep every this many simulated
    #: time units *during* the window (0 disables; overlays without the
    #: ``reconcile`` capability never sweep).  Without it, staleness only
    #: drains at the end of the run.  On runtimes with replication turned
    #: on, every sweep also submits a replica-refresh round (one sized
    #: message per peer), so the sweep interval is the durability
    #: staleness bound the durability experiment measures.
    maintenance_interval: float = 0.0
    #: Detection delay for in-window repair: each crash is followed by a
    #: ``submit_repair`` this many time units later (0 keeps the
    #: historical behaviour — crashes are repaired only after the run
    #: drains).  Only on overlays with the ``repair`` capability.
    repair_delay: float = 0.0
    #: Pin query entry points to this many fixed gateway peers
    #: instead of a uniformly random peer per operation (0 keeps the
    #: historical behaviour).  Models clients that keep a session with a
    #: few access points — the regime where a per-peer route cache can
    #: warm up; with uniform entry at N=10k each peer originates too few
    #: queries to learn anything.
    client_gateways: int = 0

    def __post_init__(self) -> None:
        for name in (
            "churn_rate",
            "query_rate",
            "insert_rate",
            "publish_rate",
            "subscribe_rate",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.pubsub_span <= 0:
            raise ValueError("pubsub_span must be positive")
        for name in ("join_fraction", "fail_fraction", "range_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.maintenance_interval < 0:
            raise ValueError("maintenance_interval cannot be negative")
        if self.repair_delay < 0:
            raise ValueError("repair_delay cannot be negative")
        if self.client_gateways < 0:
            raise ValueError("client_gateways cannot be negative")


@dataclass
class ConcurrentReport:
    """What one concurrent run did and how the queries fared."""

    duration: float
    submitted: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    #: Exact queries that resolved and found their key.
    exact_hits: int = 0
    exact_total: int = 0
    #: Range queries that resolved with a complete answer.
    range_complete: int = 0
    range_total: int = 0
    query_latency_p50: float = 0.0
    query_latency_p90: float = 0.0
    query_latency_p99: float = 0.0
    query_latency_mean: float = 0.0
    #: Per-op wire-time accounting (sum of each op's sampled link delays,
    #: from the topology's per-link ``sample(src, dst)`` draws).
    transit_time_total: float = 0.0
    query_transit_p50: float = 0.0
    query_transit_p99: float = 0.0
    query_transit_mean: float = 0.0
    #: Latency stretch: a query's accumulated transit divided by the
    #: expected cost of a *direct* entry->owner link
    #: (:meth:`~repro.sim.topology.Topology.direct_delay`).  Stretch 3
    #: means the overlay route spent 3x what a direct connection would
    #: have; topology-blind routing shows up here first (ROADMAP).
    latency_stretch_p50: float = 0.0
    latency_stretch_p99: float = 0.0
    messages_total: int = 0
    messages_per_query: float = 0.0
    #: The runtime's lifetime high-water mark, not this run's: the one
    #: report counter that is not a per-run delta.
    max_in_flight: int = 0
    joins_applied: int = 0
    leaves_applied: int = 0
    fails_applied: int = 0
    final_size: int = 0
    skipped_departures: int = 0
    #: In-window anti-entropy sweeps run: the ``maintenance_interval``
    #: cadence plus a partition scenario's heal-time storm.
    reconcile_sweeps: int = 0
    #: Maintenance traffic: messages spent by every ``reconcile()`` call
    #: (in-window sweeps plus the end-of-run pass) and by replication
    #: upkeep (write-throughs, refresh rounds, repair-time pulls).
    reconcile_messages: int = 0
    replica_messages: int = 0
    #: Replica-refresh rounds submitted by the maintenance sweep.
    replica_refresh_sweeps: int = 0
    #: In-window repairs (``repair_delay`` knob) and what they recovered.
    repairs_applied: int = 0
    keys_recovered: int = 0
    #: Crash-to-repaired time for in-window repairs (includes the
    #: detection delay and the priced replica-pull hops).
    recovery_latency_p50: float = 0.0
    recovery_latency_max: float = 0.0
    #: Keys of inserts that were applied, so durability experiments can
    #: compute the expected key population without re-deriving arrivals.
    insert_keys_applied: List[int] = field(default_factory=list)
    #: -- hot-range route cache metrics (non-zero only when the runtime's
    #: network has the locality cache enabled; see :mod:`repro.core.cache`) --
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    cache_hit_rate: float = 0.0
    #: -- pub/sub metrics (non-zero only with publish/subscribe traffic;
    #: see :mod:`repro.pubsub`) --
    multicasts_delivered: int = 0
    multicast_depth_max: int = 0
    subscriptions_installed: int = 0
    subscription_moves: int = 0
    notifications: int = 0
    #: Arrivals the per-peer dedup window suppressed (counted as traffic,
    #: applied zero more times).  Duplicate *applications* are zero by
    #: construction; FaultPlan wire copies live in ``duplicates``.
    pubsub_duplicates_suppressed: int = 0
    #: -- chaos metrics (non-zero only when the runtime's transport is a
    #: :class:`~repro.sim.faults.FaultPlan` and/or a scenario is active;
    #: see :mod:`repro.workloads.chaos`) --
    drops: int = 0
    duplicates: int = 0
    delay_spikes: int = 0
    partition_refusals: int = 0
    retries: int = 0
    timeouts: int = 0
    ops_gave_up: int = 0
    #: Wire traffic over protocol messages: (messages + retransmissions +
    #: duplicate deliveries) / messages.  1.0 on a clean channel.
    message_amplification: float = 1.0
    #: Operations still unresolved after the drain.  Always 0 — budget
    #: exhaustion fails an OpFuture, it never hangs — and asserted on by
    #: the chaos experiment.
    unresolved_ops: int = 0
    #: Queries submitted inside the scenario's fault window, and how many
    #: were fully answered (availability-during = window_ok/window_queries).
    window_queries: int = 0
    window_ok: int = 0
    availability_during: Optional[float] = None
    #: Time from the scenario's heal point to the first sustained run of
    #: successful probes (-1.0: never recovered within the run; None: the
    #: scenario has no recovery phase).
    recover_time: Optional[float] = None
    #: Liveness-monitor activity (scenarios that install one).
    heartbeats: int = 0
    failed_heartbeats: int = 0
    suspicions: int = 0
    monitor_repairs: int = 0

    @property
    def query_total(self) -> int:
        return self.exact_total + self.range_total

    @property
    def query_success_rate(self) -> float:
        """Fraction of queries answered fully (found / complete)."""
        if self.query_total == 0:
            return 0.0
        return (self.exact_hits + self.range_complete) / self.query_total

    def summary_lines(self) -> List[str]:
        lines = [
            f"simulated duration: {self.duration:.1f} (drained)",
            "submitted: "
            + ", ".join(f"{kind}={n}" for kind, n in sorted(self.submitted.items())),
            f"completed {self.completed}, failed {self.failed}, "
            f"max in flight {self.max_in_flight}",
            f"membership: +{self.joins_applied} joins, "
            f"-{self.leaves_applied} leaves, {self.fails_applied} crashes "
            f"-> {self.final_size} peers",
            f"query success rate: {self.query_success_rate:.3f} "
            f"({self.exact_hits}/{self.exact_total} exact hits"
            + (
                f", {self.range_complete}/{self.range_total} complete ranges)"
                if self.range_total
                else ")"
            ),
            f"query latency p50/p90/p99: {self.query_latency_p50:.2f}/"
            f"{self.query_latency_p90:.2f}/{self.query_latency_p99:.2f} "
            f"(mean {self.query_latency_mean:.2f})",
            f"transit time: {self.transit_time_total:.1f} total on the wire, "
            f"query p50/p99 {self.query_transit_p50:.2f}/"
            f"{self.query_transit_p99:.2f}",
            f"latency stretch (vs direct link) p50/p99: "
            f"{self.latency_stretch_p50:.2f}/{self.latency_stretch_p99:.2f}",
            f"messages: {self.messages_total} total, "
            f"{self.messages_per_query:.2f} per query",
        ]
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"route cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"(hit rate {self.cache_hit_rate:.3f}), "
                f"{self.cache_invalidations} invalidation(s)"
            )
        if self.reconcile_sweeps or self.reconcile_messages:
            lines.append(
                f"maintenance: {self.reconcile_sweeps} in-window reconcile "
                f"sweep(s), {self.reconcile_messages} reconcile msgs, "
                f"{self.replica_refresh_sweeps} replica refresh round(s), "
                f"{self.replica_messages} replica msgs"
            )
        if (
            self.retries
            or self.timeouts
            or self.ops_gave_up
            or self.drops
            or self.duplicates
            or self.partition_refusals
        ):
            lines.append(
                f"chaos: {self.drops} drops, {self.duplicates} dups, "
                f"{self.delay_spikes} spikes, "
                f"{self.partition_refusals} refusals; {self.retries} retries, "
                f"{self.timeouts} timeouts, {self.ops_gave_up} op(s) gave up; "
                f"amplification {self.message_amplification:.3f}"
            )
        if (
            self.multicasts_delivered
            or self.subscriptions_installed
            or self.notifications
        ):
            lines.append(
                f"pub/sub: {self.multicasts_delivered} multicast deliveries "
                f"(depth <= {self.multicast_depth_max}), "
                f"{self.subscriptions_installed} subscription install(s) "
                f"({self.subscription_moves} moved in restructures), "
                f"{self.notifications} notification(s), "
                f"{self.pubsub_duplicates_suppressed} duplicate arrival(s) "
                "suppressed (0 applied twice)"
            )
        if self.availability_during is not None:
            line = (
                f"fault window: availability {self.availability_during:.3f} "
                f"({self.window_ok}/{self.window_queries} queries)"
            )
            if self.recover_time is not None:
                line += ", recovered " + (
                    f"{self.recover_time:.2f} after heal"
                    if self.recover_time >= 0
                    else "never"
                )
            lines.append(line)
        if self.heartbeats:
            lines.append(
                f"liveness: {self.heartbeats} heartbeats "
                f"({self.failed_heartbeats} failed), "
                f"{self.suspicions} suspicion(s), "
                f"{self.monitor_repairs} monitor repair(s)"
            )
        if self.repairs_applied or self.keys_recovered:
            line = (
                f"durability: {self.repairs_applied} in-window repair(s), "
                f"{self.keys_recovered} keys recovered"
            )
            if self.repairs_applied:
                line += (
                    f", recovery p50/max {self.recovery_latency_p50:.2f}/"
                    f"{self.recovery_latency_max:.2f}"
                )
            lines.append(line)
        if self.skipped_departures:
            lines.append(
                f"note: {self.skipped_departures} departures skipped "
                f"(population floor)"
            )
        return lines


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: ``ceil(q*n)``-th order statistic."""
    if not values:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


#: Retries of one in-window repair after its first attempt: a repair
#: blocked on a neighbouring ghost backs off one detection delay each time,
#: so a crash gets three more tries over three ``repair_delay``s, then the
#: end-of-run ``repair_all`` sweeps up whatever is still broken.
REPAIR_RETRIES = 3


def poisson(
    sim: Simulator,
    stream: SeededRng,
    rate: float,
    start: float,
    end: float,
    fire: Callable[[SeededRng], None],
    label: str,
) -> None:
    """Schedule a Poisson stream of ``fire(stream)`` calls in ``(start, end]``.

    The one arrival source.  ``rate <= 0`` schedules nothing and draws
    nothing.  Each firing calls ``fire(stream)`` *then* draws the next gap
    from the same stream — submission draws, then the gap: the order
    replay identity rests on — and reschedules while the next firing still
    lands by ``end``: lazy, so nothing grows with the run.
    """
    if rate <= 0:
        return

    def arrive() -> None:
        fire(stream)
        gap = stream.expovariate(rate)
        if sim.now + gap <= end:
            sim.schedule(gap, arrive, label=label)

    first = stream.expovariate(rate)
    if start + first <= end:
        sim.schedule_at(start + first, arrive, label=label)


def _cumulative(anet: AsyncOverlayRuntime) -> Dict[str, int]:
    """Every network-lifetime counter a report carries, by report field.

    They belong to the runtime and its network and only ever grow; a run
    reads them when it starts and again after its drain, and reports the
    differences (:meth:`WorkloadRun.fold`).
    """
    bus = anet.bus.stats
    faults = anet.fault_stats
    values = {
        "messages_total": bus.total,
        "replica_messages": bus.by_type[MsgType.REPLICATE],
        "drops": faults.drops,
        "duplicates": faults.duplicates,
        "delay_spikes": faults.delay_spikes,
        "partition_refusals": faults.refusals,
        "retries": faults.retries,
        "timeouts": faults.timeouts,
        "ops_gave_up": faults.gave_up,
    }
    cache = getattr(anet.net, "cache_stats", None)
    if cache is not None:
        values["cache_hits"] = cache.hits
        values["cache_misses"] = cache.misses
        values["cache_invalidations"] = cache.invalidations
    pubsub = getattr(anet.net, "pubsub", None)
    if pubsub is not None:
        values["notifications"] = pubsub.notifications
        values["pubsub_duplicates_suppressed"] = pubsub.duplicates_suppressed
        values["subscriptions_installed"] = pubsub.subscriptions_installed
        values["subscription_moves"] = pubsub.subscription_moves
    return values


class WorkloadRun:
    """The executor of one concurrent run: submit, observe, report.

    Producers decide *when and what kind* — a :func:`poisson` stream, a
    :class:`~repro.workloads.chaos.ChaosScenario`'s ``install(run)``, a
    test's ``sim.schedule_at`` script; the run resolves the target against
    live state at fire time on the producer's stream, submits, and
    ``note`` counts the operation and folds its completion into
    :attr:`report`.  :meth:`fold` closes the report after the drain.
    """

    def __init__(
        self,
        anet: AsyncOverlayRuntime,
        keys: Sequence[int],
        config: ConcurrentConfig,
        seed: int = 0,
    ):
        self.anet = anet
        self.keys = keys
        self.config = config
        self.rng = SeededRng(seed)
        self.report = ConcurrentReport(duration=config.duration)
        self.start_time = anet.sim.now
        #: Absolute: the clock may not start at zero.
        self.horizon = self.start_time + config.duration
        #: The scenario's fault window in absolute simulator time (set
        #: before any event runs; ``settle`` reads it at call time).
        self.window: Optional[Tuple[float, float]] = None
        self.repair_in_window = config.repair_delay > 0 and anet.supports("repair")
        self.domain: Range = anet.domain
        self._before = _cumulative(anet)
        # Streaming accumulation: every metric is folded in by the operation's
        # completion callback, so no list of futures (or samples) grows with
        # the run — the memory contract that makes N=10k x long windows
        # routine (DESIGN.md, "Performance contract").  Percentiles come from
        # bounded log-binned accumulators; counts, sums, min/max stay exact.
        self.latency_q = StreamingQuantiles()
        self.transit_q = StreamingQuantiles()
        self.stretch_q = StreamingQuantiles()
        self.query_messages = 0
        self.recovery_latencies: List[float] = []
        #: Live-membership map (peers for BATON, nodes elsewhere) — read-only
        #: here, for O(1) gateway liveness checks.
        self.live_peers = getattr(anet.net, "peers", None)
        if self.live_peers is None:
            self.live_peers = getattr(anet.net, "nodes", {})
        self.gateways: List[int] = []
        if config.client_gateways > 0:
            # Fixed session entry points, drawn once from the starting
            # population via a labelled child rng (the parent stream is
            # untouched, so gateway-off runs are unchanged draw-for-draw).
            pool = list(self.live_peers)
            gateway_rng = self.rng.child("gateways")
            count = min(config.client_gateways, len(pool))
            self.gateways = [
                pool.pop(gateway_rng.randint(0, len(pool) - 1)) for _ in range(count)
            ]

    def note(self, kind: str, future: Optional[OpFuture]) -> None:
        """Count one submitted operation; settle it when it completes."""
        if future is None:
            return
        submitted = self.report.submitted
        submitted[kind] = submitted.get(kind, 0) + 1
        future.add_done_callback(self.settle)

    def settle(self, future: OpFuture) -> None:
        """Fold one completed operation into the report (any kind)."""
        report = self.report
        report.transit_time_total += future.transit
        kind = future.kind
        succeeded = future.succeeded
        if succeeded:
            report.completed += 1
        else:
            report.failed += 1
        if kind == "search.exact":
            report.exact_total += 1
            answered = succeeded and future.result.found
            if answered:
                report.exact_hits += 1
        elif kind == "search.range":
            report.range_total += 1
            answered = succeeded and future.result.complete
            if answered:
                report.range_complete += 1
        elif kind == "multicast":
            if succeeded and future.result is not None:
                report.multicasts_delivered += len(future.result.delivered)
                if future.result.depth > report.multicast_depth_max:
                    report.multicast_depth_max = future.result.depth
            return
        elif kind == "subscribe":
            return  # installs are read off the pubsub counters at the end
        elif succeeded:
            if kind == "join":
                report.joins_applied += 1
            elif kind == "leave":
                report.leaves_applied += 1
            elif kind == "fail" and future.result is not None:
                report.fails_applied += 1
            elif kind == "repair" and future.result is not None:
                report.repairs_applied += 1
                report.keys_recovered += future.result.keys_recovered
            return
        else:
            return
        self.query_messages += future.trace.total
        window = self.window
        if window is not None and window[0] <= future.submitted_at < window[1]:
            report.window_queries += 1
            report.window_ok += answered
        if not succeeded or future.latency is None:
            return
        self.latency_q.add(future.latency)
        self.transit_q.add(future.transit)
        owner = None
        if kind == "search.exact":
            owner = future.result.owner
        elif future.result.owners:
            owner = future.result.owners[0]
        if owner is not None and future.entry is not None:
            direct = self.anet.topology.direct_delay(future.entry, owner)
            overlay_transit = future.transit - future.ingress
            if direct > 0 and overlay_transit > 0:
                # Routing stretch is an overlay metric: the client's
                # ingress leg is not part of the entry->owner path the
                # denominator prices, so it must not inflate the numerator
                # (with it, stretch_p50 degenerated into a copy of p50).
                # Degenerate zero-cost resolutions — the entry peer *is*
                # the owner, so no overlay hop was ever priced — carry no
                # routing information and would otherwise poison the
                # quantiles with 0s (a cache-hit run at a warm gateway
                # resolves there often).
                self.stretch_q.add(overlay_transit / direct)

    def submit_churn(self, stream: SeededRng) -> None:
        config = self.config
        anet = self.anet
        if stream.random() < config.join_fraction:
            self.note("join", anet.submit_join())
            return
        candidates = anet.leave_candidates()
        if len(candidates) <= config.min_peers:
            self.report.skipped_departures += 1
            return
        victim = stream.choice(candidates)
        if (
            config.fail_fraction
            and anet.supports("fail")
            and stream.random() < config.fail_fraction
        ):
            self.crash(victim)
        else:
            self.note("leave", anet.submit_leave(victim))

    def query_entry(self, stream: SeededRng):
        """The entry peer for one query: a live gateway, else the default.

        A gateway that departed mid-run falls back to the historical
        uniform draw for that query (clients re-enter anywhere).
        """
        if not self.gateways:
            return None
        via = stream.choice(self.gateways)
        return via if via in self.live_peers else None

    def interval(self, stream: SeededRng, width: int) -> Tuple[int, int]:
        """A uniformly placed interval ``width`` wide (clipped to the domain)."""
        domain = self.domain
        span = min(width, domain.width - 1)
        low = stream.randint(domain.low, domain.high - span - 1)
        return low, low + span

    def submit_query(self, stream: SeededRng) -> None:
        anet = self.anet
        config = self.config
        if config.range_fraction and stream.random() < config.range_fraction:
            low, high = self.interval(stream, RANGE_SPAN)
            self.note(
                "search.range",
                anet.submit_search_range(low, high, via=self.query_entry(stream)),
            )
        else:
            key = (
                stream.choice(self.keys)
                if self.keys
                else stream.randint(self.domain.low, self.domain.high - 1)
            )
            self.note(
                "search.exact",
                anet.submit_search_exact(key, via=self.query_entry(stream)),
            )

    def submit_insert(self, stream: SeededRng) -> None:
        key = stream.randint(self.domain.low, self.domain.high - 1)
        future = self.anet.submit_insert(key)
        self.note("insert", future)
        applied = self.report.insert_keys_applied

        def record(done: OpFuture) -> None:
            if done.succeeded and done.result.applied:
                applied.append(key)

        future.add_done_callback(record)
        # (The kept keys are the durability experiments' ground truth; the
        # list is bounded by applied inserts, not by samples.)

    def submit_publish(self, stream: SeededRng) -> None:
        low, high = self.interval(stream, self.config.pubsub_span)
        self.note("multicast", self.anet.submit_multicast(low, high))

    def submit_subscription(self, stream: SeededRng) -> None:
        low, high = self.interval(stream, self.config.pubsub_span)
        self.note("subscribe", self.anet.submit_subscribe(low, high))

    def crash(self, victim) -> None:
        """Crash ``victim``; with ``repair_delay`` set, the oracle detects
        it that long after the crash lands and repairs it in the window."""
        future = self.anet.submit_fail(victim)
        self.note("fail", future)
        if self.repair_in_window:
            future.add_done_callback(self._detect)

    def _detect(self, fail_future: OpFuture) -> None:
        """After a crash lands, detect and repair it ``repair_delay`` later."""
        if not fail_future.succeeded or fail_future.result is None:
            return
        crashed = fail_future.result
        crashed_at = self.anet.sim.now
        self.anet.sim.schedule(
            self.config.repair_delay,
            lambda: self._repair(crashed, crashed_at, REPAIR_RETRIES),
            label="repair-detect",
        )

    def _repair(self, crashed, crashed_at: float, tries_left: int) -> None:
        anet = self.anet
        if crashed not in anet.pending_repairs():
            return  # another repair already absorbed it
        future = anet.submit_repair(crashed)
        self.note("repair", future)

        def landed(done: OpFuture) -> None:
            if done.succeeded and done.result is not None:
                self.recovery_latencies.append(done.completed_at - crashed_at)
            elif tries_left > 0:
                # Blocked (for example on another unrepaired ghost):
                # back off one detection delay and retry; anything
                # still broken is swept up by the end-of-run repair.
                anet.sim.schedule(
                    self.config.repair_delay,
                    lambda: self._repair(crashed, crashed_at, tries_left - 1),
                    label="repair-retry",
                )

        future.add_done_callback(landed)

    def arrivals(
        self, label: str, rate: float, submit: Callable[[SeededRng], None]
    ) -> None:
        """A Poisson process of ``submit(stream)`` calls until the horizon."""
        poisson(
            self.anet.sim,
            self.rng.child("arrivals", label),
            rate,
            self.start_time,
            self.horizon,
            submit,
            f"arrival.{label}",
        )

    def reconcile(self) -> None:
        """One counted in-window anti-entropy sweep."""
        self.report.reconcile_messages += self.anet.reconcile()
        self.report.reconcile_sweeps += 1

    def maintenance(self) -> None:
        """Sweep every ``maintenance_interval`` until the horizon (where set
        and supported)."""
        anet = self.anet
        interval = self.config.maintenance_interval
        if interval <= 0 or not anet.supports("reconcile"):
            return

        # Periodic in-window anti-entropy: staleness is bounded by the
        # sweep interval instead of accumulating until the drain.  On
        # replicated runtimes each sweep also re-anchors every peer's
        # mirror (a round of sized, priced refresh messages).
        def sweep() -> None:
            self.reconcile()
            if anet.replication_enabled:
                # The batched sweep: one future for the whole per-peer
                # fan-out instead of one per peer (same transfers, same
                # per-link sized pricing).
                anet.submit_replica_refresh_sweep()
                self.report.replica_refresh_sweeps += 1
            if anet.sim.now + interval <= self.horizon:
                anet.sim.schedule(interval, sweep, label="maintenance")

        if self.start_time + interval <= self.horizon:
            anet.sim.schedule(interval, sweep, label="maintenance")

    def fold(self) -> ConcurrentReport:
        """Close the report after the drain: every cumulative counter
        becomes this run's own delta, the streaming accumulators become
        percentiles, and the ratios come from the report's own fields."""
        anet = self.anet
        report = self.report
        report.duration = anet.sim.now - self.start_time
        report.max_in_flight = anet.max_in_flight
        report.final_size = anet.size
        report.unresolved_ops = anet.in_flight
        for name, value in _cumulative(anet).items():
            setattr(report, name, value - self._before[name])
        lookups = report.cache_hits + report.cache_misses
        if lookups:
            report.cache_hit_rate = report.cache_hits / lookups
        if report.messages_total:
            # Retransmissions and duplicate deliveries are wire copies of
            # already-counted protocol messages (FaultStats, not the bus), so
            # amplification is the wire-over-protocol traffic ratio.
            report.message_amplification = (
                report.messages_total + report.retries + report.duplicates
            ) / report.messages_total
        if self.recovery_latencies:
            report.recovery_latency_p50 = percentile(self.recovery_latencies, 0.50)
            report.recovery_latency_max = max(self.recovery_latencies)
        if self.latency_q.count:
            report.query_latency_p50 = self.latency_q.quantile(0.50)
            report.query_latency_p90 = self.latency_q.quantile(0.90)
            report.query_latency_p99 = self.latency_q.quantile(0.99)
            report.query_latency_mean = self.latency_q.mean
        if self.transit_q.count:
            report.query_transit_p50 = self.transit_q.quantile(0.50)
            report.query_transit_p99 = self.transit_q.quantile(0.99)
            report.query_transit_mean = self.transit_q.mean
        if self.stretch_q.count:
            report.latency_stretch_p50 = self.stretch_q.quantile(0.50)
            report.latency_stretch_p99 = self.stretch_q.quantile(0.99)
        if report.query_total:
            report.messages_per_query = self.query_messages / report.query_total
        if report.window_queries:
            report.availability_during = report.window_ok / report.window_queries
        return report


def run_concurrent_workload(
    anet: AsyncOverlayRuntime,
    keys: Sequence[int],
    config: Optional[ConcurrentConfig] = None,
    seed: int = 0,
    repair_at_end: bool = True,
    reconcile_at_end: bool = True,
    scenario: Optional["ChaosScenario"] = None,
) -> ConcurrentReport:
    """Drive interleaved churn/query/insert arrivals and report the outcome.

    ``keys`` are the loaded keys exact queries aim at (hit-ratio 1 in a
    quiet network, as the paper's query workloads do); inserts and range
    queries draw from the runtime's key domain.

    ``scenario`` (a :class:`~repro.workloads.chaos.ChaosScenario`)
    overlays a correlated-disaster script on the same run: it installs
    extra events before the drain, defines the fault window the
    availability metric buckets queries by, and computes recovery from its
    post-heal probes in ``finalize``.
    """
    config = config or ConcurrentConfig()
    for rate, capability in (
        (config.publish_rate, "multicast"),
        (config.subscribe_rate, "subscribe"),
    ):
        if rate > 0 and not anet.supports(capability):
            from repro.util.errors import CapabilityError

            raise CapabilityError(
                f"the {anet.net.overlay_name} overlay does not support "
                f"{capability}; drop the pub/sub rates or pick an overlay "
                "that advertises the capability"
            )
    run = WorkloadRun(anet, keys, config, seed)
    run.arrivals("churn", config.churn_rate, run.submit_churn)
    run.arrivals("query", config.query_rate, run.submit_query)
    run.arrivals("insert", config.insert_rate, run.submit_insert)
    run.arrivals("publish", config.publish_rate, run.submit_publish)
    run.arrivals("subscribe", config.subscribe_rate, run.submit_subscription)
    run.maintenance()
    if scenario is not None:
        scenario.install(run)
        if scenario.window is not None:
            opens, closes = scenario.window
            run.window = (run.start_time + opens, run.start_time + closes)

    anet.drain()
    if repair_at_end:
        for result in anet.repair_all():
            run.report.keys_recovered += result.keys_recovered
    if reconcile_at_end:
        run.report.reconcile_messages += anet.reconcile()
    report = run.fold()
    if scenario is not None:
        scenario.finalize(run)
    return report
