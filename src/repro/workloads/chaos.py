"""Chaos scenarios: correlated disaster scripted over the concurrent driver.

The concurrent workload models *independent* adversity — Poisson churn,
one peer at a time.  Real outages are correlated: a region goes dark, a
backbone cut partitions the overlay, a viral key draws a flash crowd.
The D3-Tree line of work (PAPERS.md) argues overlays should be measured
under sustained adversity; ROADMAP item 5 names these four scenarios:

* :class:`RegionOutage` — every peer in one region crashes at once; the
  liveness monitor (no oracle) must notice and drive repair.
* :class:`PartitionHeal` — a :class:`~repro.sim.faults.PartitionWindow`
  refuses cross-cut hops for a while; on heal, a reconcile storm
  restores routing state.
* :class:`FlashCrowd` — a join burst plus a many-fold query spike aimed
  at one hot key range.
* :class:`LossyLinks` — ambient message loss/duplication/delay-spikes at
  the default rates for the whole run (the at-least-once runtime's
  bread-and-butter regime).

A scenario is one more producer over a
:class:`~repro.workloads.concurrent.WorkloadRun` (DESIGN.md, "Workload
driver contract").  It may wrap the run's topology in a
:class:`~repro.sim.faults.FaultPlan` (``fault_plan``); ``install(run)``
schedules its events before the drain — whatever it submits goes through
``run.note`` / ``run.reconcile`` / ``poisson``, so it is counted and
settled like the run's own arrivals; ``finalize(run)`` runs after the
fold and writes the five report fields a scenario still owns:
``recover_time`` (the probe streak, measured from ``heal_at``) and the
monitor's ``heartbeats``, ``failed_heartbeats``, ``suspicions``,
``monitor_repairs``.  Each run reports four metrics into the shared
:class:`~repro.workloads.concurrent.ConcurrentReport`:

* **availability-during** — fraction of queries submitted inside the
  fault window that were fully answered;
* **time-to-recover-after** — from the scenario's heal/strike point to
  the first sustained streak of successful probe queries;
* **message amplification** — wire traffic (retransmissions + duplicate
  deliveries) over protocol messages;
* **retry/timeout counts** — the at-least-once runtime's reactions.

Scenario windows are expressed relative to the run start and assume the
run begins at simulator time 0 (true for every build surface); the fault
plan's windows are absolute for the same reason.  Everything is seeded:
the same (scenario, overlay, seed) replays event-for-event.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.faults import (
    DEFAULT_LOSS_RATE,
    FaultPlan,
    PartitionWindow,
    RetryPolicy,
)
from repro.sim.liveness import LivenessMonitor
from repro.sim.topology import Topology
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.concurrent import WorkloadRun, poisson

SCENARIO_NAMES = (
    "region_outage",
    "partition_heal",
    "flash_crowd",
    "lossy_links",
)


class ChaosScenario:
    """Base scenario: fault window, probe machinery, monitor plumbing.

    Subclasses set :attr:`name`, :attr:`requires` (overlay capabilities
    the scenario needs — the experiment skips overlays that lack them),
    assign :attr:`window` (and :attr:`heal_at`, when there is a recovery
    phase) in ``__init__``, and override ``fault_plan`` / ``install`` as
    needed.
    """

    name: str = "?"
    #: Overlay capabilities the scenario needs (checked against the
    #: registry entry's ``capabilities`` before running).
    requires: frozenset = frozenset()
    #: Post-heal probe cadence and the consecutive-success streak that
    #: counts as recovered.
    probe_interval: float = 1.0
    probe_run: int = 3

    def __init__(self) -> None:
        #: (start, end) of the fault window, relative to the run start;
        #: queries submitted inside it feed availability-during.
        self.window: Optional[Tuple[float, float]] = None
        #: The heal (or strike) point recovery is measured from, relative
        #: to the run start (None: the scenario has no recovery phase).
        self.heal_at: Optional[float] = None
        self._probes: List[Tuple[float, bool]] = []
        self._monitor: Optional[LivenessMonitor] = None

    def fault_plan(self, inner: Topology, seed: int) -> Optional[FaultPlan]:
        """The transport wrapper this scenario needs (None: run unwrapped)."""
        return None

    def install(self, run: WorkloadRun) -> None:
        """Schedule the scenario's events (called before the drain)."""

    def finalize(self, run: WorkloadRun) -> None:
        """Write what the scenario observed into the folded report: the
        monitor's activity and, from ``heal_at``, the recovery time —
        the first ``probe_run``-long streak of answered probes (-1.0 when
        no such streak happened in the run)."""
        report = run.report
        monitor = self._monitor
        if monitor is not None:
            report.heartbeats += monitor.heartbeats
            report.failed_heartbeats += monitor.failed_heartbeats
            report.suspicions += monitor.suspicions
            report.monitor_repairs += monitor.repairs_submitted
        if self.heal_at is None:
            return
        heal_at = run.start_time + self.heal_at
        report.recover_time = -1.0
        streak = 0
        streak_start = 0.0
        for when, answered in sorted(self._probes):
            if answered:
                if streak == 0:
                    streak_start = when
                streak += 1
                if streak >= self.probe_run:
                    report.recover_time = max(0.0, streak_start - heal_at)
                    break
            else:
                streak = 0

    # -- shared machinery -----------------------------------------------------

    def _stream(self, run: WorkloadRun, *labels: object) -> SeededRng:
        """The scenario's labelled sub-stream of the run's rng."""
        return run.rng.child("scenario", self.name).child(*labels)

    def _install_monitor(self, run: WorkloadRun) -> None:
        """Start a liveness monitor whose repairs count like the driver's."""
        monitor = LivenessMonitor(
            run.anet,
            horizon=run.horizon,
            on_repair=lambda future: run.note("repair", future),
        )
        monitor.start()
        self._monitor = monitor

    def _schedule_probes(self, run: WorkloadRun, start_rel: float) -> None:
        """Periodic exact-match probe queries from ``start_rel`` to the
        horizon; their (time, answered) records feed the recovery metric."""
        keys = list(run.keys)
        if not keys:
            return
        rng = self._stream(run, "probes")
        anet = run.anet
        records = self._probes
        at = run.start_time + start_rel
        while at <= run.horizon:

            def fire(when: float = at) -> None:
                future = anet.submit_search_exact(rng.choice(keys))
                run.note("probe", future)
                future.add_done_callback(
                    lambda done: records.append(
                        (when, done.succeeded and done.result.found)
                    )
                )

            anet.sim.schedule_at(at, fire, label="chaos.probe")
            at += self.probe_interval


class RegionOutage(ChaosScenario):
    """Every peer in one region crashes simultaneously.

    No oracle: the run's only in-window repair path is the liveness
    monitor noticing dead adjacents (heartbeat + suspicion) and feeding
    the ghosts to ``submit_repair`` — the correlated-failure regime the
    icsw-style health-check pattern exists for.  On topologies without a
    region map a seeded quarter of the population is struck instead, so
    the scenario still exercises every overlay surface.
    """

    name = "region_outage"
    requires = frozenset({"fail", "repair"})
    #: The region that goes dark.
    region = 0

    def __init__(self, *, strike_at: float = 10.0, window_len: float = 15.0):
        super().__init__()
        self.window = (strike_at, strike_at + window_len)
        self.heal_at = strike_at
        #: Peers the strike actually took down (set when it fires).
        self.struck = 0

    def install(self, run: WorkloadRun) -> None:
        self._install_monitor(run)

        def strike() -> None:
            victims = self._victims(run)
            self.struck = len(victims)
            for address in victims:
                run.note("fail", run.anet.submit_fail(address))

        run.anet.sim.schedule_at(
            run.start_time + self.window[0], strike, label="chaos.region-outage"
        )
        self._schedule_probes(run, self.window[0] + self.probe_interval)

    def _victims(self, run: WorkloadRun) -> List:
        addresses = list(run.anet.net.addresses())
        region_of = getattr(run.anet.topology, "region_of", None)
        if region_of is not None:
            try:
                return [a for a in addresses if region_of(a) == self.region]
            except AttributeError:
                pass  # a FaultPlan over a region-less inner topology
        count = max(1, len(addresses) // 4)
        return self._stream(run, "victims").sample(addresses, count)


class PartitionHeal(ChaosScenario):
    """A network cut for a window, then a reconcile storm on heal.

    During the window the fault plan refuses every cross-cut hop; ops
    spanning the cut retry with backoff and either outlive the partition
    or exhaust their budget (a failed, not hung, future).  At heal, one
    immediate ``reconcile()`` sweep (where the overlay supports it)
    restores routing state at once — the storm whose cost the report's
    reconcile counters expose.
    """

    name = "partition_heal"
    requires = frozenset()
    #: The cut: these regions against the rest, where the topology has a
    #: region map; otherwise a seeded ``fraction`` of the peers.
    regions = frozenset({0})
    fraction = 0.5

    def __init__(self, *, start: float = 8.0, end: float = 20.0):
        super().__init__()
        self.window = (start, end)
        self.heal_at = end

    def fault_plan(self, inner: Topology, seed: int) -> FaultPlan:
        regions = self.regions if hasattr(inner, "region_of") else None
        return FaultPlan(
            inner,
            seed=derive_seed(seed, "chaos", self.name),
            partitions=(
                PartitionWindow(
                    self.window[0],
                    self.window[1],
                    regions=regions,
                    fraction=self.fraction,
                ),
            ),
        )

    def install(self, run: WorkloadRun) -> None:
        def heal_storm() -> None:
            if run.anet.supports("reconcile"):
                run.reconcile()

        run.anet.sim.schedule_at(
            run.start_time + self.heal_at, heal_storm, label="chaos.heal"
        )
        self._schedule_probes(run, self.heal_at)


class FlashCrowd(ChaosScenario):
    """A join burst plus a many-fold query spike on one hot key range.

    The hot range is a contiguous slice of the *loaded* keys (so exact
    queries can hit), and the spike mixes exact lookups with range scans
    over it — the viral-content regime.  No fault plan: the adversity is
    load, and the metric of interest is whether availability inside the
    window survives the churn+skew combination with invariants intact.
    """

    name = "flash_crowd"
    requires = frozenset()
    #: Share of the loaded keys that goes viral, and the share of spike
    #: queries that scan the whole hot range instead of one key in it.
    hot_fraction = 1.0 / 64.0
    range_share = 0.2

    def __init__(
        self,
        *,
        start: float = 8.0,
        spike_len: float = 6.0,
        joins: int = 1000,
        query_multiplier: float = 100.0,
    ):
        super().__init__()
        if spike_len <= 0:
            raise ValueError("spike_len must be positive")
        self.window = (start, start + spike_len)
        self.heal_at = start + spike_len
        self.joins = joins
        self.query_multiplier = query_multiplier
        #: The struck key interval (set at install).
        self.hot_range: Tuple[int, int] = (0, 0)

    def install(self, run: WorkloadRun) -> None:
        anet = run.anet
        keys = sorted(run.keys)
        if keys:
            count = max(2, int(len(keys) * self.hot_fraction))
            count = min(count, len(keys))
            first = self._stream(run, "hot").randint(0, max(0, len(keys) - count))
            hot_keys = keys[first : first + count]
        else:
            hot_keys = [anet.domain.low]
        self.hot_range = (hot_keys[0], hot_keys[-1] + 1)

        def submit_join(stream: SeededRng) -> None:
            run.note("join", anet.submit_join())

        def submit_hot(stream: SeededRng) -> None:
            low, high = self.hot_range
            if self.range_share and stream.random() < self.range_share:
                run.note("search.range", anet.submit_search_range(low, high))
            else:
                run.note("search.exact", anet.submit_search_exact(stream.choice(hot_keys)))

        # Two Poisson streams confined to the spike window.
        start, end = self.window
        spike_rate = run.config.query_rate * self.query_multiplier
        for label, rate, submit in (
            ("chaos.join-burst", self.joins / (end - start), submit_join),
            ("chaos.query-spike", spike_rate, submit_hot),
        ):
            poisson(
                anet.sim,
                self._stream(run, "burst", label),
                rate,
                run.start_time + start,
                run.start_time + end,
                submit,
                label,
            )
        self._schedule_probes(run, self.heal_at)


class LossyLinks(ChaosScenario):
    """Ambient loss, duplication and delay spikes for the whole run.

    The at-least-once acceptance regime: at the default loss rate, query
    availability must stay above 90% with retries enabled and every
    future must resolve.  There is no heal point — recovery is 0 by
    definition; the interesting columns are availability, amplification
    and the retry/timeout counters.
    """

    name = "lossy_links"
    requires = frozenset()
    #: The channel: per-attempt verdict rates, how much a spike stretches
    #: a hop, and the at-least-once retry budget.
    drop_rate = DEFAULT_LOSS_RATE
    duplicate_rate = 0.02
    delay_spike_rate = 0.02
    delay_spike_factor = 8.0
    retry = RetryPolicy()

    def __init__(self, *, duration: float = 50.0):
        super().__init__()
        self.window = (0.0, duration)

    def fault_plan(self, inner: Topology, seed: int) -> FaultPlan:
        return FaultPlan(
            inner,
            seed=derive_seed(seed, "chaos", self.name),
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            delay_spike_rate=self.delay_spike_rate,
            delay_spike_factor=self.delay_spike_factor,
            retry=self.retry,
        )

    def finalize(self, run: WorkloadRun) -> None:
        super().finalize(run)
        run.report.recover_time = 0.0


def build_scenario(name: str, *, duration: float, n_peers: int = 0) -> ChaosScenario:
    """A scenario scaled to one run's window.

    Timings are fractions of ``duration`` so the same scenario shape runs
    at smoke scale and at the paper's scale; ``n_peers`` sizes the flash
    crowd's join burst (capped at the headline 1000 joins).
    """
    if name == "region_outage":
        return RegionOutage(strike_at=duration * 0.2, window_len=duration * 0.35)
    if name == "partition_heal":
        return PartitionHeal(start=duration * 0.15, end=duration * 0.45)
    if name == "flash_crowd":
        return FlashCrowd(
            start=duration * 0.15,
            spike_len=duration * 0.3,
            joins=min(1000, max(10, n_peers)),
        )
    if name == "lossy_links":
        return LossyLinks(duration=duration)
    raise ValueError(
        f"unknown chaos scenario {name!r} (choose from {SCENARIO_NAMES})"
    )


__all__ = [
    "SCENARIO_NAMES",
    "ChaosScenario",
    "FlashCrowd",
    "LossyLinks",
    "PartitionHeal",
    "RegionOutage",
    "build_scenario",
]
