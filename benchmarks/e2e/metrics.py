"""What the benchmark measures: every metric's name, unit, direction and role.

``BENCHMARK.json`` at the repository root carries the same names in the
driver's fixed schema (name/unit/better, plus a bound for end-to-end
metrics); this module is where the *meaning* lives — whether a number is
host time or simulated behaviour, which end-to-end metric a layer metric
should move, and on which workload (README.md renders the same table).
``test_e2e_smoke.py`` pins the two in sync.

Kinds:

* ``host`` — what the simulator costs us (wall clock, RSS); noisy, reported
  as a median over repeats with its spread.
* ``sim`` — what the modelled overlay costs its users (messages, simulated
  latency, failure share); seeded, must repeat exactly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

WORKLOADS: Tuple[str, ...] = (
    "query_flat",
    "churn_durable",
    "wan_lossy_sessions",
    "sync_core",
)

#: Workloads that run on the event-driven runtime (the traced repeat and
#: the ``sim.*`` / ``net.*`` / ``core.*`` layer metrics apply to these).
ASYNC_WORKLOADS: Tuple[str, ...] = WORKLOADS[:3]

#: ``MsgType`` names reported as ``net.bus.by_type.<NAME>``.
BUS_MESSAGE_TYPES: Tuple[str, ...] = (
    "SEARCH", "RANGE_SEARCH", "INSERT", "JOIN_FIND", "LEAVE_FIND",
    "TABLE_UPDATE", "RESTRUCTURE", "REPLICATE", "RECONCILE",
    "MULTICAST", "NOTIFY",
)

SYNC_OVERLAYS: Tuple[str, ...] = ("baton", "chord", "multiway")
SYNC_OPS: Tuple[str, ...] = (
    "search_exact",
    "search_range",
    "insert",
    "delete",
    "leave_join",
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    kind: str  # "host" | "sim"
    better: str  # "lower" | "higher"
    bound: float  # share of the parent's median it may worsen by
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "host", "lower", 0.25,
        "generate inputs + build network(s) + initial replica anchor + wrap",
    ),
    EndToEnd(
        "ops_per_s", "ops/s", "host", "higher", 0.25,
        "overlay operations submitted / run_s (event loop + repair_all + "
        "reconcile, or the whole sync op script)",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "host", "lower", 0.05,
        "ru_maxrss of the workload's own subprocess",
    ),
    EndToEnd(
        "ok_share", "ratio", "sim", "higher", 0.015,
        "1 - (ops failed + exact queries not found + range queries "
        "incomplete + ops unresolved) / ops attempted",
    ),
    EndToEnd(
        "msgs_per_op", "msgs", "sim", "lower", 0.12,
        "all bus messages in the run (maintenance included) / ops attempted",
    ),
    EndToEnd(
        "msgs_per_query", "msgs", "sim", "lower", 0.12,
        "BATON mean messages per exact/range query (paper Fig. 8(d/e))",
    ),
    EndToEnd(
        "sim_latency_p50", "simtime", "sim", "lower", 0.12,
        "BATON query latency median (sync_core: messages per exact search)",
    ),
    EndToEnd(
        "sim_latency_p99", "simtime", "sim", "lower", 0.16,
        "BATON query latency p99 (sync_core: messages per exact search)",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: "phase" (untraced wall clock around a public call), "count"
    #: (deterministic, read from public state), "traced" (self time from
    #: the traced repeat) or "sync" (sync_core per-overlay numbers).
    kind: str
    #: The end-to-end metric(s) this layer metric should move ...
    moves: str
    #: ... and the workload(s) on which it should show.
    on: str


def _layers() -> List[Layer]:
    out: List[Layer] = []

    def add(name, unit, better, kind, moves, on):
        out.append(Layer(name, unit, better, kind, moves, on))

    every = "all"
    # -- phases ---------------------------------------------------------------
    add("workloads.generators.keys_s", "s", "lower", "phase", "setup_s", every)
    add("core.bulk_build.build_s", "s", "lower", "phase", "setup_s", "async")
    add("core.replication.anchor_s", "s", "lower", "phase", "setup_s", "churn_durable")
    add("overlays.registry.wrap_s", "s", "lower", "phase", "setup_s", "async")
    add("sim.runtime.loop_s", "s", "lower", "phase", "ops_per_s", "query_flat, wan_lossy_sessions")
    add("sim.runtime.reconcile_s", "s", "lower", "phase", "ops_per_s", "churn_durable (query_flat ~18 %)")
    add("sim.runtime.repair_all_s", "s", "lower", "phase", "ops_per_s", "churn_durable")
    # -- counts ---------------------------------------------------------------
    msgs = "msgs_per_op, msgs_per_query"
    add("sim.engine.events", "count", "lower", "count", "ops_per_s", "async")
    add("sim.engine.events_per_s", "1/s", "higher", "count", "ops_per_s", "async")
    add("sim.engine.peak_heap", "count", "lower", "count", "peak_rss_mb", "async")
    add("sim.engine.cancelled", "count", "lower", "count", "ops_per_s", "async")
    add("sim.runtime.max_in_flight", "count", "lower", "count", "peak_rss_mb", "async")
    add("sim.runtime.ops_failed", "count", "lower", "count", "ok_share", "churn_durable, wan_lossy_sessions")
    add("sim.runtime.reconcile_msgs", "msgs", "lower", "count", "msgs_per_op", "churn_durable")
    add("net.bus.messages", "msgs", "lower", "count", msgs, "async")
    for mtype in BUS_MESSAGE_TYPES:
        add(f"net.bus.by_type.{mtype}", "msgs", "lower", "count", msgs, "async")
    durable = "ok_share, msgs_per_op"
    for name in ("joins", "leaves", "fails"):
        add(f"core.membership.{name}", "count", "higher", "count", durable, "churn_durable")
    add("core.failure.repairs", "count", "higher", "count", durable, "churn_durable")
    add("core.failure.keys_recovered", "count", "higher", "count", durable, "churn_durable")
    add("core.replication.replica_msgs", "msgs", "lower", "count", durable, "churn_durable")
    add("core.replication.keys_lost", "count", "lower", "count", durable, "churn_durable")
    cache = "sim_latency_p50, msgs_per_query"
    add("core.cache.hits", "count", "higher", "count", cache, "wan_lossy_sessions")
    add("core.cache.misses", "count", "lower", "count", cache, "wan_lossy_sessions")
    add("core.cache.invalidations", "count", "lower", "count", cache, "wan_lossy_sessions")
    add("core.cache.hit_rate", "ratio", "higher", "count", cache, "wan_lossy_sessions")
    add("sim.topology.stretch_p50", "ratio", "lower", "count", cache, "wan_lossy_sessions")
    for name in ("deliveries", "subscriptions", "notifications", "duplicates_suppressed"):
        add(f"pubsub.{name}", "count", "higher", "count", "msgs_per_op", "wan_lossy_sessions")
    chaos = "sim_latency_p99, ok_share"
    for name in ("drops", "duplicates", "delay_spikes", "retries", "timeouts", "gave_up"):
        add(f"sim.faults.{name}", "count", "lower", "count", chaos, "wan_lossy_sessions")
    add("sim.faults.amplification", "ratio", "lower", "count", chaos, "wan_lossy_sessions")
    # -- traced self-times (each a share of sim.runtime.loop_s) ---------------
    share = "ops_per_s (share of sim.runtime.loop_s)"
    add("sim.engine.schedule_calls", "count", "lower", "traced", share, "async")
    add("sim.engine.schedule_s", "s", "lower", "traced", share, "async")
    add("sim.engine.pop_self_s", "s", "lower", "traced", share, "async")
    add("sim.topology.samples", "count", "lower", "traced", share, "async")
    add("sim.topology.sample_s", "s", "lower", "traced", share, "async")
    add("sim.faults.judged", "count", "lower", "traced", share, "wan_lossy_sessions")
    add("sim.faults.judge_s", "s", "lower", "traced", share, "wan_lossy_sessions")
    add("net.bus.send_s", "s", "lower", "traced", share, "async")
    add("workloads.concurrent.arrivals", "count", "lower", "traced", share, "async")
    add("workloads.concurrent.arrival_self_s", "s", "lower", "traced", share, "async")
    add("sim.runtime.steps", "count", "lower", "traced", share, "async")
    add("sim.runtime.step_self_s", "s", "lower", "traced", share, "async")
    add("sim.runtime.maintenance_actions", "count", "lower", "traced", share, "churn_durable")
    add("sim.runtime.maintenance_self_s", "s", "lower", "traced", share, "churn_durable")
    add("trace.overhead", "ratio", "lower", "traced", "none (cost of the instrument)", "async")
    add("trace.unattributed_s", "s", "lower", "traced", share, "async")
    # -- sync facade, per overlay ---------------------------------------------
    for overlay in SYNC_OVERLAYS:
        for op in SYNC_OPS:
            add(f"{overlay}.{op}.us_per_op", "us", "lower", "sync", "ops_per_s", "sync_core")
            add(f"{overlay}.{op}.msgs_mean", "msgs", "lower", "sync", "msgs_per_op", "sync_core")
        add(f"{overlay}.build_s", "s", "lower", "sync", "setup_s", "sync_core")
    add("baton.height_ratio", "ratio", "lower", "sync", "sim_latency_p50", "sync_core")
    add("baton.balance_events", "count", "higher", "sync", "msgs_per_op", "sync_core")
    return out


PER_LAYER: Tuple[Layer, ...] = tuple(_layers())

E2E_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}
LAYER_BY_NAME: Dict[str, Layer] = {m.name: m for m in PER_LAYER}


def grouped_percentile(values: Sequence[int], q: float) -> float:
    """Percentile of integer-valued samples, interpolated inside the class.

    Hop counts are small integers, so a nearest-rank percentile jumps a
    whole hop (10 % at p50 = 10) when one sample crosses the rank.  The
    grouped-data estimate treats each integer ``h`` as the class
    ``[h - 0.5, h + 0.5)`` and interpolates by rank within it.
    """
    if not values:
        return 0.0
    counts: Dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    rank = q * len(values)
    seen = 0
    for value in sorted(counts):
        here = counts[value]
        if seen + here >= rank:
            return value - 0.5 + (rank - seen) / here
        seen += here
    return float(max(counts))


def quartile_spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    median = statistics.median(samples)
    if median == 0 or math.isnan(median):
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median)
