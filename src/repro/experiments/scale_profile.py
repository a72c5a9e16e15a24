"""Scale profile: wall-clock cost of the runtime itself, N=1000 to N=10k.

Every other experiment measures the *overlay* (messages, hops, latency in
simulated units).  This one measures the *simulator*: how much real time
and memory the event engine, hop pricing and workload driver burn to push
a BATON churn-and-query run through, as the population grows to the
paper's N=10k (§V evaluates up to 10,000 nodes; D²-Tree and ART argue
their bounds at 10⁴–10⁵).  A reproduction that cannot execute the paper's
own N cheaply leaves the headline scale claim unverified — this table
shows what each population costs; ``benchmarks/e2e/run.py`` is the
regression judge.

Phases timed per population:

* **build** — constructing the loaded network (BATON through the direct
  bulk construction, DESIGN.md's "Construction contract");
* **drive** — the concurrent churn+query window on the event runtime
  (event-log recording off, futures released as they complete: the
  workload configuration of DESIGN.md's "Performance contract");

plus the engine's own counters: events executed, events per wall-second,
and the heap's high-water mark (which the cancellation tombstones keep
near the live pending count).

``GRID`` sweeps the experiment scale's populations (the full
1000/2500/5000/10000 grid under ``REPRO_FULL_SCALE=1``); it is the
``profile`` table of ``runall`` and of ``python -m repro profile``.
"""

from __future__ import annotations

import resource
import time
from typing import Dict

from repro import overlays
from repro.experiments.grid import Axis, Grid, all_sizes, only
from repro.experiments.harness import build_loaded, loaded_keys
from repro.sim.latency import ExponentialLatency
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "build cost grows near-linearly in N (each join is O(log N) messages); "
    "drive cost tracks executed events, not population, so events/sec stays "
    "roughly flat across N; the heap high-water mark stays near the live "
    "pending count (tombstone compaction) rather than growing with total "
    "scheduled events"
)

#: The fixed workload window each population is driven through.  Rates are
#: per simulated time unit; the arrival volume is independent of N, so the
#: drive phase isolates per-event cost while build isolates per-peer cost.
DURATION = 20.0
CHURN_RATE = 1.0
QUERY_RATE = 16.0
DATA_PER_NODE = 20


def peak_rss_mb() -> float:
    """The run's resident high-water mark, in MiB.

    ``ru_maxrss`` is kernel-reported (KiB on Linux), costs one syscall, and
    never decreases — within a sweep it reflects the largest population
    profiled so far, so read it per row and compare rows at equal N.  The
    max over ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN`` covers both execution
    modes: under ``--jobs`` the builds and drives happen in pool workers,
    whose high-water marks the parent only sees through the reaped-children
    counter.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def profile_run(n_peers: int, seed: int, *, overlay: str) -> Dict[str, object]:
    """One profiled build + drive; returns the phase timings and counters.

    BATON is built through the direct bulk construction (this is a scale
    surface); the drive is the fixed window above.
    """
    started = time.perf_counter()
    net = build_loaded(overlay, n_peers, seed, DATA_PER_NODE, bulk=True)
    build_s = time.perf_counter() - started

    rng = SeededRng(derive_seed(seed, "scale-profile"))
    anet = overlays.get(overlay).wrap(
        net,
        topology=ExponentialLatency(mean=1.0, rng=rng.child("latency")),
        record_events=False,
        retain_ops=False,
    )
    config = ConcurrentConfig(
        duration=DURATION,
        churn_rate=CHURN_RATE,
        query_rate=QUERY_RATE,
        range_fraction=0.2,
        min_peers=max(8, n_peers // 2),
    )
    started = time.perf_counter()
    report = run_concurrent_workload(
        anet,
        loaded_keys(n_peers, DATA_PER_NODE, seed),
        config,
        seed=derive_seed(seed, "driver"),
    )
    drive_s = time.perf_counter() - started

    events = anet.sim.executed_count
    return {
        "n_peers": n_peers,
        "build_s": round(build_s, 4),
        "drive_s": round(drive_s, 4),
        "events": events,
        "events_per_s": round(events / drive_s, 1) if drive_s > 0 else 0.0,
        "peak_heap": anet.sim.peak_queue_len,
        "queries": report.query_total,
        "success": round(report.query_success_rate, 4),
        "p50": round(report.query_latency_p50, 3),
        "stretch_p50": round(report.latency_stretch_p50, 3),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


#: Columns whose values are wall-clock (or RSS) measurements: real time,
#: not simulated behaviour.  They vary run to run and between execution
#: modes, so :meth:`ExperimentResult.canonical_text` masks them — the
#: parallel-equals-sequential identity is over behaviour, not timing.
VOLATILE_COLUMNS = ("build_s", "drive_s", "events_per_s", "peak_rss_mb")


#: One serial cell per N (seed 0 — wall-clock, not statistics).
#: ``serial=True`` keeps these out of the process pool — a timing sample
#: taken while sibling cells saturate the machine's cores measures
#: scheduler contention, not the runtime.  The scheduler runs them in the
#: parent after the pooled cells drain.
GRID = Grid(
    name="profile",
    figure="Scale profile",
    title=lambda scale, env: (
        f"Runtime wall-clock vs population ({env['overlay'][0]}, "
        f"window {DURATION} units, query rate {QUERY_RATE}/unit)"
    ),
    expectation=EXPECTATION,
    axes=(
        Axis("n_peers", all_sizes),
        Axis("overlay", "baton", column=None),
    ),
    cell=profile_run,
    seeds=lambda scale: (0,),
    serial=True,
    reduce={
        column: only(column)
        for column in (
            "build_s",
            "drive_s",
            "events",
            "events_per_s",
            "peak_heap",
            "queries",
            "success",
            "p50",
            "stretch_p50",
            "peak_rss_mb",
        )
    },
    volatile=VOLATILE_COLUMNS,
)


if __name__ == "__main__":
    GRID.main()
