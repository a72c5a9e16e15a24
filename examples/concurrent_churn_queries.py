"""Concurrent churn racing queries on the event-driven runtime.

The other examples execute operations one at a time.  Here, nothing waits:
joins, leaves, crashes, inserts and queries are all *in flight together* on
a shared simulated clock, each hop taking its own sampled latency.  Queries
launched mid-churn race stale routing state — most route around it for a
few extra hops, a few ride a crashing peer and are lost, and the report at
the end shows exactly how many and how slow.

Run::

    python examples/concurrent_churn_queries.py
"""

from __future__ import annotations

from repro import overlays
from repro.core.invariants import collect_violations
from repro.sim.latency import ExponentialLatency
from repro.util.rng import SeededRng
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import uniform_keys


def main() -> None:
    rng = SeededRng(2024)
    anet = overlays.get("baton").build_async(
        300,
        seed=17,
        topology=ExponentialLatency(mean=1.0, rng=rng.child("latency")),
    )
    keys = uniform_keys(3_000, seed=5)
    anet.net.bulk_load(keys)
    print(f"built {anet.net.size} peers, {len(keys)} keys loaded")

    # --- a single query, watched hop by hop --------------------------------
    future = anet.submit_search_exact(keys[42])
    future.add_done_callback(
        lambda f: print(
            f"  first query answered at t={f.completed_at:.2f} "
            f"after {f.hops} hops ({f.trace.total} messages)"
        )
    )
    anet.drain()

    # --- sustained concurrent load -----------------------------------------
    print("\nphase 1: heavy graceful churn racing queries")
    report = run_concurrent_workload(
        anet,
        keys,
        ConcurrentConfig(
            duration=60.0,
            churn_rate=2.0,     # two membership changes per mean hop latency
            query_rate=10.0,
            insert_rate=1.0,
            range_fraction=0.25,
        ),
        seed=1,
    )
    for line in report.summary_lines():
        print(f"  {line}")

    print("\nphase 2: crashes mixed in (repaired after the window)")
    report = run_concurrent_workload(
        anet,
        keys,
        ConcurrentConfig(
            duration=60.0,
            churn_rate=2.0,
            query_rate=10.0,
            fail_fraction=0.3,  # a third of departures are abrupt crashes
            range_fraction=0.25,
        ),
        seed=2,
    )
    for line in report.summary_lines():
        print(f"  {line}")

    violations = collect_violations(anet.net)
    # Heavy churn can leave a rare residual Theorem-1 imbalance that the
    # next join would heal; with these seeds the structure comes out clean.
    state = "invariants OK" if not violations else (
        f"{len(violations)} residual violation(s) — healed by future joins"
    )
    print(
        f"\nfinal structure: {anet.net.size} peers, {state}, "
        f"{anet.net.bus.stats.total} messages counted overall"
    )

    # --- phase 3: the same storm on every registered overlay ----------------
    # The runtime is overlay-agnostic: Chord and the multiway tree take the
    # identical churn-racing-queries workload, so the per-overlay costs the
    # paper compares (range-scan cliffs, long walks) show up side by side.
    print("\nphase 3: identical workload on every overlay in the registry")
    for name in overlays.available():
        rival = overlays.get(name).build_async(
            150,
            seed=17,
            topology=ExponentialLatency(mean=1.0, rng=SeededRng(99).child(name)),
        )
        rival.net.bulk_load(keys)
        report = run_concurrent_workload(
            rival,
            keys,
            ConcurrentConfig(
                duration=40.0, churn_rate=1.0, query_rate=8.0, range_fraction=0.25
            ),
            seed=3,
        )
        print(
            f"  {name:9s} success {report.query_success_rate:.3f}  "
            f"p50/p99 {report.query_latency_p50:.1f}/{report.query_latency_p99:.1f}  "
            f"{report.messages_per_query:.1f} msgs/query"
        )


if __name__ == "__main__":
    main()
