"""Concurrent dynamics: query success and latency versus churn intensity.

Extends Figure 8(i) from "extra messages per query during a churn burst" to
the regime D3-Tree and ART are evaluated in: a sustained stream of joins
and leaves racing a stream of queries, all in flight together on the
event-driven runtime.  For each churn rate the experiment reports the
query success rate (answered fully: exact hit / complete range) and the
submit-to-answer latency percentiles in units of mean hop latency.

Since the runtime is overlay-agnostic (:mod:`repro.overlays`), the same
sweep runs against any registered overlay (``overlay="chord"`` /
``"multiway"``), and :data:`COMPARISON` drives all three through
identical workloads for the paper's head-to-head claims under churn.

Expected shape: success stays near 1 and latency flat at low churn; as
churn intensity approaches the query rate, queries pay more recovery hops
(latency tail grows) and a small fraction are lost outright with their
carrier peers.
"""

from __future__ import annotations

from typing import Dict

from repro import overlays
from repro.experiments.grid import (
    Axis,
    Band,
    Grid,
    all_overlays,
    gap,
    mean_of,
    peak,
    total,
)
from repro.experiments.harness import (
    ExperimentResult,
    ExperimentScale,
    build_loaded,
    loaded_keys,
)
from repro.sim.latency import ExponentialLatency
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "success rate near 1 and flat latency at low churn; latency tail and "
    "lost queries grow as churn intensity approaches the query rate; "
    "violations zero after repair/reconcile except rare residual Theorem-1 "
    "imbalance under heavy churn (a leaf departs on a safe-departure check "
    "whose correction was lost to a stale link; the next join heals it)"
)

COMPARISON_EXPECTATION = (
    "BATON answers queries in O(log N) hops with complete ranges; Chord "
    "matches exact-query latency but pays O(N) messages per range scan; "
    "the multiway tree pays long link-by-link walks, so its latencies are "
    "highest and its queries are the most fragile under churn (a walk dies "
    "with any peer it is traversing)"
)

CHURN_RATES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
COMPARISON_CHURN_RATES = (0.0, 1.0)
QUERY_RATE = 8.0
TARGET_PEERS = 1000


def target_peers(scale: ExperimentScale) -> int:
    """The sweep population: the canonical N when the scale reaches it."""
    return (
        TARGET_PEERS if max(scale.sizes) >= TARGET_PEERS else scale.sizes[0]
    )


def dynamics_cell(
    overlay: str,
    n_peers: int,
    seed: int,
    data_per_node: int,
    churn_rate: float,
    duration: float,
) -> Dict[str, float]:
    """One seeded concurrent run, reduced to the aggregated report fields."""
    net = build_loaded(overlay, n_peers, seed, data_per_node)
    rng = SeededRng(derive_seed(seed, "concurrent-dynamics"))
    anet = overlays.get(overlay).wrap(
        net,
        topology=ExponentialLatency(mean=1.0, rng=rng.child("latency")),
        record_events=False,
        retain_ops=False,
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=churn_rate,
        query_rate=QUERY_RATE,
        range_fraction=0.2,
        min_peers=max(8, n_peers // 2),
    )
    report = run_concurrent_workload(
        anet, keys, config, seed=derive_seed(seed, "driver"), reconcile_at_end=False
    )
    # What the run left behind, then what the final anti-entropy sweep
    # (where the overlay has one) leaves.
    before_reconcile = len(net.violations())
    anet.reconcile()
    return {
        "queries": report.query_total,
        "success": report.query_success_rate,
        "p50": report.query_latency_p50,
        "p90": report.query_latency_p90,
        "p99": report.query_latency_p99,
        "msgs_per_query": report.messages_per_query,
        "max_in_flight": report.max_in_flight,
        "violations_before_reconcile": before_reconcile,
        "violations": len(net.violations()),
    }


def _duration(scale: ExperimentScale, env) -> Dict[str, float]:
    return {"duration": scale.n_queries / QUERY_RATE}


_LATENCY = {
    "queries": total("queries"),
    "success": mean_of("success"),
    "p50": mean_of("p50"),
    "p90": mean_of("p90"),
    "p99": mean_of("p99"),
    "msgs_per_query": mean_of("msgs_per_query"),
}

GRID = Grid(
    name="concurrent",
    figure="Concurrent dynamics",
    title=lambda scale, env: (
        f"Churn racing queries on the event runtime "
        f"({env['overlay'][0]}, N={env['n_peers'][0]}, "
        f"query rate {QUERY_RATE}/unit)"
    ),
    expectation=EXPECTATION,
    axes=(
        Axis("overlay", "baton", column=None),
        Axis("churn_rate", CHURN_RATES, quick=(0.0, 2.0)),
        Axis("n_peers", target_peers, column=None),
    ),
    cell=dynamics_cell,
    scale_kwargs=("data_per_node",),
    derive=_duration,
    reduce={
        **_LATENCY,
        "max_in_flight": peak("max_in_flight"),
        "violations_before_reconcile": total("violations_before_reconcile"),
        "violations": total("violations"),
    },
    bands=(
        Band("success without churn", lambda r: r.column("success")[0], "==", 1),
        Band("min success", lambda r: min(r.column("success")), ">", 0.8),
        Band(
            "violations_before_reconcile without churn",
            lambda r: r.column("violations_before_reconcile")[0],
            "==",
            0,
        ),
        # What concurrent churn leaves for the final sweep to mend: 27 at
        # the default scale (3 at churn 2.0, 24 at 4.0), 4 at --quick.
        Band(
            "sum violations_before_reconcile",
            lambda r: sum(r.column("violations_before_reconcile")),
            "<=",
            27,
        ),
        Band("violations without churn", lambda r: r.column("violations")[0], "==", 0),
        # A rare residual Theorem-1 imbalance under heavy churn (see
        # EXPECTATION); anything more is a real bug.
        Band("sum violations", lambda r: sum(r.column("violations")), "<=", 2),
        Band(
            "max of p50 - p90 and p90 - p99",
            lambda r: max(
                max(row["p50"] - row["p90"], row["p90"] - row["p99"])
                for row in r.rows
            ),
            "<=",
            0,
        ),
        # Genuine overlap: operations really were in flight together.
        Band("min max_in_flight", lambda r: min(r.column("max_in_flight")), ">", 1),
    ),
)


def _baselines(result: ExperimentResult) -> list:
    return [row for row in result.rows if row["overlay"] != "baton"]


#: Three-way concurrent comparison: every overlay, identical workloads.
#: One row per (overlay, churn rate); the churn/query/insert arrival
#: processes, seeds and latency model are shared, so the rows differ only
#: in how each overlay's protocol copes.  Same population as ``GRID``, so
#: the baton rows of the two tables are directly comparable.
COMPARISON = Grid(
    name="comparison",
    figure="Concurrent comparison",
    title=lambda scale, env: (
        f"BATON vs. baselines under concurrent churn "
        f"(N={env['n_peers'][0]}, query rate {QUERY_RATE}/unit)"
    ),
    expectation=COMPARISON_EXPECTATION,
    axes=(
        Axis("overlay", all_overlays),
        Axis("churn_rate", COMPARISON_CHURN_RATES, quick=(0.0,)),
        Axis("n_peers", target_peers, column=None),
    ),
    cell=dynamics_cell,
    scale_kwargs=("data_per_node",),
    derive=_duration,
    # Each overlay's own checker (``OverlayNetwork.violations``); no band
    # yet, the column reports what the baselines break under churn.
    reduce={
        **_LATENCY,
        "violations_before_reconcile": total("violations_before_reconcile"),
        "violations": total("violations"),
    },
    bands=(
        # No sideways tables means longer walks: the paper's §V-B claim.
        Band(
            "BATON p50 - multiway p50, worst churn rate",
            gap("p50", {"overlay": "baton"}, {"overlay": "multiway"}),
            "<",
            0,
        ),
        Band(
            "min baseline success without churn",
            lambda r: min(
                row["success"]
                for row in _baselines(r)
                if row["churn_rate"] == 0.0
            ),
            ">",
            0.95,
        ),
        # Under churn the baselines degrade by their structure (multiway
        # walks are the most fragile) but must not collapse.
        Band(
            "min baseline success",
            lambda r: min(row["success"] for row in _baselines(r)),
            ">",
            0.5,
        ),
    ),
)

if __name__ == "__main__":
    GRID.main()
    print()
    COMPARISON.main()
