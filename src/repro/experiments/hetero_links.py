"""Heterogeneous links: the three overlays when hops stop being equal.

The paper's evaluation counts hops as if every link cost the same, which
flattens exactly the question BATON's sideways tables are built for: a hop
that skips across subtrees is worth more when the alternative path crosses
an ocean.  This experiment places every peer in a clustered multi-region
WAN (:class:`~repro.sim.topology.ClusteredTopology`) and sweeps the
inter-region base delay, driving identical concurrent query workloads
against BATON, Chord and the multiway tree — the measurement the old
scalar latency model was structurally unable to produce.

Expected shape: every overlay's query latency grows with inter-region
cost, scaled by how many links its walks cross.  BATON and Chord route in
O(log N) hops, so their p50 grows gently; the multiway tree's link-by-link
walks cross far more (and therefore more inter-region) links, so its
curves climb fastest and its tail detaches first.
"""

from __future__ import annotations

from typing import Dict

from repro import overlays
from repro.experiments.grid import (
    Axis,
    Band,
    Grid,
    all_overlays,
    first_size,
    mean_of,
    total,
)
from repro.experiments.harness import (
    ExperimentResult,
    build_loaded,
    loaded_keys,
)
from repro.sim.topology import ClusteredTopology
from repro.util.rng import derive_seed
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "latency grows with inter-region cost for every overlay, scaled by the "
    "number of links a walk crosses: BATON and Chord (O(log N) hops) climb "
    "gently, the multiway tree's link-by-link walks climb fastest; BATON "
    "answers ranges along the adjacent chain so it keeps complete answers "
    "while paying tree-depth hops only once; latency stretch (op transit "
    "over the direct entry->owner link) exposes the same ordering "
    "independently of the raw delay scale — topology-blind routing pays "
    "the same multiple however expensive the links get"
)

INTER_DELAYS = (1.0, 2.0, 5.0, 10.0, 20.0)
QUERY_RATE = 8.0
REGIONS = 4
INTRA_DELAY = 1.0


def grid_cell(
    overlay: str,
    n_peers: int,
    seed: int,
    data_per_node: int,
    inter_delay: float,
    duration: float,
) -> Dict[str, float]:
    """One seeded run on a clustered WAN; query-only (the latency signal)."""
    net = build_loaded(overlay, n_peers, seed, data_per_node)
    topology = ClusteredTopology(
        derive_seed(seed, "hetero-links"),
        regions=REGIONS,
        intra_delay=INTRA_DELAY,
        inter_delay=inter_delay,
        jitter=0.2,
        asymmetry=0.1,
    )
    anet = overlays.get(overlay).wrap(
        net, topology=topology, record_events=False, retain_ops=False
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=0.0,
        query_rate=QUERY_RATE,
        range_fraction=0.2,
    )
    report = run_concurrent_workload(
        anet, keys, config, seed=derive_seed(seed, "hetero-driver")
    )
    return {
        "queries": report.query_total,
        "success": report.query_success_rate,
        "p50": report.query_latency_p50,
        "p99": report.query_latency_p99,
        "transit_p99": report.query_transit_p99,
        "stretch_p50": report.latency_stretch_p50,
        "stretch_p99": report.latency_stretch_p99,
        "msgs_per_query": report.messages_per_query,
    }


def _least_p50_growth(result: ExperimentResult) -> float:
    growth = []
    for name in dict.fromkeys(result.column("overlay")):
        p50 = result.column("p50", {"overlay": name})
        growth.append(p50[-1] - p50[0])
    return min(growth)


#: One row per (overlay, inter-region delay), identical workloads.
GRID = Grid(
    name="hetero",
    figure="Hetero links",
    title=lambda scale, env: (
        f"Query latency vs inter-region link cost "
        f"(clustered WAN, {REGIONS} regions, N={env['n_peers'][0]}, "
        f"intra delay {INTRA_DELAY})"
    ),
    expectation=EXPECTATION,
    axes=(
        Axis("overlay", all_overlays),
        Axis("inter_delay", INTER_DELAYS, quick=(1.0, 10.0)),
        Axis("n_peers", first_size, column=None),
    ),
    cell=grid_cell,
    scale_kwargs=("data_per_node",),
    derive=lambda scale, env: {"duration": scale.n_queries / QUERY_RATE},
    reduce={
        "queries": total("queries"),
        "success": mean_of("success"),
        "p50": mean_of("p50"),
        "p99": mean_of("p99"),
        "transit_p99": mean_of("transit_p99"),
        "stretch_p50": mean_of("stretch_p50"),
        "stretch_p99": mean_of("stretch_p99"),
        "msgs_per_query": mean_of("msgs_per_query"),
    },
    bands=(
        # Costlier inter-region links must surface in end-to-end latency —
        # the signal the scalar latency model could not express.
        Band(
            "p50 at the highest inter_delay - at the lowest, worst overlay",
            _least_p50_growth,
            ">",
            0,
        ),
        # Query-only: no churn loss.
        Band("min success", lambda r: min(r.column("success")), ">", 0.9),
        # The multiway tree crosses the most links, so it pays the most for
        # expensive ones (§V-B's walk-length claim, re-measured on a WAN).
        Band(
            "multiway p50 - BATON p50 at the highest inter_delay",
            lambda r: r.column("p50", {"overlay": "multiway"})[-1]
            - r.column("p50", {"overlay": "baton"})[-1],
            ">",
            0,
        ),
        Band(
            "max p50 - p99",
            lambda r: max(row["p50"] - row["p99"] for row in r.rows),
            "<=",
            0,
        ),
        Band("min transit_p99", lambda r: min(r.column("transit_p99")), ">", 0),
    ),
)

if __name__ == "__main__":
    GRID.main()
