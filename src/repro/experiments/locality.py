"""Locality: what topology awareness buys on a clustered WAN.

The paper's evaluation counts hops; PR 8's ``hetero_links`` showed what
those hops *cost* on a clustered multi-region WAN.  This experiment
measures the other side of the ledger: how much of that cost the locality
extensions (DESIGN.md, "Locality contract") win back.

Grid: (N, join mode, cache) cells on the same
:class:`~repro.sim.topology.ClusteredTopology`, identical query
workloads.  ``join=aware`` grows the overlay through topology-aware joins
(each joiner probes ``JOIN_PROBES`` candidate entry points — priced
messages — and attaches where its region-neighbourhood link cost is
lowest); ``join=uniform`` is the paper's Algorithm 1.  ``cache=1`` gives
every peer a bounded hot-range route cache
(:mod:`repro.core.cache`); queries enter through a handful of fixed
gateway peers and concentrate on a hot key range — the session regime
where a per-peer cache can warm up — in **every** cell, so the columns
compare network configurations, never workloads.

Reported per cell: latency stretch p50/p99 (op transit over the direct
entry->owner link — the topology-blindness metric), cache hit rate and
invalidations, query latency, messages per query, and the build-time join
cost (probing is paid for, so ``join=aware`` rows show more messages per
join).

Expected shape: the cache collapses stretch p50 toward 1 (a warm hit is
one direct message, verified at the owner); aware join trims the residual
walk cost by keeping tree neighbours region-local; probing's price is
visible in build messages per join, bounded by 2·(probes-1)+1 extra
messages.  Churn invalidates cached routes but never corrupts answers —
misses, not wrong results.
"""

from __future__ import annotations

from repro import overlays
from repro.core.cache import DEFAULT_CACHE_SIZE
from repro.core.network import BatonConfig, BatonNetwork, LocalityConfig
from repro.experiments import snapshot
from repro.experiments.grid import Axis, Grid, first_size, mean_of, total
from repro.experiments.harness import loaded_keys
from repro.sim.topology import ClusteredTopology
from repro.util.rng import derive_seed
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "the hot-range cache collapses stretch p50 toward 1 (a warm hit is one "
    "direct, verified message instead of an O(log N) walk) and reports its "
    "hit rate; topology-aware join trims the remaining walk cost by "
    "keeping tree neighbours region-local, paying a bounded, visible "
    "probing surcharge at build time; churn turns cached routes into "
    "misses, never into wrong answers"
)

QUERY_RATE = 8.0
#: Queries per cell, floored: a cache entry is recorded when a walk
#: *completes*, and on this WAN a walk takes tens of time units — every
#: query submitted inside that first window runs cold.  The window must
#: be a small fraction of the run for the steady-state hit rate to show
#: (hit ceiling is roughly 1 - latency/duration), so short scales get
#: their query count raised rather than silently reporting warm-up.
MIN_QUERIES = 2000
REGIONS = 4
INTRA_DELAY = 1.0
INTER_DELAY = 10.0
#: Candidate entry points a topology-aware joiner prices (contact + 3).
JOIN_PROBES = 4
#: Fixed session entry points for the query workload.
GATEWAYS = 8
#: Background churn so cache coherence is exercised, not assumed.
CHURN_RATE = 0.2


def hot_keys(keys: list[int], data_per_node: int) -> list[int]:
    """A contiguous hot slice of the loaded keys, a few owners wide.

    Exact queries draw from this slice, so a handful of owners see almost
    all the traffic — the skew every caching story assumes (ART's cached
    coverage, web-workload Zipf tails).  Sized in units of per-node load
    (one node's fair share of keys) so the owner count behind the slice
    stays small at every N; deterministic — same keys, same slice.
    """
    ordered = sorted(keys)
    width = min(len(ordered), max(24, data_per_node))
    offset = (len(ordered) - width) // 2
    return ordered[offset : offset + width]


def build_locality_net(
    n_peers: int, seed: int, data_per_node: int, aware_join: bool, cache: bool
):
    """Grow the overlay on its WAN; returns (net, build msgs per join).

    The overlay grows through real joins (not bulk construction) so the
    join mode can actually shape which region each peer attaches in; the
    topology is installed *before* growth, exactly as a deployment would
    bootstrap against the physical network it lives on.  Snapshot-cached:
    the topology travels inside the snapshot (``net.topology``), and
    probing reads only its deterministic ``direct_delay`` during growth,
    so a restored (net, topology) pair drives exactly like a fresh one.
    """
    parts = {
        "builder": "locality",
        "n_peers": n_peers,
        "seed": seed,
        "data_per_node": data_per_node,
        "aware_join": aware_join,
        "cache": cache,
        "topology": (
            "clustered",
            REGIONS,
            INTRA_DELAY,
            INTER_DELAY,
            0.2,  # jitter
            0.1,  # asymmetry
            JOIN_PROBES if aware_join else 0,
        ),
    }
    return snapshot.cached(
        parts,
        lambda: _grow_locality_net(
            n_peers, seed, data_per_node, aware_join, cache
        ),
    )


def _grow_locality_net(
    n_peers: int, seed: int, data_per_node: int, aware_join: bool, cache: bool
):
    locality = LocalityConfig(
        join_probes=JOIN_PROBES if aware_join else 0,
        cache_size=DEFAULT_CACHE_SIZE if cache else 0,
    )
    topology = ClusteredTopology(
        derive_seed(seed, "locality"),
        regions=REGIONS,
        intra_delay=INTRA_DELAY,
        inter_delay=INTER_DELAY,
        jitter=0.2,
        asymmetry=0.1,
    )
    net = BatonNetwork(config=BatonConfig(locality=locality), seed=seed)
    net.topology = topology  # probing prices candidates during growth
    net.grow(n_peers, loaded_keys(n_peers, data_per_node, seed))
    build_msgs_per_join = (
        net.bus.stats.total / (n_peers - 1) if n_peers > 1 else 0.0
    )
    return net, build_msgs_per_join


def locality_cell(
    n_peers: int,
    seed: int,
    data_per_node: int,
    duration: float,
    aware_join: bool,
    cache: bool,
    with_churn: bool = True,
) -> dict:
    """One seeded cell: grow (or restore) the overlay, then query it."""
    net, build_msgs_per_join = build_locality_net(
        n_peers, seed, data_per_node, aware_join, cache
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    anet = overlays.get("baton").wrap(
        net, topology=net.topology, record_events=False, retain_ops=False
    )
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=CHURN_RATE if with_churn else 0.0,
        query_rate=QUERY_RATE,
        range_fraction=0.0,
        client_gateways=GATEWAYS,
        maintenance_interval=duration / 4,
    )
    report = run_concurrent_workload(
        anet,
        hot_keys(keys, data_per_node),
        config,
        seed=derive_seed(seed, "locality-driver"),
    )
    return {
        "queries": report.query_total,
        "success": report.query_success_rate,
        "hit_rate": report.cache_hit_rate,
        "invalidations": report.cache_invalidations,
        "p50": report.query_latency_p50,
        "stretch_p50": report.latency_stretch_p50,
        "stretch_p99": report.latency_stretch_p99,
        "msgs_per_query": report.messages_per_query,
        "build_msgs_per_join": build_msgs_per_join,
    }


#: One row per (N, join mode, cache), identical workloads per N.
GRID = Grid(
    name="locality",
    figure="Locality",
    title=(
        f"Latency stretch vs locality features (clustered WAN, "
        f"{REGIONS} regions, inter delay {INTER_DELAY}, "
        f"{GATEWAYS} gateways, hot-range queries)"
    ),
    expectation=EXPECTATION,
    axes=(
        Axis("n_peers", first_size),
        Axis(
            "aware_join",
            (False, True),
            column="join",
            label=lambda aware: "aware" if aware else "uniform",
        ),
        Axis("cache", (False, True), label=int),
        Axis("with_churn", True, column=None),
    ),
    cell=locality_cell,
    scale_kwargs=("data_per_node",),
    derive=lambda scale, env: {
        "duration": max(scale.n_queries, MIN_QUERIES) / QUERY_RATE
    },
    reduce={
        "queries": total("queries"),
        "success": mean_of("success"),
        "hit_rate": mean_of("hit_rate"),
        "invalidations": total("invalidations"),
        "p50": mean_of("p50"),
        "stretch_p50": mean_of("stretch_p50"),
        "stretch_p99": mean_of("stretch_p99"),
        "msgs_per_query": mean_of("msgs_per_query"),
        "build_msgs_per_join": mean_of("build_msgs_per_join"),
    },
)

if __name__ == "__main__":
    GRID.main()
