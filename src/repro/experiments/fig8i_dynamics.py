"""Figure 8(i): effect of network dynamics (concurrent joins and leaves).

Paper's reading: while the network digests a burst of simultaneous
membership changes, routing knowledge is transiently stale, queries get
forwarded to wrong (or gone) destinations, and each query pays extra
messages; the more concurrent events, the more extra messages.

Mechanics here: ``k`` peers depart abruptly while ``k`` join, queries run
inside the window (stale links to the departed peers cost a wasted message
plus recovery hops — §III-D's fault-tolerant routing), then repairs run and
the structural invariants are re-verified.  The discrete-event engine
(:mod:`repro.sim`) schedules the interleaving so event order is a seeded,
reproducible shuffle of joins, departures and queries.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.invariants import collect_violations
from repro.experiments.grid import Axis, Band, Grid, first_size, mean_of, total
from repro.experiments.harness import build_baton, loaded_keys, mean
from repro.sim.engine import Simulator
from repro.sim.latency import ExponentialLatency
from repro.util.rng import SeededRng
from repro.workloads.generators import exact_queries

EXPECTATION = (
    "extra messages per query grow with the number of concurrent "
    "joins/leaves; zero violations after repairs"
)

CONCURRENCY_LEVELS = (2, 4, 8, 16, 32)


def grid_cell(
    k: int, n_peers: int, seed: int, data_per_node: int, n_queries: int
) -> Dict[str, float]:
    """One (concurrency level, seed) point: baseline, churn window, repair."""
    loaded = loaded_keys(n_peers, data_per_node, seed)
    net = build_baton(n_peers, seed, data_per_node)
    queries = exact_queries(loaded, n_queries, seed=seed + 97)
    baseline = mean([net.search_exact(q).trace.total for q in queries])
    during = _churn_window(net, k, queries, seed)
    net.repair_all()
    return {
        "baseline": baseline,
        "during": during,
        "violations": len(collect_violations(net)),
    }


def _extra(group: List[Dict[str, float]]) -> float:
    return mean_of("during")(group) - mean_of("baseline")(group)


def _churn_window(net, k: int, queries, seed: int) -> float:
    """Interleave k failures, k joins and the query stream on a DES timeline."""
    rng = SeededRng(seed + 131)
    latency = ExponentialLatency(mean=1.0, rng=rng.child("latency"))
    sim = Simulator()
    costs: list[int] = []

    def do_fail() -> None:
        live = [a for a in net.addresses()]
        if len(live) > 2:
            net.fail(rng.choice(live))

    def do_join() -> None:
        net.join()

    def make_query(key: int):
        def do_query() -> None:
            costs.append(net.search_exact(key).trace.total)

        return do_query

    # Client-side scheduling delays: no peer link is involved, so the
    # degenerate (None, None) link prices one baseline hop.
    for _ in range(k):
        sim.schedule(latency.sample(None, None), do_fail, label="fail")
        sim.schedule(latency.sample(None, None), do_join, label="join")
    window_span = 2.0  # churn events land within ~2 mean latencies
    for i, key in enumerate(queries):
        sim.schedule(
            rng.uniform(0, window_span) + latency.sample(None, None),
            make_query(key),
            label="query",
        )
    sim.run()
    return mean(costs)


GRID = Grid(
    name="fig8i",
    figure="Fig 8i",
    title=lambda scale, env: (
        f"Network dynamics: concurrent joins/leaves (N={env['n_peers'][0]})"
    ),
    expectation=EXPECTATION,
    axes=(
        Axis("k", CONCURRENCY_LEVELS, quick=(2, 4), column="concurrent"),
        Axis("n_peers", first_size, column=None),
    ),
    cell=grid_cell,
    scale_kwargs=("data_per_node", "n_queries"),
    reduce={
        "baseline": mean_of("baseline"),
        "during": mean_of("during"),
        "extra": _extra,
        "violations": total("violations"),
    },
    bands=(
        Band("extra at the lowest k", lambda r: r.column("extra")[0], ">=", 0),
        Band("extra at the highest k", lambda r: r.column("extra")[-1], ">", 0),
        Band("sum violations", lambda r: sum(r.column("violations")), "==", 0),
    ),
)

if __name__ == "__main__":
    GRID.main()
