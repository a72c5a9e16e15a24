"""Figure 8(e): messages per range query.

Paper's reading: BATON finds the first intersecting node in O(log N) hops
and then pays O(1) per additional covered node — O(log N + X) total.  The
multiway tree also supports ranges but spends more on both phases.  Chord
is absent from the paper's panel because hashing destroys order; we include
its only honest option — a full ring walk — as the O(N) cliff that
motivates the whole line of work.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.grid import Axis, Band, Grid, all_sizes, gap, pooled
from repro.experiments.harness import build_loaded
from repro.workloads.generators import range_queries

EXPECTATION = (
    "BATON ≈ O(log N + X) lowest; multiway above BATON; Chord (ring walk) "
    "= O(N), off the chart — the paper omits it for this reason"
)

SYSTEMS = ("baton", "multiway", "chord_ring_walk")


def grid_cell(
    system: str, n_peers: int, seed: int, data_per_node: int, n_queries: int
) -> Dict[str, List[float]]:
    """One (system, size, seed) point: range queries over the loaded net."""
    overlay = "chord" if system == "chord_ring_walk" else system
    net = build_loaded(overlay, n_peers, seed, data_per_node)
    costs: List[int] = []
    answer_nodes: List[int] = []
    queries = range_queries(n_queries, selectivity=0.002, seed=seed + 53)
    for low, high in queries:
        answer = net.search_range(low, high)
        costs.append(answer.trace.total)
        answer_nodes.append(
            answer.nodes_visited
            if hasattr(answer, "nodes_visited")
            else len(answer.owners)
        )
    return {"costs": costs, "answer_nodes": answer_nodes}


GRID = Grid(
    name="fig8e",
    figure="Fig 8e",
    title="Range query (avg messages)",
    expectation=EXPECTATION,
    axes=(Axis("system", SYSTEMS), Axis("n_peers", all_sizes, column="N")),
    cell=grid_cell,
    scale_kwargs=("data_per_node", "n_queries"),
    reduce={"messages": pooled("costs"), "answer_nodes": pooled("answer_nodes")},
    bands=(
        Band(
            "BATON messages - ring walk messages, worst N",
            gap("messages", {"system": "baton"}, {"system": "chord_ring_walk"}),
            "<",
            0,
        ),
        # The O(N) cliff: the ring walk visits every node.
        Band(
            "ring walk messages - (N - 1), min over N",
            lambda r: min(
                row["messages"] - (row["N"] - 1)
                for row in r.rows
                if row["system"] == "chord_ring_walk"
            ),
            ">=",
            0,
        ),
    ),
)

if __name__ == "__main__":
    GRID.main()
