"""Figure 8(d): messages per exact-match query.

Paper's reading: BATON answers in O(log N) hops, marginally above Chord
(tree height carries the 1.44 balance factor) and far below the multiway
tree — which pays long horizontal walks for its minimal routing state.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.grid import Axis, Band, Grid, all_sizes, gap, pooled
from repro.experiments.harness import build_loaded, loaded_keys
from repro.workloads.generators import exact_queries

EXPECTATION = (
    "BATON ≈ Chord (slightly above, 1.44 factor), both ≪ multiway; all "
    "logarithmic in N; every query answered correctly"
)

SYSTEMS = ("baton", "chord", "multiway")


def grid_cell(
    system: str, n_peers: int, seed: int, data_per_node: int, n_queries: int
) -> Dict[str, object]:
    """One (system, size, seed) point: exact queries over loaded keys."""
    loaded = loaded_keys(n_peers, data_per_node, seed)
    net = build_loaded(system, n_peers, seed, data_per_node)
    costs: List[int] = []
    hits = 0
    total = 0
    for key in exact_queries(loaded, n_queries, seed=seed + 31):
        search = net.search_exact(key)
        costs.append(search.trace.total)
        hits += int(search.found)
        total += 1
    return {"costs": costs, "hits": hits, "total": total}


def _hit_rate(group: List[Dict[str, object]]) -> float:
    hits = sum(out["hits"] for out in group)
    total = sum(out["total"] for out in group)
    return hits / total if total else 0.0


GRID = Grid(
    name="fig8d",
    figure="Fig 8d",
    title="Exact match query (avg messages)",
    expectation=EXPECTATION,
    axes=(Axis("system", SYSTEMS), Axis("n_peers", all_sizes, column="N")),
    cell=grid_cell,
    scale_kwargs=("data_per_node", "n_queries"),
    reduce={"messages": pooled("costs"), "hit_rate": _hit_rate},
    bands=(
        Band(
            "BATON messages - multiway messages, worst N",
            gap("messages", {"system": "baton"}, {"system": "multiway"}),
            "<",
            0,
        ),
        Band("min hit_rate", lambda r: min(r.column("hit_rate")), "==", 1),
    ),
)

if __name__ == "__main__":
    GRID.main()
