"""Figure 8(c): messages per insert and per delete.

Paper's reading: both systems route updates like exact-match queries, so
BATON sits slightly above Chord (its tree height carries the 1.44 factor)
and far below the multiway tree's hop-by-hop walks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.grid import Axis, Band, Grid, all_sizes, gap, pooled
from repro.experiments.harness import build_loaded
from repro.workloads.generators import uniform_keys

EXPECTATION = (
    "BATON slightly above Chord (1.44·log N vs log N), both ≪ multiway; "
    "all grow logarithmically with N"
)

SYSTEMS = ("baton", "chord", "multiway")


def grid_cell(
    system: str, n_peers: int, seed: int, data_per_node: int, n_queries: int
) -> Dict[str, List[int]]:
    """One (system, size, seed) point: fresh inserts, then their deletes."""
    net = build_loaded(system, n_peers, seed, data_per_node)
    fresh = uniform_keys(n_queries, seed=seed + 101)
    insert_costs = [net.insert(key).trace.total for key in fresh]
    delete_costs = [net.delete(key).trace.total for key in fresh]
    return {"insert": insert_costs, "delete": delete_costs}


GRID = Grid(
    name="fig8c",
    figure="Fig 8c",
    title="Insert and delete operations (avg messages)",
    expectation=EXPECTATION,
    axes=(Axis("system", SYSTEMS), Axis("n_peers", all_sizes, column="N")),
    cell=grid_cell,
    scale_kwargs=("data_per_node", "n_queries"),
    reduce={"insert": pooled("insert"), "delete": pooled("delete")},
    bands=(
        Band(
            "BATON insert - multiway insert, worst N",
            gap("insert", {"system": "baton"}, {"system": "multiway"}),
            "<",
            0,
        ),
    ),
)

if __name__ == "__main__":
    GRID.main()
