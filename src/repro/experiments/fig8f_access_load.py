"""Figure 8(f): access load of nodes at different tree levels.

Paper's reading: the hallmark result — BATON does *not* overload the root.
Insert load is roughly constant across levels, and search load is slightly
*higher* at the leaves than at the root, because the exact-match algorithm
routes sideways and downward and involves upper levels only when the answer
lives there.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.experiments.grid import Axis, Band, Grid
from repro.experiments.harness import (
    ExperimentResult,
    ExperimentScale,
    build_baton_equalized,
    loaded_keys,
)
from repro.net.message import MsgType
from repro.workloads.generators import exact_queries, uniform_keys

EXPECTATION = (
    "per-node insert load ≈ constant across levels; per-node search load "
    "slightly higher at the leaves than at the root (no root hot-spot)"
)


def mid_size(scale: ExperimentScale) -> int:
    """A mid-size network: the per-level profile is what matters here, and
    the routed-and-balanced loading this experiment requires (see
    build_baton_equalized) is the costliest builder in the suite."""
    return scale.sizes[len(scale.sizes) // 2]


def grid_cell(
    n_peers: int, seed: int, data_per_node: int, n_queries: int
) -> Dict[str, Counter]:
    """One membership sequence: measured insert + search streams."""
    loaded = loaded_keys(n_peers, data_per_node, seed)
    net = build_baton_equalized(n_peers, seed, data_per_node)
    level_nodes: Counter = Counter()
    for peer in net.peers.values():
        level_nodes[peer.position.level] += 1
    inserts = uniform_keys(n_queries * 5, seed=seed + 11)
    insert_load: Counter = Counter()
    search_load: Counter = Counter()
    loads = {MsgType.INSERT: insert_load, MsgType.SEARCH: search_load}
    with receipts_by_level(net, loads):
        for key in inserts:
            net.insert(key)
        for key in exact_queries(loaded, n_queries * 5, seed=seed + 13):
            net.search_exact(key)
    return {
        "level_nodes": level_nodes,
        "insert_load": insert_load,
        "search_load": search_load,
    }


@contextmanager
def receipts_by_level(net, loads: Dict[MsgType, Counter]) -> Iterator[None]:
    """Inside the block, count each message of a type in ``loads`` under
    its receiver's tree level, read when it is sent (a dead receiver has
    no level and is not counted).  Wraps this network's ``bus.send``, the
    seam the benchmark tracer also uses, so the bus itself keeps no
    per-level counter."""
    send = net.bus.send

    def counting(src, dst, mtype):
        load = loads.get(mtype)
        if load is not None:
            peer = net.peers.get(dst)
            if peer is not None:
                load[peer.position.level] += 1
        return send(src, dst, mtype)

    net.bus.send = counting
    try:
        yield
    finally:
        del net.bus.send


def _table(result: ExperimentResult, scale: ExperimentScale, groups) -> None:
    ((_, outputs),) = groups
    insert_load: Counter = Counter()
    search_load: Counter = Counter()
    level_nodes: Counter = Counter()
    for out in outputs:
        level_nodes.update(out["level_nodes"])
        insert_load.update(out["insert_load"])
        search_load.update(out["search_load"])
    for level in sorted(level_nodes):
        nodes = level_nodes[level]
        result.add_row(
            level=level,
            nodes=nodes // len(scale.seeds),
            insert_per_node=insert_load[level] / nodes,
            search_per_node=search_load[level] / nodes,
        )
    result.notes.append(
        "loads are messages handled per node at that level, averaged over "
        f"{len(scale.seeds)} membership sequences"
    )


def _root_excess(result: ExperimentResult) -> float:
    """Root insert load over the no-hot-spot bound: 4x the mean load of
    levels >= 2, plus 4."""
    loads = {row["level"]: row["insert_per_node"] for row in result.rows}
    deep = [load for level, load in loads.items() if level >= 2]
    return loads[0] - (4 * (sum(deep) / len(deep)) + 4)


GRID = Grid(
    name="fig8f",
    figure="Fig 8f",
    title=lambda scale, env: f"Access load by tree level (N={env['n_peers'][0]})",
    columns=("level", "nodes", "insert_per_node", "search_per_node"),
    expectation=EXPECTATION,
    axes=(Axis("n_peers", mid_size, column=None),),
    cell=grid_cell,
    scale_kwargs=("data_per_node", "n_queries"),
    table=_table,
    bands=(Band("root insert load - (4 x deep mean + 4)", _root_excess, "<=", 0),),
)

if __name__ == "__main__":
    GRID.main()
