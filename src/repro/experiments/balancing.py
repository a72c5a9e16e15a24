"""Shared load-balancing measurement for Figures 8(g) and 8(h).

One routed-insert stream per (distribution, seed) with §IV-D balancing
enabled; 8(g) reads the message overhead, 8(h) the shift-size histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.grid import Axis, Grid, first_size
from repro.experiments.harness import build_baton
from repro.workloads.generators import UniformKeys, ZipfianKeys


@dataclass
class BalancingRun:
    """Everything one insert stream produced."""

    distribution: str
    n_peers: int
    seed: int
    inserts: int
    routing_messages: int = 0
    balance_messages: int = 0
    balance_events: int = 0
    shift_sizes: List[int] = field(default_factory=list)
    #: cumulative balance messages sampled every ``sample_every`` inserts
    timeline: List[tuple[int, int]] = field(default_factory=list)


def balancing_cell(
    distribution: str, n_peers: int, seed: int, inserts_per_node: int
) -> BalancingRun:
    """One routed insert stream: (distribution, seed) with balancing on."""
    n_inserts = n_peers * inserts_per_node
    sample_every = max(1, n_inserts // 20)
    # Capacity sized so a perfectly balanced network never triggers:
    # 4x the fair share of the stream.
    capacity = max(16, 4 * inserts_per_node)
    net = build_baton(
        n_peers, seed, data_per_node=0, balance_enabled=True, capacity=capacity
    )
    if distribution == "uniform":
        gen = UniformKeys(seed=seed + 17)
    else:
        gen = ZipfianKeys(theta=1.0, seed=seed + 17)
    run = BalancingRun(
        distribution=distribution,
        n_peers=n_peers,
        seed=seed,
        inserts=n_inserts,
    )
    for i in range(n_inserts):
        outcome = net.insert(gen.draw())
        run.routing_messages += outcome.trace.total
        if outcome.balance_trace is not None:
            run.balance_messages += outcome.balance_trace.total
        if (i + 1) % sample_every == 0:
            run.timeline.append((i + 1, run.balance_messages))
    # Episodes that moved something; probes that found nothing to move
    # are in ``balance_messages`` but are not events.
    run.balance_events = len(net.stats.balance_events)
    run.shift_sizes = list(net.stats.restructure_shift_sizes)
    return run


#: The insert stream shared by Figures 8(g) and 8(h) (views over it).
CELLS = Grid(
    name="balancing",
    cell=balancing_cell,
    axes=(
        Axis("distribution", ("uniform", "zipf")),
        Axis("n_peers", first_size, column=None),
        Axis("inserts_per_node", 40, column=None),
    ),
)


def shift_histogram(runs: List[BalancingRun]) -> Dict[int, int]:
    """Histogram of restructuring shift sizes across runs."""
    histogram: Dict[int, int] = {}
    for run in runs:
        for size in run.shift_sizes:
            histogram[size] = histogram.get(size, 0) + 1
    return histogram
