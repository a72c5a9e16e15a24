"""Shared measurement of join/leave costs across the three systems.

Figures 8(a) and 8(b) read different halves of the same trials: (a) the
messages spent *finding* the join position or the replacement node, (b) the
messages spent *updating routing state* afterwards.  Run the trials once,
report both: the two figure modules are views (same ``name``, so the same
cells) over :data:`CELLS`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.grid import Axis, Grid, all_sizes
from repro.experiments.harness import build_loaded, mean

SYSTEMS = ("baton", "chord", "multiway")


def membership_cell(
    system: str, n_peers: int, seed: int, n_trials: int
) -> Dict[str, float]:
    """One (system, size, seed) grid point: n_trials joins, then leaves."""
    net = build_loaded(system, n_peers, seed, data_per_node=0)
    join_find: List[int] = []
    join_update: List[int] = []
    leave_find: List[int] = []
    leave_update: List[int] = []
    for _ in range(n_trials):
        result = net.join()
        join_find.append(result.find_trace.total)
        join_update.append(result.update_trace.total)
    for _ in range(n_trials):
        result = net.leave(net.random_peer_address())
        leave_find.append(result.find_trace.total)
        leave_update.append(result.update_trace.total)
    return {
        "join_find": mean(join_find),
        "join_update": mean(join_update),
        "leave_find": mean(leave_find),
        "leave_update": mean(leave_update),
    }


CELLS = Grid(
    name="membership",
    cell=membership_cell,
    axes=(
        Axis("system", SYSTEMS),
        Axis("n_peers", all_sizes, column="N"),
    ),
    scale_kwargs=("n_trials",),
)
