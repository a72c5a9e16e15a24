"""Figure 8(g): average messages spent on load balancing.

Paper's reading: balancing traffic grows linearly with the number of
inserts for skewed (Zipf 1.0) data and stays near zero for uniform data;
the skewed overhead is still tiny per insertion (the paper reports roughly
one balancing message per ~1500 insertions at its scale).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import pairwise

from repro.experiments.balancing import CELLS
from repro.experiments.grid import Band
from repro.experiments.harness import ExperimentResult, ExperimentScale, mean

EXPECTATION = (
    "zipf balancing messages grow ~linearly with #inserts and dominate "
    "uniform; per-insert overhead stays small (amortized O(log N))"
)


def _table(result: ExperimentResult, scale: ExperimentScale, groups) -> None:
    for point, group in groups:
        result.add_row(
            distribution=point["distribution"],
            N=group[0].n_peers,
            inserts=group[0].inserts,
            balance_events=mean([r.balance_events for r in group]),
            balance_msgs=mean([r.balance_messages for r in group]),
            msgs_per_insert=mean([r.balance_messages / r.inserts for r in group]),
        )
    # Timeline rows demonstrate the linear growth the paper plots.
    for point, group in groups:
        if point["distribution"] != "zipf":
            continue
        run_ = group[0]  # the first seed's stream
        for inserted, cumulative in run_.timeline:
            result.add_row(
                distribution="zipf_timeline",
                N=run_.n_peers,
                inserts=inserted,
                balance_events="",
                balance_msgs=cumulative,
                msgs_per_insert=cumulative / inserted,
            )


def _balance_msgs(result: ExperimentResult, distribution: str) -> list:
    return result.column("balance_msgs", {"distribution": distribution})


def _smallest_step(result: ExperimentResult) -> float:
    timeline = _balance_msgs(result, "zipf_timeline")
    return min((b - a for a, b in pairwise(timeline)), default=0)


GRID = replace(
    CELLS,
    figure="Fig 8g",
    title="Load balancing messages, uniform vs Zipf(1.0)",
    columns=(
        "distribution",
        "N",
        "inserts",
        "balance_events",
        "balance_msgs",
        "msgs_per_insert",
    ),
    expectation=EXPECTATION,
    table=_table,
    bands=(
        Band(
            "zipf balance_msgs - uniform balance_msgs",
            lambda r: _balance_msgs(r, "zipf")[0] - _balance_msgs(r, "uniform")[0],
            ">=",
            0,
        ),
        Band("zipf balance_msgs", lambda r: _balance_msgs(r, "zipf")[0], ">", 0),
        Band("smallest step of the zipf timeline", _smallest_step, ">=", 0),
    ),
)

if __name__ == "__main__":
    GRID.main()
