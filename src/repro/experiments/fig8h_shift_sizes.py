"""Figure 8(h): distribution of forced-restructuring shift sizes.

Paper's reading: the number of nodes that must shift position during a
forced insertion/deletion decays (strongly) with size — most balancing
episodes move only a handful of nodes, long shifts are rare.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.balancing import CELLS, shift_histogram
from repro.experiments.harness import ExperimentResult, ExperimentScale

EXPECTATION = (
    "shift-size histogram decays with size (strongly exponential in the "
    "paper): small shifts dominate, long shifts are rare"
)

#: Histogram buckets for shift sizes.
BUCKETS = [(1, 2), (3, 4), (5, 8), (9, 16), (17, 32), (33, 64), (65, 10**9)]


def _table(result: ExperimentResult, scale: ExperimentScale, groups) -> None:
    histogram = shift_histogram(
        [
            run_
            for point, group in groups
            if point["distribution"] == "zipf"
            for run_ in group
        ]
    )
    total = sum(histogram.values())
    for low, high in BUCKETS:
        count = sum(c for size, c in histogram.items() if low <= size <= high)
        label = f"{low}-{high}" if high < 10**9 else f"{low}+"
        result.add_row(
            shift_size=label,
            count=count,
            fraction=count / total if total else 0.0,
        )
    result.notes.append(f"{total} forced restructurings observed")


GRID = replace(
    CELLS,
    figure="Fig 8h",
    title="Size of the load-balancing (restructuring) process",
    columns=("shift_size", "count", "fraction"),
    expectation=EXPECTATION,
    table=_table,
)

if __name__ == "__main__":
    # Standalone, only the skewed stream is needed.
    GRID.main(distribution="zipf")
