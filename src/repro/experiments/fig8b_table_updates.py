"""Figure 8(b): messages to update routing tables on join/leave.

Paper's reading: BATON needs O(log N) update messages (< 6·log N on join,
< 8·log N on leave-with-replacement) where Chord pays Θ(log² N) through
``update_others``; the multiway tree is cheapest of all — it barely keeps
any routing state, which is exactly why its searches cost so much (8d).
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.experiments.grid import Band, gap, mean_of
from repro.experiments.membership import CELLS

EXPECTATION = (
    "BATON update ≈ O(log N), well below Chord's Θ(log² N); multiway lowest "
    "(few links to fix) at the price of expensive searches"
)

GRID = replace(
    CELLS,
    figure="Fig 8b",
    title="Updating routing tables on join/leave (avg messages)",
    expectation=EXPECTATION,
    reduce={
        "join_update": mean_of("join_update"),
        "leave_update": mean_of("leave_update"),
    },
    bands=(
        Band(
            "BATON join_update - Chord join_update, worst N",
            gap("join_update", {"system": "baton"}, {"system": "chord"}),
            "<",
            0,
        ),
        # Theorem: a join or leave updates at most 6·log2 N routing tables.
        Band(
            "BATON max(join_update, leave_update) / log2 N, worst N",
            lambda r: max(
                max(row["join_update"], row["leave_update"]) / math.log2(row["N"])
                for row in r.rows
                if row["system"] == "baton"
            ),
            "<=",
            6,
        ),
    ),
)

if __name__ == "__main__":
    GRID.main()
