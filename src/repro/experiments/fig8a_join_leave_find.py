"""Figure 8(a): messages to find the join node / the replacement node.

Paper's reading: BATON stays low and nearly flat as N grows (a JOIN reaches
a leaf in one adjacent hop and then climbs only the frontier); Chord's
join-lookup grows with log N and sits above BATON; the multiway tree's
leave is far more expensive than its join because a departing node must
consult all its children.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.grid import Band, mean_of
from repro.experiments.membership import CELLS

EXPECTATION = (
    "BATON join/leave find ≈ flat and low; Chord above BATON and growing "
    "with N; multiway leave ≫ multiway join"
)

GRID = replace(
    CELLS,
    figure="Fig 8a",
    title="Finding join node and replacement node (avg messages)",
    expectation=EXPECTATION,
    reduce={
        "join_find": mean_of("join_find"),
        "leave_find": mean_of("leave_find"),
    },
    notes=(
        "Chord leave_find is ~0 by design: the successor is known locally, "
        "no search happens (the paper plots Chord's join side).",
    ),
    bands=(
        Band(
            "max BATON join_find - max Chord join_find",
            lambda r: max(r.column("join_find", {"system": "baton"}))
            - max(r.column("join_find", {"system": "chord"})),
            "<",
            0,
        ),
        Band(
            "multiway sum leave_find - sum join_find",
            lambda r: sum(r.column("leave_find", {"system": "multiway"}))
            - sum(r.column("join_find", {"system": "multiway"})),
            ">",
            0,
        ),
    ),
)

if __name__ == "__main__":
    GRID.main()
