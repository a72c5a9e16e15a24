"""The Grid spec: one enumeration behind cells(), assemble() and run().

DESIGN.md's "Parallelism contract" promises the plan and the table come
from the same walk.  These tests pin the mechanics on a toy grid (no
simulation), the loud failure when they are fed mismatched inputs, and
the cell count of every registered grid.
"""

from __future__ import annotations

import pytest

from repro.experiments import hetero_links, runall
from repro.experiments.grid import (
    Axis,
    Grid,
    const,
    mean_of,
    only,
    peak,
    pooled,
    total,
    where,
)
from repro.experiments.harness import ExperimentScale, quick_scale

TWO_SEEDS = ExperimentScale(
    sizes=(50, 90), seeds=(0, 1), data_per_node=5, n_queries=30, n_trials=5
)


def toy_cell(x: int, y: str, seed: int, n_queries: int, offset: int) -> dict:
    value = 10 * x + seed + offset
    return {"v": value, "samples": [value] * (seed + 1), "n": n_queries}


def tail_cell(seed: int, x0: int) -> dict:
    return {"v": 100 * x0 + seed}


TOY = Grid(
    name="toy",
    figure="Toy",
    title=lambda scale, env: f"xs={env['x']}",
    axes=(
        Axis("x", (1, 2), quick=(1,), column="X"),
        Axis("y", ("a", "b"), label=str.upper),
        Axis("offset", 0, column=None),
    ),
    cell=toy_cell,
    scale_kwargs=("n_queries",),
    skip=lambda scale, env, p: (
        "x2 cannot b" if (p["x"], p["y"]) == (2, "b") else None
    ),
    reduce={
        "mean": mean_of("v"),
        "pooled": pooled("samples"),
        "sum": total("v"),
        "max": peak("v"),
        "odd": where("v", lambda v: v % 2 == 1, empty=-1.0),
        "n": only("n"),
    },
    notes=("static note",),
    tail=Grid(
        name="toy",
        cell=tail_cell,
        derive=lambda scale, env: {"x0": env["x"][0]},
        seeds=lambda scale: scale.seeds[:1],
        reduce={"X": const("tail"), "mean": mean_of("v")},
        notes=("tail note",),
    ),
)


def test_rows_reduce_each_points_seed_group():
    """What ``membership.aggregate`` used to do by hand: every row is its
    own point's seeds, reduced per column."""
    result = TOY.run(TWO_SEEDS)
    assert result.columns == ["X", "y", "mean", "pooled", "sum", "max", "odd", "n"]
    assert result.title == "xs=(1, 2)"
    rows = [(r["X"], r["y"], r["mean"], r["sum"], r["max"]) for r in result.rows[:3]]
    assert rows == [(1, "A", 10.5, 21, 11), (1, "B", 10.5, 21, 11), (2, "A", 20.5, 41, 21)]
    # pooled weighs seed 1's two samples; where() keeps only odd values
    assert result.rows[0]["pooled"] == pytest.approx((10 + 11 + 11) / 3)
    assert result.rows[0]["odd"] == 11
    assert result.rows[0]["n"] == TWO_SEEDS.n_queries
    # the skipped point left a note, no row and no cell; the tail follows
    assert result.rows[3] == {"X": "tail", "mean": 100.0}
    assert len(result.rows) == 4
    assert result.notes == ["static note", "x2 cannot b", "tail note"]
    assert len(TOY.cells(TWO_SEEDS)) == 3 * 2 + 1


def test_axis_overrides_reach_cells_rows_and_tail():
    result = TOY.run(TWO_SEEDS, x=2, y=["a"], offset=5)
    assert [(r["X"], r.get("y")) for r in result.rows] == [(2, "A"), ("tail", None)]
    assert result.rows[0]["mean"] == 25.5
    assert result.rows[1]["mean"] == 200.0  # the tail saw the overridden axis
    assert TOY.quick == {"x": (1,)}
    with pytest.raises(TypeError, match="toy: no axis named"):
        TOY.cells(TWO_SEEDS, z=1)


def test_assemble_refuses_outputs_of_another_enumeration():
    """The silent mis-assembly the hand-paired walks allowed: outputs of a
    one-delay hetero grid assembled against the default five delays used
    to yield 15 rows, chord's and multiway's numbers labelled as baton's."""
    scale = quick_scale()
    cells = hetero_links.GRID.cells(scale, inter_delay=(1.0,))
    assert len(cells) == 3
    with pytest.raises(ValueError, match="hetero: 3 outputs for a grid of 15 cells"):
        hetero_links.GRID.assemble(scale, [None] * len(cells))


@pytest.mark.parametrize(
    "grid", runall.REGISTRY, ids=[grid.figure for grid in runall.REGISTRY]
)
def test_registered_grid_plans_points_times_seeds(grid):
    env = grid.resolve(TWO_SEEDS, {})
    expected = 0
    for part in filter(None, (grid, grid.tail)):
        points = part.points(TWO_SEEDS, part.resolve(TWO_SEEDS, {}, env))
        seeds = part.seeds(TWO_SEEDS) if part.seeds else TWO_SEEDS.seeds
        expected += len([p for p, skipped in points if skipped is None]) * len(seeds)
    cells = grid.cells(TWO_SEEDS)
    assert len(cells) == expected > 0
    assert {c.group for c in cells} == {grid.name}
