"""The parallel cell scheduler: identity, ordering, errors.

The core pin: every experiment's output is **byte-identical** at every
``--jobs`` value (DESIGN.md, "Parallelism contract").  Results are
reassembled by submission index, so completion order — the only thing
the pool changes — never leaks into a table.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import hetero_links, runall
from repro.experiments.harness import ExperimentResult, ExperimentScale
from repro.experiments.parallel import (
    cell,
    default_jobs,
    run_cells,
    run_grouped,
)

SMALL = ExperimentScale(
    sizes=(50, 90), seeds=(0, 1), data_per_node=5, n_queries=30, n_trials=5
)


def square(x: int) -> int:
    return x * x


def own_pid() -> int:
    return os.getpid()


def boom() -> None:
    raise RuntimeError("broken grid point")


def test_run_cells_preserves_submission_order():
    cells = [cell(square, x=x) for x in range(20)]
    assert run_cells(cells, jobs=1) == [x * x for x in range(20)]
    assert run_cells(cells, jobs=4) == [x * x for x in range(20)]


def test_pooled_cells_run_in_workers():
    parent = os.getpid()
    pids = run_cells([cell(own_pid) for _ in range(3)], jobs=2)
    assert all(pid != parent for pid in pids)


def test_jobs_one_runs_everything_inline():
    parent = os.getpid()
    assert run_cells([cell(own_pid), cell(own_pid)], jobs=1) == [
        parent,
        parent,
    ]


def test_cell_exception_propagates():
    with pytest.raises(RuntimeError, match="broken grid point"):
        run_cells([cell(boom), cell(square, x=2)], jobs=2)
    with pytest.raises(RuntimeError, match="broken grid point"):
        run_cells([cell(boom)], jobs=1)


def test_run_grouped_slices_by_group_in_order():
    cells = [
        cell(square, group="a", x=1),
        cell(square, group="b", x=2),
        cell(square, group="a", x=3),
        cell(square, group="b", x=4),
    ]
    grouped = run_grouped(cells, jobs=2)
    assert grouped == {"a": [1, 9], "b": [4, 16]}


def test_default_jobs_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert default_jobs() == 1


def test_canonical_text_keeps_every_value_at_full_precision():
    """No column is masked: values that ``to_text`` rounds alike still
    differ in the canonical text."""
    result = ExperimentResult(figure="F", title="t", columns=["n", "x"])
    result.add_row(n=10, x=0.123456789)
    other = ExperimentResult(figure="F", title="t", columns=["n", "x"])
    other.add_row(n=10, x=0.123456788)
    assert "0.123456789" in result.canonical_text()
    assert result.canonical_text() != other.canonical_text()


def test_grid_experiment_parallel_equals_sequential():
    """One real driver, pooled vs inline: identical canonical output."""
    sequential = hetero_links.GRID.run(SMALL, inter_delay=(1.0, 10.0), jobs=1)
    pooled = hetero_links.GRID.run(SMALL, inter_delay=(1.0, 10.0), jobs=3)
    assert pooled.canonical_text() == sequential.canonical_text()


@pytest.fixture(scope="module")
def sequential_suite():
    """The whole suite, inline, at a *two-seed* scale — ``quick_scale()``
    has one seed, so it would never exercise the seed grouping."""
    return runall.run_all(scale=SMALL, jobs=1)


def test_runall_quick_parallel_equals_sequential(sequential_suite):
    """The acceptance pin: the whole suite, --jobs 2 vs sequential,
    byte-identical canonical report."""
    pooled = runall.run_all(scale=SMALL, jobs=2)
    assert runall.canonical_report(pooled) == runall.canonical_report(
        sequential_suite
    )


def test_suite_rows_carry_their_points_axis_values(sequential_suite):
    """One enumeration: a table's rows are its grid's runnable points, in
    order, each labelled with its own axis values (then the tail's)."""
    for grid, result in zip(runall.REGISTRY, sequential_suite):
        if grid.table is not None:
            continue  # rows are levels/buckets/timelines, not points
        expected = []
        env = grid.resolve(SMALL, {})
        for part in filter(None, (grid, grid.tail)):
            points = part.points(SMALL, part.resolve(SMALL, {}, env))
            expected += [part.labels(p) for p, skipped in points if skipped is None]
        assert len(result.rows) == len(expected), grid.name
        for row, labels in zip(result.rows, expected):
            assert {column: row[column] for column in labels} == labels, grid.name
