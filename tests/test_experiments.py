"""Smoke tests for the experiment drivers, and the suite's shape bands.

The shape each table must have — the paper's reading of a Figure-8
panel, or a DESIGN.md contract — lives on its grid as ``bands``; here
every band is judged on the quick suite, and a failing one must fail
the run.
"""

from dataclasses import replace

import pytest

from repro.experiments import harness, runall
from repro.experiments import (
    fig8a_join_leave_find,
    fig8g_load_balancing,
    fig8h_shift_sizes,
)
from repro.experiments.balancing import shift_histogram
from repro.experiments.grid import Band
from repro.experiments.parallel import run_cells


@pytest.fixture(scope="module")
def scale():
    return harness.quick_scale()


@pytest.fixture(scope="module")
def membership_cells(scale):
    """One set of join/leave trials; Figures 8a and 8b are views over it."""
    return run_cells(fig8a_join_leave_find.GRID.cells(scale))


@pytest.fixture(scope="module")
def balancing_runs(scale):
    """One set of insert streams; Figures 8g and 8h are views over it."""
    return run_cells(fig8g_load_balancing.GRID.cells(scale))


@pytest.fixture(scope="module")
def quick_suite():
    """Every registered grid at ``--quick``, bands judged."""
    return runall.run_all(quick=True)


@pytest.mark.parametrize(
    "index",
    range(len(runall.REGISTRY)),
    ids=[grid.figure for grid in runall.REGISTRY],
)
def test_bands_hold(quick_suite, index):
    grid, result = runall.REGISTRY[index], quick_suite[index]
    assert len(result.bands) == len(grid.bands)
    failed = [line for line, holds in result.bands if not holds]
    assert not failed, f"{grid.name}: " + "; ".join(failed)


def test_failing_band_fails_the_run(monkeypatch, capsys):
    grid = fig8a_join_leave_find.GRID
    unmeetable = Band("unmeetable", lambda result: 0.0, ">", 1)
    monkeypatch.setattr(runall, "REGISTRY", (replace(grid, bands=(unmeetable,)),))
    assert runall.main(["--quick", "--no-snapshot-cache"]) == 1
    out, err = capsys.readouterr()
    assert "band unmeetable: 0 > 1 FAIL" in out
    assert "Fig 8a: band unmeetable" in err


class TestFig8a:
    def test_rows(self, scale, membership_cells):
        result = fig8a_join_leave_find.GRID.assemble(scale, membership_cells)
        assert len(result.rows) == 3 * len(scale.sizes)


class TestFig8h:
    def test_histogram_sums_and_leans_small(self, scale, balancing_runs):
        zipf_runs = [r for r in balancing_runs if r.distribution == "zipf"]
        result = fig8h_shift_sizes.GRID.assemble(scale, balancing_runs)
        total = sum(row["count"] for row in result.rows)
        assert total == sum(shift_histogram(zipf_runs).values())

    def test_runs_standalone(self, scale):
        result = fig8h_shift_sizes.GRID.run(scale)
        assert result.rows


class TestHarness:
    def test_result_table_renders(self, scale, membership_cells):
        result = fig8a_join_leave_find.GRID.assemble(scale, membership_cells)
        text = result.to_text()
        assert "Fig 8a" in text
        assert "baton" in text

    def test_scales(self):
        quick = harness.quick_scale()
        default = harness.default_scale()
        assert max(quick.sizes) < max(default.sizes)
        assert "sizes" in default.label
