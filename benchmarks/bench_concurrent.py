"""Benchmark for the concurrent-dynamics experiment (event-driven runtime).

Times the churn-racing-queries sweep and checks its qualitative shape,
parameterized over every overlay in the registry: full (or near-full)
success with no churn, graceful degradation (not collapse) as churn
intensity grows, and — for BATON — a structure that repairs/reconciles
clean.  A final benchmark times the three-way comparison itself.
"""

import pytest

from benchmarks.conftest import attach_series
from repro import overlays
from repro.experiments import concurrent_dynamics, durability, hetero_links


def test_concurrent_dynamics(benchmark, scale):
    """Success near 1 at zero churn; bounded degradation under heavy churn."""
    result = benchmark.pedantic(
        lambda: concurrent_dynamics.GRID.run(scale, churn_rate=(0.0, 1.0, 4.0)),
        iterations=1,
        rounds=1,
    )
    attach_series(benchmark, result)
    assert result.rows
    success = result.column("success")
    assert success[0] == 1.0  # no churn: every query answered
    assert all(rate > 0.8 for rate in success)  # degradation, not collapse
    violations = result.column("violations")
    assert violations[0] == 0  # quiet network reconciles perfectly clean
    # under heavy churn a rare residual Theorem-1 imbalance is expected
    # (stale safe-departure decision); anything more means a real bug
    assert sum(violations) <= 2, violations
    assert all(p99 >= p50 for p50, p99 in zip(result.column("p50"), result.column("p99")))


@pytest.mark.parametrize(
    "overlay", [name for name in overlays.available() if name != "baton"]
)
def test_concurrent_dynamics_baselines(benchmark, scale, overlay):
    """The baselines survive the same workloads, with their own cost shapes."""
    result = benchmark.pedantic(
        lambda: concurrent_dynamics.GRID.run(
            scale, churn_rate=(0.0, 1.0), overlay=overlay
        ),
        iterations=1,
        rounds=1,
    )
    attach_series(benchmark, result)
    success = result.column("success")
    assert success[0] > 0.95  # quiet network: essentially every query answered
    # Under churn the baselines degrade by their structure (multiway walks
    # are the most fragile) but must not collapse.
    assert all(rate > 0.5 for rate in success), success


def test_concurrent_comparison(benchmark, scale):
    """Three overlays, identical workloads: BATON's p50 stays the flattest."""
    result = benchmark.pedantic(
        lambda: concurrent_dynamics.COMPARISON.run(scale, churn_rate=(0.0,)),
        iterations=1,
        rounds=1,
    )
    attach_series(benchmark, result)
    assert {row["overlay"] for row in result.rows} == set(overlays.available())
    baton_p50 = result.column("p50", where={"overlay": "baton"})[0]
    multiway_p50 = result.column("p50", where={"overlay": "multiway"})[0]
    # No sideways tables means longer walks: the paper's §V-B claim.
    assert multiway_p50 > baton_p50


def test_durability(benchmark, scale):
    """Replication pays for itself: fewer lost keys than the bare network."""
    result = benchmark.pedantic(
        lambda: durability.GRID.run(
            scale, churn_rate=(2.0,), maintenance_interval=(0.0, 6.0)
        ),
        iterations=1,
        rounds=1,
    )
    attach_series(benchmark, result)
    replicated = [row for row in result.rows if row["replication"]]
    bare = [row for row in result.rows if not row["replication"]]
    assert replicated and bare
    # Replication recovers what the bare network forfeits; maintenance
    # traffic is the price and must be visible (priced, counted messages).
    # Like against like: the grid's tail rows are correlated region
    # outages (more crashes, no bare twin), so only the independent-crash
    # rows stand beside the bare network's.
    independent = [r for r in replicated if r["mode"] == "independent"]
    assert independent and all(r["mode"] == "independent" for r in bare)
    assert sum(r["keys_lost"] for r in independent) <= min(
        r["keys_lost"] for r in bare
    )
    if any(r["crashes"] for r in replicated):
        assert sum(r["keys_recovered"] for r in replicated) > 0
    assert all(r["replica_msgs"] > 0 for r in replicated)
    assert all(r["replica_msgs"] == 0 for r in bare)
    assert all(r["reconcile_msgs"] > 0 for r in result.rows)


def test_hetero_links(benchmark, scale):
    """Per-link WAN costs: every overlay slows as inter-region delay grows."""
    result = benchmark.pedantic(
        lambda: hetero_links.GRID.run(scale, inter_delay=(1.0, 10.0)),
        iterations=1,
        rounds=1,
    )
    attach_series(benchmark, result)
    assert {row["overlay"] for row in result.rows} == set(overlays.available())
    for name in overlays.available():
        p50 = result.column("p50", where={"overlay": name})
        # Costlier inter-region links must show up in end-to-end latency —
        # the signal the scalar latency model could never produce.
        assert p50[-1] > p50[0], (name, p50)
    # The multiway tree crosses the most links, so it pays the most for
    # expensive ones (the paper's §V-B walk-length claim, re-measured on a
    # WAN instead of a hop count).
    baton_wan = result.column("p50", where={"overlay": "baton"})[-1]
    multiway_wan = result.column("p50", where={"overlay": "multiway"})[-1]
    assert multiway_wan > baton_wan
