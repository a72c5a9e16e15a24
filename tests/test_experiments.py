"""Smoke + shape tests for the Figure-8 experiment drivers.

Each driver runs at the quick scale; assertions check the *shape* the paper
reports, with generous slack so seeds cannot flake the suite.
"""

import pytest

from repro.experiments import harness
from repro.experiments import (
    concurrent_dynamics,
    fig8a_join_leave_find,
    fig8b_table_updates,
    fig8c_insert_delete,
    fig8d_exact_query,
    fig8e_range_query,
    fig8f_access_load,
    fig8g_load_balancing,
    fig8h_shift_sizes,
    fig8i_dynamics,
    hetero_links,
)
from repro.experiments.balancing import shift_histogram
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


class TestFig8a:
    def test_rows_and_shape(self, scale, membership_cells):
        result = fig8a_join_leave_find.GRID.assemble(scale, membership_cells)
        assert len(result.rows) == 3 * len(scale.sizes)
        baton = result.column("join_find", where={"system": "baton"})
        chord = result.column("join_find", where={"system": "chord"})
        # BATON's join-find is low; Chord pays a lookup per join.
        assert max(baton) < max(chord)

    def test_multiway_leave_exceeds_join(self, scale, membership_cells):
        result = fig8a_join_leave_find.GRID.assemble(scale, membership_cells)
        join = result.column("join_find", where={"system": "multiway"})
        leave = result.column("leave_find", where={"system": "multiway"})
        assert sum(leave) > sum(join)


class TestFig8b:
    def test_baton_updates_below_chord(self, scale, membership_cells):
        result = fig8b_table_updates.GRID.assemble(scale, membership_cells)
        baton = result.column("join_update", where={"system": "baton"})
        chord = result.column("join_update", where={"system": "chord"})
        assert all(b < c for b, c in zip(baton, chord))


class TestFig8c:
    def test_insert_delete_costs(self, scale):
        result = fig8c_insert_delete.GRID.run(scale)
        baton = result.column("insert", where={"system": "baton"})
        multiway = result.column("insert", where={"system": "multiway"})
        assert all(b < m for b, m in zip(baton, multiway))


class TestFig8d:
    def test_exact_query_shape(self, scale):
        result = fig8d_exact_query.GRID.run(scale)
        assert all(rate == 1.0 for rate in result.column("hit_rate"))
        baton = result.column("messages", where={"system": "baton"})
        multiway = result.column("messages", where={"system": "multiway"})
        assert all(b < m for b, m in zip(baton, multiway))


class TestFig8e:
    def test_range_query_shape(self, scale):
        result = fig8e_range_query.GRID.run(scale)
        baton = result.column("messages", where={"system": "baton"})
        chord = result.column("messages", where={"system": "chord_ring_walk"})
        # the O(N) cliff: the ring walk visits every node
        assert all(c >= n - 1 for c, n in zip(chord, scale.sizes))
        assert all(b < c for b, c in zip(baton, chord))


class TestFig8f:
    def test_no_root_hotspot(self, scale):
        result = fig8f_access_load.GRID.run(scale)
        loads = {row["level"]: row["insert_per_node"] for row in result.rows}
        root_load = loads[0]
        deep_levels = [v for level, v in loads.items() if level >= 2]
        assert deep_levels
        # the root must not dominate: within 4x of the deep-level average
        assert root_load <= 4 * (sum(deep_levels) / len(deep_levels)) + 4


class TestFig8g:
    def test_skew_dominates_uniform(self, scale, balancing_runs):
        result = fig8g_load_balancing.GRID.assemble(scale, balancing_runs)
        rows = {row["distribution"]: row for row in result.rows}
        assert rows["zipf"]["balance_msgs"] >= rows["uniform"]["balance_msgs"]

    def test_timeline_monotonic(self, scale, balancing_runs):
        result = fig8g_load_balancing.GRID.assemble(scale, balancing_runs)
        timeline = [
            row["balance_msgs"]
            for row in result.rows
            if row["distribution"] == "zipf_timeline"
        ]
        assert timeline == sorted(timeline)


class TestFig8h:
    def test_histogram_sums_and_leans_small(self, scale, balancing_runs):
        zipf_runs = [r for r in balancing_runs if r.distribution == "zipf"]
        result = fig8h_shift_sizes.GRID.assemble(scale, balancing_runs)
        total = sum(row["count"] for row in result.rows)
        assert total == sum(shift_histogram(zipf_runs).values())

    def test_runs_standalone(self, scale):
        result = fig8h_shift_sizes.GRID.run(scale)
        assert result.rows


class TestFig8i:
    def test_extra_messages_grow_with_churn(self, scale):
        result = fig8i_dynamics.GRID.run(scale, k=(2, 6))
        extras = result.column("extra")
        assert extras[0] >= 0
        assert extras[-1] > 0
        assert all(v == 0 for v in result.column("violations"))


class TestConcurrentDynamics:
    def test_success_and_latency_reported_per_churn_rate(self, scale):
        result = concurrent_dynamics.GRID.run(scale, churn_rate=(0.0, 2.0))
        assert [row["churn_rate"] for row in result.rows] == [0.0, 2.0]
        success = result.column("success")
        assert success[0] == 1.0  # quiet network answers everything
        assert all(0.8 < rate <= 1.0 for rate in success)
        for row in result.rows:
            assert row["queries"] > 0
            assert row["p50"] <= row["p90"] <= row["p99"]
            assert row["max_in_flight"] > 1  # genuine overlap
        assert all(v == 0 for v in result.column("violations"))


class TestHeteroLinks:
    def test_latency_grows_with_inter_region_cost(self, scale):
        result = hetero_links.GRID.run(scale, inter_delay=(1.0, 10.0))
        assert len(result.rows) == 2 * 3  # (overlay, inter_delay) grid
        for name in ("baton", "chord", "multiway"):
            p50 = result.column("p50", where={"overlay": name})
            # Costlier inter-region links must surface in end-to-end latency
            # — the signal the scalar latency model could not express.
            assert p50[-1] > p50[0], (name, p50)
            success = result.column("success", where={"overlay": name})
            assert all(rate > 0.9 for rate in success)  # query-only: no churn loss
        for row in result.rows:
            assert row["p50"] <= row["p99"]
            assert row["transit_p99"] > 0


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


class TestDurability:
    def test_replication_cuts_key_loss(self, scale):
        from repro.experiments import durability

        result = durability.GRID.run(
            scale, churn_rate=(2.0,), maintenance_interval=(0.0, 6.0)
        )
        independent = [
            row for row in result.rows if row["mode"] == "independent"
        ]
        replicated = [row for row in independent if row["replication"]]
        bare = [row for row in independent if not row["replication"]]
        assert len(replicated) == 2 and len(bare) == 1
        # Replication never loses more than the bare network forfeits, and
        # whatever it saved shows up as recovered keys.
        for row in replicated:
            assert row["keys_lost"] <= bare[0]["keys_lost"]
        if bare[0]["crashes"]:
            assert bare[0]["keys_lost"] > 0  # the gap the extension closes
            assert sum(r["keys_recovered"] for r in replicated) > 0
        # Maintenance traffic is priced and counted, never free.
        assert all(r["replica_msgs"] > 0 for r in replicated)
        assert all(r["replica_msgs"] == 0 for r in bare)
        assert all(r["reconcile_msgs"] > 0 for r in independent)
        # The correlated row: a whole region dies at once, replication is
        # on, and the only detection path is the heartbeat monitor.
        correlated = [
            row for row in result.rows if row["mode"] == "region_outage"
        ]
        assert len(correlated) == 1
        outage = correlated[0]
        assert outage["replication"] == 1
        assert outage["crashes"] > 0
        assert outage["repairs"] > 0  # the monitor found the dead region
        assert outage["replica_msgs"] > 0
