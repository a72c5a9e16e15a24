"""Tests for the concurrent-workload driver (repro.workloads.concurrent)."""

import pytest

from repro.core import check_invariants
from repro.core.network import BatonNetwork
from repro.sim.latency import ExponentialLatency
from repro.sim.runtime import AsyncBatonNetwork
from repro.util.rng import SeededRng
from repro.workloads.concurrent import (
    ConcurrentConfig,
    percentile,
    run_concurrent_workload,
)
from repro.workloads.generators import uniform_keys


def run_workload(seed: int = 7, **config_kwargs):
    anet = AsyncBatonNetwork(
        BatonNetwork.build(80, seed=1),
        topology=ExponentialLatency(1.0, SeededRng(seed).child("latency")),
    )
    keys = uniform_keys(800, seed=2)
    anet.net.bulk_load(keys)
    defaults = dict(duration=40.0, churn_rate=1.0, query_rate=6.0)
    defaults.update(config_kwargs)
    config = ConcurrentConfig(**defaults)
    report = run_concurrent_workload(anet, keys, config, seed=seed)
    return anet, report


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 0.5) == 5.0
        assert percentile(values, 0.9) == 9.0
        assert percentile(values, 1.0) == 10.0
        assert percentile([42.0], 0.99) == 42.0
        assert percentile([], 0.5) == 0.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)


class TestConfigValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            ConcurrentConfig(churn_rate=-1.0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            ConcurrentConfig(fail_fraction=1.5)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ConcurrentConfig(duration=0.0)


class TestDriver:
    def test_reports_membership_and_queries(self):
        anet, report = run_workload()
        assert report.query_total > 0
        assert report.completed + report.failed == sum(report.submitted.values())
        assert report.joins_applied == report.submitted.get("join", 0)
        assert report.final_size == anet.net.size
        assert report.max_in_flight > 1
        assert 0.0 <= report.query_success_rate <= 1.0

    def test_quiet_network_answers_everything(self):
        _anet, report = run_workload(churn_rate=0.0)
        assert report.failed == 0
        assert report.query_success_rate == 1.0
        assert report.exact_hits == report.exact_total

    def test_latency_percentiles_ordered(self):
        _anet, report = run_workload()
        assert (
            report.query_latency_p50
            <= report.query_latency_p90
            <= report.query_latency_p99
        )
        assert report.query_latency_mean > 0

    def test_deterministic_reports(self):
        anet1, report1 = run_workload()
        anet2, report2 = run_workload()
        assert anet1.event_log == anet2.event_log
        assert report1 == report2

    def test_seed_changes_the_run(self):
        _a1, report1 = run_workload(seed=7)
        _a2, report2 = run_workload(seed=8)
        assert report1 != report2

    def test_invariants_after_run_with_failures(self):
        anet, report = run_workload(fail_fraction=0.3, duration=30.0)
        check_invariants(anet.net)  # post-run repair + reconcile cleaned up
        assert not anet.net.ghosts

    def test_population_floor_respected(self):
        anet, report = run_workload(
            join_fraction=0.0, churn_rate=4.0, min_peers=70, duration=30.0
        )
        assert anet.net.size >= 70 - report.submitted.get("leave", 0)
        # the floor keeps the network from draining
        assert report.skipped_departures > 0 or anet.net.size >= 70

    def test_range_queries_report_completeness(self):
        _anet, report = run_workload(range_fraction=1.0, churn_rate=0.0)
        assert report.range_total > 0
        assert report.exact_total == 0
        assert report.range_complete == report.range_total

    def test_summary_lines_render(self):
        _anet, report = run_workload()
        text = "\n".join(report.summary_lines())
        assert "query success rate" in text
        assert "p50/p90/p99" in text


class TestDurabilityReporting:
    def replicated_run(self, seed: int = 7, **config_kwargs):
        from repro.core.network import BatonConfig

        anet = AsyncBatonNetwork(
            BatonNetwork.build(
                60, seed=1, config=BatonConfig(replication=True)
            ),
            topology=ExponentialLatency(1.0, SeededRng(seed).child("latency")),
        )
        keys = uniform_keys(600, seed=2)
        anet.net.bulk_load(keys)
        anet.net.refresh_replicas()
        defaults = dict(
            duration=30.0,
            churn_rate=0.8,
            query_rate=4.0,
            insert_rate=0.5,
            fail_fraction=1.0,
            repair_delay=2.0,
            maintenance_interval=5.0,
            min_peers=30,
        )
        defaults.update(config_kwargs)
        config = ConcurrentConfig(**defaults)
        report = run_concurrent_workload(anet, keys, config, seed=seed)
        return anet, report

    def test_maintenance_traffic_is_counted(self):
        _anet, report = self.replicated_run()
        assert report.reconcile_sweeps > 0
        assert report.reconcile_messages > 0
        assert report.replica_refresh_sweeps == report.reconcile_sweeps
        assert report.replica_messages > 0
        assert "reconcile msgs" in "\n".join(report.summary_lines())

    def test_in_window_repairs_report_recovery(self):
        anet, report = self.replicated_run()
        if report.fails_applied:
            assert report.submitted.get("repair", 0) > 0
            assert report.repairs_applied > 0
            assert report.recovery_latency_max >= report.recovery_latency_p50
            assert report.recovery_latency_p50 > 0
        assert not anet.net.ghosts  # end-of-run repair swept any leftovers

    def test_insert_keys_recorded_for_durability_accounting(self):
        _anet, report = self.replicated_run()
        applied = report.submitted.get("insert", 0)
        assert len(report.insert_keys_applied) <= applied
        if applied:
            assert len(report.insert_keys_applied) > 0

    def test_repair_delay_validated(self):
        with pytest.raises(ValueError):
            ConcurrentConfig(repair_delay=-0.5)

    def test_deterministic_with_durability_features(self):
        first_anet, first = self.replicated_run()
        second_anet, second = self.replicated_run()
        assert first_anet.event_log == second_anet.event_log
        assert first.keys_recovered == second.keys_recovered
        assert first.reconcile_messages == second.reconcile_messages
