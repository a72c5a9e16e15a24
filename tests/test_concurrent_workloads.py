"""Tests for the concurrent-workload driver (repro.workloads.concurrent)."""

import pytest

from repro.core import check_invariants
from repro.core.invariants import collect_violations
from repro.core.network import BatonConfig, BatonNetwork
from repro.sim.engine import Simulator
from repro.sim.latency import ExponentialLatency
from repro.sim.runtime import AsyncOverlayRuntime
from repro.util.rng import SeededRng
from repro.workloads.concurrent import (
    ConcurrentConfig,
    WorkloadRun,
    percentile,
    poisson,
    run_concurrent_workload,
)
from repro.workloads.generators import uniform_keys


def run_workload(seed: int = 7, **config_kwargs):
    anet = AsyncOverlayRuntime(
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


def replicated_anet(seed: int):
    """A loaded, replica-anchored N=60 BATON runtime and its keys."""
    anet = AsyncOverlayRuntime(
        BatonNetwork.build(60, seed=1, config=BatonConfig(replication=True)),
        topology=ExponentialLatency(1.0, SeededRng(seed).child("latency")),
    )
    keys = uniform_keys(600, seed=2)
    anet.net.bulk_load(keys)
    anet.net.refresh_replicas()
    return anet, keys


class TestDurabilityReporting:
    def replicated_run(self, seed: int = 7, **config_kwargs):
        anet, keys = replicated_anet(seed)
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


class TestPoissonSource:
    """The one arrival source, alone on a bare simulator."""

    def fire_times(self, seed=5, rate=2.0, start=3.0, end=30.0):
        sim = Simulator()
        times = []
        stream = SeededRng(seed)
        poisson(sim, stream, rate, start, end, lambda _s: times.append(sim.now), "t")
        sim.run()
        return times

    def test_every_firing_lies_in_the_window(self):
        times = self.fire_times()
        assert len(times) > 20
        assert times == sorted(times)
        assert all(3.0 < t <= 30.0 for t in times)

    def test_equal_seeds_fire_at_equal_times(self):
        assert self.fire_times(seed=9) == self.fire_times(seed=9)
        assert self.fire_times(seed=9) != self.fire_times(seed=10)

    def test_zero_rate_schedules_nothing_and_draws_nothing(self):
        sim = Simulator()
        stream = SeededRng(4)
        poisson(sim, stream, 0.0, 0.0, 10.0, lambda _s: None, "t")
        assert sim.pending_count == 0
        assert stream.random() == SeededRng(4).random()

    def test_submission_draw_then_gap_draw(self):
        """The stream sees one firing's draws, then the gap to the next —
        exactly the hand-rolled loop over the same seed."""
        rate, start, end = 1.5, 2.0, 25.0
        sim = Simulator()
        drawn = []

        def record(stream):
            drawn.append((sim.now, stream.random()))

        poisson(sim, SeededRng(11), rate, start, end, record, "t")
        sim.run()

        reference = SeededRng(11)
        expected = []
        at = start + reference.expovariate(rate)
        while at <= end:
            expected.append((at, reference.random()))
            at += reference.expovariate(rate)
        assert drawn == expected

    def test_label_reaches_the_scheduled_events(self):
        sim = Simulator()
        poisson(sim, SeededRng(1), 1.0, 0.0, 50.0, lambda _s: None, "arrival.test")
        first = sim.step()
        assert first.label == "arrival.test"
        assert sim.step().label == "arrival.test"  # the rescheduled firing too


class TestScriptedProducer:
    """A producer that is not Poisson drives the same executor: every rate
    0, a hand-written script of simulator events, ``note`` and ``fold``."""

    def test_script_is_counted_settled_and_repaired(self):
        anet, keys = replicated_anet(seed=3)
        config = ConcurrentConfig(
            duration=40.0, churn_rate=0.0, query_rate=0.0, repair_delay=2.0
        )
        run = WorkloadRun(anet, keys, config, seed=3)
        sim = anet.sim
        stream = SeededRng(17)  # the test's own producer stream
        for at in (1.0, 2.0, 3.0):
            sim.schedule_at(at, lambda: run.note("join", anet.submit_join()))
        sim.schedule_at(5.0, lambda: run.crash(anet.leave_candidates()[0]))
        for i in range(20):
            sim.schedule_at(4.0 + i, lambda: run.submit_query(stream))
        anet.drain()
        report = run.fold()

        assert report.submitted == {
            "join": 3,
            "fail": 1,
            "repair": 1,
            "search.exact": 20,
        }
        assert report.completed + report.failed == sum(report.submitted.values())
        assert report.unresolved_ops == 0
        assert report.joins_applied == 3
        assert report.fails_applied == 1
        assert report.repairs_applied == 1
        assert report.recovery_latency_p50 >= 2.0  # the detection delay
        assert report.exact_total == 20
        anet.reconcile()
        assert collect_violations(anet.net) == []
