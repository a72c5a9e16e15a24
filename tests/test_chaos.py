"""Tests for the chaos subsystem: fault-injecting transport
(repro.sim.faults), the at-least-once runtime path, the liveness monitor
(repro.sim.liveness), and the scenario harness (repro.workloads.chaos).
"""

import pytest

from repro.core.invariants import collect_violations_sampled
from repro.core.network import BatonNetwork
from repro.experiments import chaos as chaos_experiment
from repro.experiments.harness import quick_scale
from repro.sim.faults import (
    DEFAULT_LOSS_RATE,
    FaultPlan,
    OutageWindow,
    PartitionWindow,
    RetryPolicy,
)
from repro.sim.latency import ConstantLatency, ExponentialLatency
from repro.sim.liveness import LivenessMonitor
from repro.sim.runtime import AsyncOverlayRuntime
from repro.sim.topology import ClusteredTopology
from repro.util.errors import DeliveryError
from repro.util.rng import SeededRng
from repro.workloads.chaos import (
    SCENARIO_NAMES,
    FlashCrowd,
    LossyLinks,
    PartitionHeal,
    RegionOutage,
    build_scenario,
)
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import uniform_keys


def judged(plan, pairs, now=0.0):
    """The (delivered, duplicate) verdict sequence for a pair stream."""
    return [
        (d, dup) for d, _delay, dup in (
            plan.judge(src, dst, now) for src, dst in pairs
        )
    ]


WIRE_PAIRS = [(src, src + 1) for src in range(1, 201)]


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(ConstantLatency(1.0), drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(ConstantLatency(1.0), duplicate_rate=-0.1)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan(
                ConstantLatency(1.0),
                drop_rate=0.5,
                duplicate_rate=0.4,
                delay_spike_rate=0.2,
            )

    def test_spike_factor_floor(self):
        with pytest.raises(ValueError):
            FaultPlan(ConstantLatency(1.0), delay_spike_factor=0.5)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(budget=-1)

    def test_retry_backoff_grows(self):
        policy = RetryPolicy(timeout=2.0, backoff=3.0, budget=4)
        assert policy.wait(1) == 2.0
        assert policy.wait(2) == 6.0
        assert policy.wait(3) == 18.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PartitionWindow(10.0, 5.0)
        with pytest.raises(ValueError):
            PartitionWindow(0.0, 5.0, fraction=0.0)
        with pytest.raises(ValueError):
            OutageWindow(0.0, 5.0)  # neither region nor addresses


class TestSeededDeterminism:
    def test_same_seed_same_drop_schedule(self):
        make = lambda s: FaultPlan(  # noqa: E731
            ConstantLatency(1.0), seed=s, drop_rate=0.3, duplicate_rate=0.1
        )
        one, two = make(11), make(11)
        assert judged(one, WIRE_PAIRS) == judged(two, WIRE_PAIRS)
        assert one.stats == two.stats
        assert one.stats.drops > 0 and one.stats.duplicates > 0

    def test_different_seed_different_schedule(self):
        one = FaultPlan(ConstantLatency(1.0), seed=11, drop_rate=0.3)
        two = FaultPlan(ConstantLatency(1.0), seed=12, drop_rate=0.3)
        assert judged(one, WIRE_PAIRS) != judged(two, WIRE_PAIRS)

    def test_same_seed_same_partition_sides(self):
        cut = PartitionWindow(0.0, 10.0)
        make = lambda s: FaultPlan(  # noqa: E731
            ConstantLatency(1.0), seed=s, partitions=(cut,)
        )
        one, two = make(5), make(5)
        inside = judged(one, WIRE_PAIRS, now=5.0)
        assert inside == judged(two, WIRE_PAIRS, now=5.0)
        assert one.stats.refusals == two.stats.refusals > 0

    def test_inert_plan_consumes_no_randomness(self):
        plan = FaultPlan(ConstantLatency(1.0), seed=3)
        before = plan._draw()  # the stream's first value
        fresh = FaultPlan(ConstantLatency(1.0), seed=3)
        judged(fresh, WIRE_PAIRS)
        assert fresh._draw() == before  # judging drew nothing


class TestWindows:
    def test_partition_refuses_only_cross_cut_and_only_in_window(self):
        cut = PartitionWindow(10.0, 20.0)
        plan = FaultPlan(ConstantLatency(1.0), seed=0, partitions=(cut,))
        in_window = judged(plan, WIRE_PAIRS, now=15.0)
        refused = [pair for pair, (ok, _) in zip(WIRE_PAIRS, in_window) if not ok]
        passed = [pair for pair, (ok, _) in zip(WIRE_PAIRS, in_window) if ok]
        assert refused and passed  # a half split cuts some pairs, not all
        # The same pairs all pass outside the window.
        assert all(ok for ok, _ in judged(plan, WIRE_PAIRS, now=25.0))
        assert all(ok for ok, _ in judged(plan, WIRE_PAIRS, now=5.0))
        # Same-side pairs never see the cut: refusal means different sides.
        for src, dst in refused:
            assert plan.judge(src, src, 15.0)[0]  # local beat, never refused

    def test_region_partition_uses_the_inner_region_map(self):
        inner = ClusteredTopology(seed=4, regions=4)
        cut = PartitionWindow(0.0, 10.0, regions=frozenset({0}))
        plan = FaultPlan(inner, seed=0, partitions=(cut,))
        addresses = list(range(1, 41))
        side_a = [a for a in addresses if inner.region_of(a) == 0]
        side_b = [a for a in addresses if inner.region_of(a) != 0]
        assert side_a and side_b
        assert not plan.judge(side_a[0], side_b[0], 5.0)[0]
        assert plan.judge(side_b[0], side_b[1], 5.0)[0]
        assert plan.judge(side_a[0], side_b[0], 15.0)[0]  # healed

    def test_outage_refuses_hops_touching_the_down_region(self):
        inner = ClusteredTopology(seed=4, regions=4)
        out = OutageWindow(0.0, 10.0, region=1)
        plan = FaultPlan(inner, seed=0, outages=(out,))
        addresses = list(range(1, 41))
        down = [a for a in addresses if inner.region_of(a) == 1]
        up = [a for a in addresses if inner.region_of(a) != 1]
        assert not plan.judge(down[0], up[0], 5.0)[0]
        assert not plan.judge(up[0], down[0], 5.0)[0]
        assert plan.judge(up[0], up[1], 5.0)[0]
        assert plan.judge(down[0], up[0], 12.0)[0]  # power back on

    def test_ingress_hops_are_never_faulted(self):
        plan = FaultPlan(
            ConstantLatency(1.0),
            seed=0,
            drop_rate=0.9,
            partitions=(PartitionWindow(0.0, 100.0),),
        )
        for _ in range(50):
            delivered, _delay, duplicate = plan.judge(None, 7, 5.0)
            assert delivered and not duplicate


def build_anet(n_peers=60, seed=1, topology=None, **kwargs):
    return AsyncOverlayRuntime(
        BatonNetwork.build(n_peers, seed=seed),
        topology=topology,
        **kwargs,
    )


def exponential(seed=9):
    return ExponentialLatency(1.0, SeededRng(seed).child("latency"))


class TestRuntimeChaosPath:
    def test_inert_plan_is_event_for_event_identical(self):
        """The zero-overhead contract: wrapping changes nothing by itself."""
        reports = []
        logs = []
        for wrap in (False, True):
            transport = exponential()
            if wrap:
                transport = FaultPlan(transport, seed=123)
            anet = build_anet(topology=transport)
            keys = uniform_keys(600, seed=2)
            anet.net.bulk_load(keys)
            config = ConcurrentConfig(
                duration=30.0, churn_rate=1.0, query_rate=6.0
            )
            reports.append(run_concurrent_workload(anet, keys, config, seed=7))
            logs.append(anet.event_log)
        assert logs[0] == logs[1]
        assert reports[0] == reports[1]
        assert reports[1].retries == 0 and reports[1].timeouts == 0

    def test_budget_exhaustion_fails_the_future_without_hanging(self):
        """A black-holed channel: every op resolves FAILED, none hang."""
        plan = FaultPlan(
            exponential(),
            seed=0,
            drop_rate=1.0,
            retry=RetryPolicy(timeout=2.0, backoff=2.0, budget=3),
        )
        anet = build_anet(n_peers=30, topology=plan)
        keys = uniform_keys(200, seed=3)
        anet.net.bulk_load(keys)
        futures = [anet.submit_search_exact(keys[i]) for i in range(10)]
        anet.drain()
        assert anet.in_flight == 0
        for future in futures:
            assert future.done and not future.succeeded
            assert isinstance(future.error, DeliveryError)
            assert future.error.attempts == 4  # 1 send + 3 retransmissions
        assert anet.fault_stats.gave_up == len(futures)
        assert anet.fault_stats.retries == 3 * len(futures)

    def test_delivery_error_thrown_into_the_shared_core_walks(self):
        """Budget 0, drop everything: the first wire hop of the core owner
        walk / Algorithm 1 walk gets a DeliveryError thrown into it.  The
        future fails with the error attached, nothing hangs, nothing is
        left half-built."""
        from repro.core.invariants import collect_violations
        from repro.core.join import can_accept_join

        plan = FaultPlan(
            ConstantLatency(1.0),
            seed=0,
            drop_rate=1.0,
            retry=RetryPolicy(timeout=2.0, budget=0),
        )
        anet = build_anet(n_peers=30, topology=plan)
        net = anet.net
        via = net.addresses()[0]
        far_key = next(
            peer.range.low
            for peer in net.peers.values()
            if peer.address != via and not net.peer(via).range.contains(peer.range.low)
        )
        full = next(
            address
            for address, peer in sorted(net.peers.items())
            if not can_accept_join(peer)
        )
        size = net.size
        futures = [
            anet.submit_search_exact(far_key, via=via),
            anet.submit_search_range(far_key, far_key + 10, via=via),
            anet.submit_insert(far_key, via=via),
            anet.submit_join(via=full),
        ]
        anet.drain()
        assert anet.in_flight == 0
        for future in futures:
            assert future.done and not future.succeeded
            assert isinstance(future.error, DeliveryError)
            assert future.error.attempts == 1
            assert future.hops == 1  # only the (never-faulted) ingress landed
        assert anet.fault_stats.gave_up == len(futures)
        assert net.size == size
        assert collect_violations(net) == []

    def test_retries_recover_from_moderate_loss(self):
        plan = FaultPlan(exponential(), seed=0, drop_rate=0.2)
        anet = build_anet(n_peers=30, topology=plan)
        keys = uniform_keys(200, seed=3)
        anet.net.bulk_load(keys)
        futures = [anet.submit_search_exact(keys[i]) for i in range(40)]
        anet.drain()
        assert anet.in_flight == 0
        assert all(f.succeeded for f in futures)
        assert anet.fault_stats.retries > 0
        # Retransmitted ops paid their timeouts in transit time.
        retried = [f for f in futures if f.retries]
        assert retried

    def test_fault_stats_empty_without_a_plan(self):
        anet = build_anet(n_peers=20, topology=exponential())
        assert anet.faults is None
        assert anet.fault_stats.as_dict() == {
            key: 0 for key in anet.fault_stats.as_dict()
        }


class TestLivenessMonitor:
    def test_monitor_detects_a_silent_crash(self):
        anet = build_anet(n_peers=30, topology=exponential())
        victim = sorted(anet.net.addresses())[5]
        crash = anet.submit_fail(victim)
        anet.drain()
        assert crash.succeeded
        assert victim in anet.pending_repairs()

        repaired = []
        monitor = LivenessMonitor(
            anet,
            interval=2.0,
            suspicion_threshold=2,
            horizon=40.0,
            on_repair=repaired.append,
        )
        monitor.start()
        anet.sim.run_until(anet.sim.now + 40.0)
        anet.drain()
        assert monitor.heartbeats > 0
        assert monitor.failed_heartbeats > 0
        assert monitor.suspicions >= 1
        assert monitor.repairs_submitted >= 1
        assert repaired and repaired[0].succeeded
        assert victim not in anet.pending_repairs()

    def test_monitor_quiet_on_a_healthy_network(self):
        anet = build_anet(n_peers=30, topology=exponential())
        monitor = LivenessMonitor(anet, interval=2.0, horizon=20.0)
        monitor.start()
        anet.sim.run_until(anet.sim.now + 30.0)
        anet.drain()
        assert monitor.heartbeats > 0
        assert monitor.failed_heartbeats == 0
        assert monitor.suspicions == 0
        assert monitor.repairs_submitted == 0

    def test_monitor_start_is_idempotent(self):
        anet = build_anet(n_peers=20, topology=exponential())
        monitor = LivenessMonitor(anet, interval=2.0, horizon=10.0)
        monitor.start()
        monitor.start()
        anet.sim.run_until(anet.sim.now + 4.0)
        rounds_so_far = monitor.heartbeats
        anet.sim.run_until(anet.sim.now + 2.0)
        # One round per interval, not two: the second start was a no-op.
        assert monitor.heartbeats <= rounds_so_far * 2


def run_scenario(scenario, n_peers=60, seed=1, duration=40.0, **config_kwargs):
    inner = ClusteredTopology(seed=seed, regions=4)
    plan = scenario.fault_plan(inner, seed)
    anet = build_anet(
        n_peers=n_peers,
        seed=seed,
        topology=plan or inner,
        record_events=False,
        retain_ops=False,
    )
    keys = uniform_keys(10 * n_peers, seed=2)
    anet.net.bulk_load(keys)
    defaults = dict(
        duration=duration, churn_rate=0.2, query_rate=4.0, min_peers=8
    )
    defaults.update(config_kwargs)
    config = ConcurrentConfig(**defaults)
    report = run_concurrent_workload(
        anet, keys, config, seed=seed, scenario=scenario
    )
    return anet, report


class TestScenarios:
    def test_lossy_links_meets_the_availability_floor(self):
        """The acceptance criterion: >90% availability at the default
        loss rate with retries on, and every future resolves."""
        scenario = LossyLinks(duration=40.0)
        assert scenario.drop_rate == DEFAULT_LOSS_RATE
        anet, report = run_scenario(scenario)
        assert report.unresolved_ops == 0
        assert report.availability_during is not None
        assert report.availability_during > 0.9
        assert report.retries > 0
        assert report.message_amplification > 1.0
        assert report.recover_time == 0.0

    def test_partition_heal_triggers_a_reconcile_storm(self):
        scenario = PartitionHeal(start=8.0, end=20.0)
        anet, report = run_scenario(scenario)
        assert report.unresolved_ops == 0
        assert report.partition_refusals > 0
        assert report.reconcile_sweeps >= 1  # the heal-time storm ran
        assert report.reconcile_messages > 0
        assert report.availability_during is not None

    def test_flash_crowd_leaves_invariants_clean(self):
        scenario = FlashCrowd(
            start=8.0, spike_len=6.0, joins=40, query_multiplier=20.0
        )
        anet, report = run_scenario(scenario, duration=30.0)
        assert report.unresolved_ops == 0
        assert report.joins_applied >= 20  # the burst actually landed
        assert report.window_queries > 100  # so did the spike
        assert collect_violations_sampled(anet.net, seed=5) == []

    def test_build_scenario_names_and_scaling(self):
        for name in SCENARIO_NAMES:
            scenario = build_scenario(name, duration=48.0, n_peers=100)
            assert scenario.name == name
            assert scenario.window[1] <= 48.0
        crowd = build_scenario("flash_crowd", duration=48.0, n_peers=100)
        assert crowd.joins == 100  # capped by the population
        with pytest.raises(ValueError):
            build_scenario("earthquake", duration=48.0)


class TestReportFold:
    def test_fault_counters_are_per_run(self):
        """Two runs on one lossy runtime: each report carries its own
        drops/retries/duplicates/timeouts (they sum to the runtime's
        lifetime counters) and amplification comes from its own fields."""
        plan = FaultPlan(exponential(), seed=4, drop_rate=0.05, duplicate_rate=0.02)
        anet = build_anet(
            n_peers=200, topology=plan, record_events=False, retain_ops=False
        )
        keys = uniform_keys(2000, seed=2)
        anet.net.bulk_load(keys)
        config = ConcurrentConfig(duration=30.0, churn_rate=0.0, query_rate=6.0)
        first = run_concurrent_workload(anet, keys, config, seed=1)
        second = run_concurrent_workload(anet, keys, config, seed=2)
        assert first.drops > 0 and second.drops > 0
        lifetime = anet.fault_stats
        for name in ("drops", "retries", "duplicates", "timeouts"):
            assert getattr(first, name) + getattr(second, name) == getattr(
                lifetime, name
            ), name
        assert second.message_amplification == (
            second.messages_total + second.retries + second.duplicates
        ) / second.messages_total

    def test_monitor_repairs_fold_through_settle(self):
        """Every in-window repair of a region outage is the monitor's; the
        report counts exactly the ones that succeeded with a result."""
        scenario = RegionOutage(strike_at=8.0, window_len=14.0)
        inner = ClusteredTopology(seed=1, regions=4)
        anet = build_anet(
            n_peers=60, topology=inner, record_events=False, retain_ops=False
        )
        keys = uniform_keys(600, seed=2)
        anet.net.bulk_load(keys)
        repairs = []
        submit_repair = anet.submit_repair

        def recording(address):
            future = submit_repair(address)
            repairs.append(future)
            return future

        anet.submit_repair = recording
        config = ConcurrentConfig(duration=40.0, churn_rate=0.0, query_rate=4.0)
        report = run_concurrent_workload(
            anet, keys, config, seed=1, scenario=scenario, repair_at_end=False
        )
        landed = [f for f in repairs if f.succeeded and f.result is not None]
        assert landed  # the outage was noticed and repaired in the window
        assert report.repairs_applied == len(landed)
        assert report.submitted["repair"] == len(repairs)
        assert report.monitor_repairs >= report.repairs_applied


class TestChaosExperiment:
    def test_quick_cell_reports_the_four_metrics(self):
        result = chaos_experiment.GRID.run(
            quick_scale(), scenario_name="lossy_links", overlay="baton"
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["scenario"] == "lossy_links"
        assert row["avail_during"] > 0.9
        assert row["recover_t"] == 0.0
        assert row["amplification"] >= 1.0
        assert row["unresolved"] == 0

    def test_capability_filter_skips_with_a_note(self):
        result = chaos_experiment.GRID.run(
            quick_scale(), scenario_name="region_outage", overlay="chord"
        )
        assert result.rows == []
        assert any("skipped on chord" in note for note in result.notes)
