"""Tests for the event-driven runtime (repro.sim.runtime).

Two properties anchor everything else:

* **Serialized equivalence** — with constant latency and one operation in
  flight at a time, the async network sends the same message sequence as
  the synchronous one and converges to the identical structure.
* **Determinism** — a seeded interleaved run replays byte-for-byte:
  same event log, same per-operation outcomes, across two fresh runs.
"""

import gc
import random

import pytest

from repro import overlays
from repro.core import check_invariants
from repro.core.network import BatonConfig, BatonNetwork
from repro.net.message import MsgType
from repro.sim.engine import Event
from repro.sim.faults import FaultPlan
from repro.sim.latency import ConstantLatency, ExponentialLatency
from repro.sim.runtime import FAILED, AsyncOverlayRuntime, OpFuture, _Advance
from repro.util.errors import PeerNotFoundError, ReproError
from repro.util.rng import SeededRng
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import uniform_keys

from tests.test_sim import RecordingSimulator


def structure_snapshot(net: BatonNetwork) -> set:
    return {
        (
            str(peer.position),
            peer.range.low,
            peer.range.high,
            tuple(sorted(peer.store)),
        )
        for peer in net.peers.values()
    }


def serialized_pair(n_peers: int = 40, seed: int = 3):
    """Identical sync and async networks; async uses constant latency."""
    sync = BatonNetwork.build(n_peers, seed=seed)
    anet = AsyncOverlayRuntime(
        BatonNetwork.build(n_peers, seed=seed), topology=ConstantLatency(1.0)
    )
    return sync, anet


class TestSerializedEquivalence:
    def test_search_exact_matches_sync(self):
        sync, anet = serialized_pair()
        keys = uniform_keys(30, seed=9)
        sync.bulk_load(keys)
        anet.net.bulk_load(keys)
        for key in keys:
            expected = sync.search_exact(key)
            future = anet.submit_search_exact(key)
            anet.drain()
            assert future.succeeded
            assert future.result.found is expected.found is True
            assert future.result.owner == expected.owner
            assert future.trace.total == expected.trace.total

    def test_search_range_matches_sync(self):
        sync, anet = serialized_pair()
        keys = uniform_keys(200, seed=10)
        sync.bulk_load(keys)
        anet.net.bulk_load(keys)
        for low in (10**8, 4 * 10**8, 7 * 10**8):
            expected = sync.search_range(low, low + 10**8)
            future = anet.submit_search_range(low, low + 10**8)
            anet.drain()
            assert future.succeeded
            assert future.result.owners == expected.owners
            assert future.result.keys == expected.keys
            assert future.result.complete is expected.complete is True
            assert future.trace.total == expected.trace.total

    def test_insert_delete_match_sync(self):
        sync, anet = serialized_pair()
        for key in uniform_keys(25, seed=12):
            expected = sync.insert(key)
            future = anet.submit_insert(key)
            anet.drain()
            assert future.succeeded
            assert future.result.owner == expected.owner
            assert future.trace.total == expected.trace.total
            expected_del = sync.delete(key)
            future_del = anet.submit_delete(key)
            anet.drain()
            assert future_del.result.applied is expected_del.applied is True
            assert future_del.result.owner == expected_del.owner

    def test_join_and_leave_match_sync(self):
        sync, anet = serialized_pair()
        for _ in range(12):
            expected = sync.join()
            future = anet.submit_join()
            anet.drain()
            assert future.succeeded
            assert future.result.address == expected.address
            assert future.result.parent == expected.parent
            assert future.result.total_messages == expected.total_messages
            assert future.result.find_trace.total == expected.find_trace.total
            assert future.result.update_trace.total == expected.update_trace.total
        for index in (7, 3, 11, 0, 5):
            victim = sync.addresses()[index]
            expected = sync.leave(victim)
            future = anet.submit_leave(victim)
            anet.drain()
            assert future.succeeded
            assert future.result.replacement == expected.replacement
            assert future.result.total_messages == expected.total_messages
            assert future.result.find_trace.total == expected.find_trace.total
            assert future.result.update_trace.total == expected.update_trace.total

    def test_final_structures_identical(self):
        sync, anet = serialized_pair()
        keys = uniform_keys(40, seed=5)
        for key in keys[:20]:
            sync.insert(key)
            anet.submit_insert(key)
            anet.drain()
        for _ in range(8):
            sync.join()
            anet.submit_join()
            anet.drain()
        for index in (9, 2, 14):
            victim = sync.addresses()[index]
            sync.leave(victim)
            anet.submit_leave(victim)
            anet.drain()
        check_invariants(sync)
        check_invariants(anet.net)
        assert structure_snapshot(sync) == structure_snapshot(anet.net)


def interleaved_run(seed: int = 42, n_ops: int = 520):
    """A mixed join/leave/query stream, all submitted up front."""
    rng = SeededRng(seed)
    anet = AsyncOverlayRuntime(
        BatonNetwork.build(60, seed=1),
        topology=ExponentialLatency(1.0, rng.child("latency")),
    )
    anet.net.bulk_load(uniform_keys(600, seed=2))
    futures = []
    while len(futures) < n_ops:
        roll = rng.random()
        if roll < 0.15:
            futures.append(anet.submit_join())
        elif roll < 0.3:
            candidates = anet.leave_candidates()
            if len(candidates) > 8:
                futures.append(anet.submit_leave(rng.choice(sorted(candidates))))
        else:
            futures.append(anet.submit_search_exact(rng.randint(1, 10**9 - 1)))
    anet.drain()
    return anet, futures


class TestInterleaving:
    def test_many_operations_overlap_and_complete(self):
        anet, futures = interleaved_run()
        assert len(futures) >= 500
        assert all(future.done for future in futures)
        assert anet.max_in_flight > 1  # genuine in-flight overlap
        succeeded = sum(1 for f in futures if f.succeeded)
        assert succeeded > len(futures) // 2

    def test_deterministic_across_two_runs(self):
        first_net, first = interleaved_run()
        second_net, second = interleaved_run()
        assert first_net.event_log == second_net.event_log
        assert [(f.status, f.hops, f.trace.total) for f in first] == [
            (f.status, f.hops, f.trace.total) for f in second
        ]

    def test_reconcile_restores_invariants(self):
        anet, _futures = interleaved_run()
        anet.reconcile()
        check_invariants(anet.net)

    def test_key_conservation_under_graceful_churn(self):
        # Graceful leaves hand content over, joins split it: no key is lost.
        anet, _futures = interleaved_run()
        keys = sorted(
            key for peer in anet.net.peers.values() for key in peer.store
        )
        assert keys == sorted(uniform_keys(600, seed=2))


class TestOpFuture:
    def test_done_callback_fires_at_completion(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(10, seed=2), topology=ConstantLatency(1.0)
        )
        seen = []
        future = anet.submit_search_exact(123)
        future.add_done_callback(lambda f: seen.append(f.status))
        assert seen == []  # nothing ran yet
        anet.drain()
        assert seen == ["succeeded"]
        # late registration fires immediately
        future.add_done_callback(lambda f: seen.append("late"))
        assert seen == ["succeeded", "late"]

    def test_latency_measures_submit_to_completion(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(10, seed=2), topology=ConstantLatency(2.0)
        )
        future = anet.submit_search_exact(123)
        assert future.latency is None
        anet.drain()
        # at least the initial delivery hop, quantized by the constant model
        assert future.latency is not None
        assert future.latency >= 2.0
        assert future.latency == pytest.approx(2.0 * future.hops)

    def test_query_to_failed_carrier_fails_cleanly(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(20, seed=6), topology=ConstantLatency(1.0)
        )
        start = anet.net.addresses()[5]
        future = anet.submit_search_exact(10**8, via=start)
        anet.net.fail(start)  # the carrier crashes before delivery
        anet.drain()
        assert future.done and not future.succeeded
        assert isinstance(future.error, ReproError)

    def test_duplicate_leave_rejected(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(20, seed=6), topology=ConstantLatency(1.0)
        )
        victim = anet.net.addresses()[3]
        anet.submit_leave(victim)
        with pytest.raises(ValueError):
            anet.submit_leave(victim)
        anet.drain()
        assert victim not in anet.net.peers

    def test_leave_of_vanished_peer_fails(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(20, seed=6), topology=ConstantLatency(1.0)
        )
        victim = anet.net.addresses()[4]
        anet.net.fail(victim)
        future = anet.submit_leave(victim)
        anet.drain()
        assert future.done and not future.succeeded
        assert isinstance(future.error, PeerNotFoundError)


class TestUpdatePropagation:
    def test_updates_apply_after_latency_not_immediately(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(30, seed=8), topology=ConstantLatency(1.0)
        )
        assert anet.net.updates.in_flight == 0
        anet.submit_join()
        anet.drain()
        # join's table refreshes were scheduled (and by now delivered)
        assert anet.net.updates.in_flight == 0
        check_invariants(anet.net)

    def test_sink_counts_in_flight(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(30, seed=8), topology=ConstantLatency(1.0)
        )
        anet.submit_join()
        # run just past the accept: refreshes are in the air
        saw_in_flight = False
        while anet.sim.pending_count:
            anet.sim.step()
            if anet.net.updates.in_flight > 0:
                saw_in_flight = True
        assert saw_in_flight
        assert anet.net.updates.in_flight == 0


def streaming_runtime(topology, replication: bool = False) -> AsyncOverlayRuntime:
    """Bulk N=1024, 20 keys per peer, configured the way the workload
    drivers configure it (no event log, futures not retained)."""
    net = BatonNetwork.build(
        1024,
        seed=3,
        config=BatonConfig(replication=replication),
        bulk=True,
        keys=uniform_keys(1024 * 20, seed=5),
    )
    return AsyncOverlayRuntime(
        net, topology=topology, record_events=False, retain_ops=False
    )


def exponential() -> ExponentialLatency:
    return ExponentialLatency(1.0, SeededRng(17))


class TestNoCyclicGarbage:
    """A completed operation is freed by reference counting: nothing the
    runtime allocates per op may sit in a reference cycle (DESIGN.md,
    "Performance contract")."""

    @pytest.mark.parametrize(
        "make_topology",
        [
            exponential,
            lambda: FaultPlan(exponential(), seed=1),
            lambda: FaultPlan(exponential(), seed=1, drop_rate=0.05),
        ],
        ids=["plain", "inert-plan", "lossy-plan"],
    )
    def test_drained_queries_leave_nothing_to_collect(self, make_topology):
        anet = streaming_runtime(make_topology())
        rng = random.Random(23)
        domain = anet.domain
        gc.collect()
        gc.disable()
        try:
            for _ in range(2000):
                anet.submit_search_exact(rng.randint(domain.low, domain.high - 1))
            for _ in range(500):
                low = rng.randint(domain.low, domain.high - 2_000_001)
                anet.submit_search_range(low, low + 2_000_000)
            anet.drain()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert anet.in_flight == 0
        if anet.faults is not None and anet.faults.drop_rate:
            assert anet.fault_stats.retries > 0  # the retry path ran
        assert garbage < 100

    def test_refresh_sweep_garbage_is_per_sweep_not_per_peer(self):
        anet = streaming_runtime(exponential(), replication=True)
        gc.collect()
        gc.disable()
        try:
            future = anet.submit_replica_refresh_sweep()
            anet.drain()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert future.succeeded and future.result == anet.size == 1024
        assert garbage < 100

    #: Objects one failed op keeps through its error's traceback (frames,
    #: their locals, the dead peer a walk was looking at): 46 to 73 seen.
    PER_FAILED_OP = 80
    #: Objects one self-rescheduling closure keeps (function, cells,
    #: closure tuple, what only they reach): 16 for a Poisson arrival, 6
    #: for the maintenance sweep, 11 and 15 for a refresh sweep's two.
    PER_CLOSURE = 16
    CLOSURES = {
        "poisson.<locals>.arrive",
        "WorkloadRun.maintenance.<locals>.sweep",
        "AsyncOverlayRuntime.submit_replica_refresh_sweep.<locals>.join",
        "AsyncOverlayRuntime.submit_replica_refresh_sweep.<locals>.resume",
    }

    def test_composed_churn_loop_keeps_only_failed_ops_and_closures(self):
        """The event loop runs with the collector paused, so a per-op cycle
        would hoard memory for a whole run: joins, leaves, crashes, in-run
        repairs, replication, inserts and maintenance sweeps together
        leave only what failed ops and the periodic closures keep."""
        anet = streaming_runtime(exponential(), replication=True)
        config = ConcurrentConfig(
            duration=12.0,
            churn_rate=3.0,
            fail_fraction=0.3,
            repair_delay=2.0,
            insert_rate=16.0,
            query_rate=60.0,
            range_fraction=0.2,
            maintenance_interval=3.0,
        )
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report = run_concurrent_workload(
                anet, uniform_keys(1024 * 20, seed=5), config, seed=11
            )
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert anet.in_flight == 0
        for kind in ("join", "leave", "fail", "repair", "insert"):
            assert report.submitted[kind] > 0, kind
        assert report.reconcile_sweeps == report.replica_refresh_sweeps > 0

        closures = [obj for obj in garbage if type(obj).__name__ == "function"]
        assert {fn.__qualname__ for fn in closures} <= self.CLOSURES
        # Three arrival streams, one maintenance loop, two per refresh round.
        assert len(closures) == 3 + 1 + 2 * report.replica_refresh_sweeps
        failed = [
            obj for obj in garbage if isinstance(obj, OpFuture) and obj.status == FAILED
        ]
        assert len(failed) == report.failed
        # Every Event, _Advance and completed future in the garbage is one
        # of those keepers' own: a completed op is freed by refcounting.
        kept = reachable_within(garbage, failed + closures)
        for obj in garbage:
            if isinstance(obj, (Event, _Advance)) or (
                isinstance(obj, OpFuture) and obj.succeeded
            ):
                assert id(obj) in kept, obj
        assert len(garbage) <= (
            self.PER_FAILED_OP * report.failed + self.PER_CLOSURE * len(closures)
        )


def reachable_within(objects: list, roots: list) -> set:
    """ids of the ``objects`` reachable from ``roots`` through ``objects``."""
    inside = {id(obj) for obj in objects}
    seen: set = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        stack.extend(ref for ref in gc.get_referents(obj) if id(ref) in inside)
    return seen


def shadow_send(bus) -> list:
    """Shadow ``bus.send`` on the instance, as ``tracing.trace_method``
    does; returns the list every call is appended to."""
    inner = bus.send
    calls = []

    def counted(src, dst, mtype):
        calls.append(mtype)
        return inner(src, dst, mtype)

    bus.send = counted
    return calls


class TestTracerSeams:
    """``benchmarks/e2e/tracing.py`` stands on two seams no in-program test
    otherwise holds open: the simulator is measured by subclassing it, the
    bus by shadowing ``send`` on the instance after the runtime is built.
    A fast path that bypasses either makes the layer split silently wrong."""

    def test_drain_dispatches_through_the_simulator_subclass(self):
        sim = RecordingSimulator()
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(40, seed=3), sim=sim, topology=exponential()
        )
        for key in uniform_keys(30, seed=9):
            anet.submit_search_exact(key)
        anet.submit_join()  # table updates ride schedule_at
        anet.submit_leave(anet.net.addresses()[5])
        executed = anet.drain()
        assert executed == sim.executed_count == len(sim.stepped) > 0
        assert sim.pending_count == 0
        assert len(sim.scheduled) == sim.executed_count + sim.cancelled_count

    def test_every_baton_message_goes_through_the_instance_send(self):
        net = BatonNetwork.build(64, seed=2, config=BatonConfig(replication=True))
        net.bulk_load(uniform_keys(640, seed=4))
        anet = overlays.get("baton").wrap(net, topology=exponential())
        calls = shadow_send(net.bus)
        before = net.bus.stats.total
        for key in uniform_keys(20, seed=6):
            anet.submit_search_exact(key)
        anet.submit_search_range(10**8, 3 * 10**8)
        anet.submit_insert(123_456_789)
        anet.submit_join()
        anet.submit_leave(net.addresses()[7])
        anet.drain()
        anet.reconcile()
        assert len(calls) == net.bus.stats.total - before
        assert {
            MsgType.SEARCH,
            MsgType.RANGE_SEARCH,
            MsgType.INSERT,
            MsgType.REPLICATE,
            MsgType.JOIN_FIND,
            MsgType.JOIN_TRANSFER,
            MsgType.TABLE_UPDATE,
            MsgType.LEAVE_TRANSFER,
            MsgType.RECONCILE,
        } <= set(calls)

    @pytest.mark.parametrize("overlay", ["chord", "multiway"])
    def test_every_baseline_message_goes_through_the_instance_send(self, overlay):
        anet = overlays.get(overlay).build_async(48, seed=2, topology=exponential())
        calls = shadow_send(anet.bus)
        before = anet.bus.stats.total
        for key in uniform_keys(20, seed=6):
            anet.submit_search_exact(key)
        anet.submit_search_range(10**8, 3 * 10**8)
        anet.drain()
        assert len(calls) == anet.bus.stats.total - before > 0
