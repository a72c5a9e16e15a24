"""Unit tests for the discrete-event engine (repro.sim)."""

import gc

import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, ExponentialLatency, UniformLatency
from repro.util.rng import SeededRng


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_during_run(self):
        sim = Simulator()
        order = []

        def chain():
            order.append("one")
            sim.schedule(1.0, lambda: order.append("two"))

        sim.schedule(1.0, chain)
        sim.run()
        assert order == ["one", "two"]
        assert sim.now == 2.0

    def test_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)  # in the past now

    def test_run_until_partial(self):
        sim = Simulator()
        order = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: order.append(t))
        executed = sim.run_until(2.0)
        assert executed == 2
        assert order == [1.0, 2.0]
        assert sim.pending_count == 1
        assert sim.now == 2.0

    def test_run_max_events(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.pending_count == 1

    def test_step_on_empty_queue(self):
        assert Simulator().step() is None

    def test_executed_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.executed_count == 1


class TestLatencyModels:
    """Scalar models are degenerate topologies: sample(src, dst) ignores
    the link (see tests/test_topology.py for the link-aware models)."""

    def test_constant(self):
        model = ConstantLatency(2.5)
        assert model.sample(1, 2) == 2.5
        assert model.sample(None, None) == 2.5  # link identity is ignored

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_within_bounds(self):
        model = UniformLatency(1.0, 2.0, SeededRng(3))
        for _ in range(100):
            assert 1.0 <= model.sample(1, 2) < 2.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0, SeededRng(3))

    def test_exponential_positive_with_roughly_right_mean(self):
        model = ExponentialLatency(2.0, SeededRng(5))
        samples = [model.sample(1, 2) for _ in range(2000)]
        assert all(s >= 0 for s in samples)
        assert 1.7 < sum(samples) / len(samples) < 2.3

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            ExponentialLatency(0.0, SeededRng(1))


class TestCancellation:
    def test_cancelled_event_never_runs(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(1.0, lambda: ran.append("a"))
        sim.schedule(2.0, lambda: ran.append("b"))
        assert sim.cancel(event)
        sim.run()
        assert ran == ["b"]

    def test_cancel_is_idempotent_and_rejects_executed(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert sim.cancel(event)
        assert not sim.cancel(event)  # already cancelled
        done = sim.schedule(2.0, lambda: None)
        sim.run()
        assert not sim.cancel(done)  # already executed

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending_count == 1
        sim.run()
        assert sim.pending_count == 0
        assert sim.cancelled_count == 1

    def test_run_until_skips_cancelled_head(self):
        sim = Simulator()
        order = []
        head = sim.schedule(1.0, lambda: order.append("head"))
        sim.schedule(1.5, lambda: order.append("mid"))
        sim.schedule(3.0, lambda: order.append("late"))
        sim.cancel(head)
        executed = sim.run_until(2.0)
        assert executed == 1
        assert order == ["mid"]
        assert sim.now == 2.0


class TestHeapCompaction:
    """Heap hygiene: when the lazily-cancelled set exceeds half the heap,
    the queue is compacted — memory reclaimed, zero behaviour change."""

    def test_compaction_reclaims_dead_events(self):
        sim = Simulator()
        events = [sim.schedule(float(t), lambda: None) for t in range(1, 41)]
        for event in events[:24]:  # 24 of 40 -> exceeds half the heap
            sim.cancel(event)
        assert len(sim._queue) < 40  # dead entries were dropped eagerly
        # whatever is still tombstoned is below the half-heap bound
        assert 2 * sim._dead <= len(sim._queue)
        assert sim.pending_count == 16
        assert sim.cancelled_count == 24

    def test_behavior_identical_with_and_without_compaction(self):
        def run(compact_min: int):
            sim = Simulator()
            order = []
            events = {}
            for t in range(1, 60):
                events[t] = sim.schedule(float(t), lambda t=t: order.append(t))
            sim._COMPACT_MIN_QUEUE = compact_min
            for t in range(1, 60):
                if t % 3:
                    sim.cancel(events[t])
            executed = sim.run()
            return order, executed, sim.now

        # A huge threshold disables compaction (pure lazy skipping).
        assert run(4) == run(10**9)

    def test_cancel_semantics_survive_compaction(self):
        sim = Simulator()
        events = [sim.schedule(float(t), lambda: None) for t in range(1, 30)]
        for event in events[:20]:
            assert sim.cancel(event)  # triggers compaction along the way
        for event in events[:20]:
            assert not sim.cancel(event)  # still reported as already gone
        assert sim.pending_count == 9
        sim.run()
        assert sim.executed_count == 9

    def test_small_queues_are_left_lazy(self):
        sim = Simulator()
        keep = sim.schedule(2.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        sim.cancel(drop)
        assert len(sim._queue) == 2  # below the compaction floor
        sim.run()
        assert sim.executed_count == 1
        assert keep.action is None  # executed handles are tombstoned too


class _ReferenceEvent:
    """The engine's original heap entry: a frozen, ordered dataclass.

    Kept here (not in the library) as the ordering oracle: the slotted
    :class:`~repro.sim.engine.Event` handles must pop in exactly the
    (time, seq) order this implementation produced.
    """

    def __init__(self, time, seq):
        self.time = time
        self.seq = seq

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class TestOrderEquivalence:
    """The refactored heap entries replay the old dataclass order exactly."""

    def _random_interleaving(self, seed: int):
        """One random schedule/cancel script; returns (script, n_events)."""
        import random

        rng = random.Random(seed)
        script = []
        n_events = 0
        for _ in range(rng.randint(20, 120)):
            if n_events and rng.random() < 0.35:
                script.append(("cancel", rng.randrange(n_events)))
            else:
                # Coarse times force (time, seq) ties; negative delays are
                # invalid so times are drawn absolute from a fixed clock.
                script.append(("schedule", float(rng.randint(0, 12))))
                n_events += 1
        return script

    def _reference_order(self, script):
        """Drive the old implementation: heap of (time, seq) dataclass-like
        entries plus the historical _cancelled side set, popped lazily."""
        import heapq as hq

        heap, cancelled, events, order = [], set(), [], []
        for op, arg in script:
            if op == "schedule":
                event = _ReferenceEvent(arg, len(events))
                events.append(event)
                hq.heappush(heap, event)
            else:
                event = events[arg]
                cancelled.add(event.seq)
        while heap:
            event = hq.heappop(heap)
            if event.seq not in cancelled:
                order.append((event.time, event.seq))
        return order

    def _engine_order(self, script):
        sim = Simulator()
        order = []
        events = []
        for op, arg in script:
            if op == "schedule":
                seq = len(events)
                time = arg

                def record(time=time, seq=seq):
                    order.append((time, seq))

                events.append(sim.schedule_at(arg, record))
            else:
                sim.cancel(events[arg])
        sim.run()
        return order

    def test_pop_order_matches_old_event_dataclass(self):
        for seed in range(40):
            script = self._random_interleaving(seed)
            assert self._engine_order(script) == self._reference_order(script), (
                f"divergence for script seed {seed}"
            )

    def test_cancel_interleaved_with_execution(self):
        # Cancels issued *during* the run follow the same lazy semantics:
        # each executing event cancels the one scheduled two slots later.
        sim = Simulator()
        executed = []
        handles = {}

        def fire(t):
            executed.append(t)
            later = handles.get(t + 2)
            if later is not None:
                sim.cancel(later)

        for t in range(1, 20):
            handles[t] = sim.schedule(float(t), lambda t=t: fire(t))
        sim.run()
        # 1 runs and kills 3; 2 runs and kills 4; 5 (first survivor after
        # the cascade restarts) runs and kills 7 ... i.e. survivors come in
        # leading pairs of each {4k+1, ...} block.
        assert executed == [t for t in range(1, 20) if t % 4 in (1, 2)]


class TestCancelHeavyScale:
    """Regression: pending_count and compaction stay consistent through a
    cancel-heavy 10k-event run, and the heap never balloons with tombstones."""

    def test_10k_event_churn_keeps_heap_compact(self):
        sim = Simulator()
        executed = []
        live = []
        n_events = 10_000
        for i in range(n_events):
            live.append(
                sim.schedule(float(i % 97) + i * 1e-4, lambda i=i: executed.append(i))
            )
            # Cancel in bursts, as churned operations do: every third event
            # retires the oldest outstanding handle.
            if i % 3 == 2:
                victim = live.pop(0)
                assert sim.cancel(victim)
                # The books always balance: heap length minus tombstones
                # equals the live pending count.
                assert sim.pending_count == len(sim._queue) - sim._dead
                assert sim.pending_count == len(live)
        cancelled = n_events - len(live)
        assert sim.cancelled_count == cancelled
        # Compaction bounds the heap: never more than the schedule highwater,
        # and tombstones never exceed half of it (plus the pre-threshold
        # residue on small queues).
        assert sim.peak_queue_len <= n_events
        assert 2 * sim._dead <= max(len(sim._queue), sim._COMPACT_MIN_QUEUE)
        total = sim.run()
        assert total == len(live)
        assert sim.executed_count == len(live)
        assert len(executed) == len(live)
        assert sim.pending_count == 0
        # The run popped everything: no tombstones survive the drain.
        assert not sim._queue and sim._dead == 0

    def test_peak_queue_len_tracks_highwater(self):
        sim = Simulator()
        for t in range(50):
            sim.schedule(float(t), lambda: None)
        assert sim.peak_queue_len == 50
        sim.run(max_events=30)
        sim.schedule(1.0, lambda: None)
        assert sim.peak_queue_len == 50  # highwater, not current length


class RecordingSimulator(Simulator):
    """Overrides the three methods the benchmark's tracer overrides."""

    def __init__(self):
        super().__init__()
        self.stepped = []
        self.scheduled = []

    def schedule(self, delay, action, label=""):
        self.scheduled.append(label)
        return super().schedule(delay, action, label)

    def schedule_at(self, time, action, label=""):
        self.scheduled.append(label)
        return super().schedule_at(time, action, label)

    def step(self):
        event = super().step()
        if event is not None:
            self.stepped.append(event)
        return event


class TestOverridableSeams:
    """``benchmarks/e2e/tracing.py`` measures the engine by subclassing it:
    every event must be dispatched through ``self.step()`` and every
    scheduling through ``self.schedule``/``self.schedule_at``."""

    @staticmethod
    def loaded():
        sim = RecordingSimulator()

        def chain(depth):
            if depth:
                sim.schedule(0.5, lambda: chain(depth - 1), "chain")

        for t in range(1, 21):
            sim.schedule(float(t), lambda: chain(2), "root")
        sim.schedule_at(7.25, lambda: None, "absolute")
        for event in [sim.schedule(float(t) + 0.1, lambda: None, "x") for t in range(5)]:
            sim.cancel(event)
        return sim

    @staticmethod
    def assert_all_seen(sim, executed):
        assert executed == sim.executed_count == len(sim.stepped)
        assert len(sim.scheduled) == (
            sim.executed_count + sim.cancelled_count + sim.pending_count
        )
        order = [(event.time, event.seq) for event in sim.stepped]
        assert order == sorted(order)

    def test_run_dispatches_through_step(self):
        sim = self.loaded()
        self.assert_all_seen(sim, sim.run())
        assert sim.executed_count == 21 + 20 * 2 and sim.pending_count == 0

    def test_run_max_events_dispatches_through_step(self):
        sim = self.loaded()
        assert sim.run(max_events=17) == 17
        self.assert_all_seen(sim, 17)
        assert sim.pending_count > 0

    def test_run_until_dispatches_through_step(self):
        sim = self.loaded()
        self.assert_all_seen(sim, sim.run_until(9.5))
        assert sim.stepped[-1].time <= 9.5 and sim.now == 9.5
        assert sim.pending_count > 0

    def test_run_until_stops_at_the_horizon_behind_a_cancelled_head(self):
        sim = RecordingSimulator()
        head = sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.cancel(head)
        assert sim.run_until(2.0) == 0
        assert sim.stepped == [] and sim.pending_count == 1

    def test_compaction_mid_run_keeps_order_and_runs_survivors_once(self):
        sim = RecordingSimulator()
        ran = []
        events = {
            t: sim.schedule(float(t), lambda t=t: ran.append(t)) for t in range(2, 62)
        }

        def purge():
            # More than half the heap goes at once: cancel() compacts, which
            # rebinds the queue under the running loop.
            queue_before = sim._queue
            for t in range(2, 62):
                if t % 3:
                    sim.cancel(events[t])
            assert sim._queue is not queue_before
            sim.schedule(0.5, lambda: ran.append("late"))

        sim.schedule(1.0, purge)
        self.assert_all_seen(sim, sim.run())
        assert ran == ["late", *range(3, 62, 3)]
        assert sim.pending_count == 0 and not sim._queue


@pytest.fixture
def collector_state():
    """Whatever a test does to the cycle collector, the next test starts
    with the state this one found."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def drive(sim: Simulator, method: str) -> None:
    if method == "run":
        sim.run()
    else:
        sim.run_until(100.0)


@pytest.mark.usefixtures("collector_state")
class TestCollectorPaused:
    """The event loop and BATON's whole-network passes run with the cycle
    collector paused, and hand the caller back the state they found
    (DESIGN.md, "Performance contract")."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("method", ["run", "run_until"])
    def test_actions_see_it_paused_and_the_caller_state_returns(
        self, method, enabled
    ):
        (gc.enable if enabled else gc.disable)()
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: seen.append(gc.isenabled()))
        drive(sim, method)
        assert seen == [False, False, False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("method", ["run", "run_until"])
    def test_state_returns_when_an_action_raises(self, method):
        gc.enable()
        sim = Simulator()

        def boom():
            raise RuntimeError("action failed")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="action failed"):
            drive(sim, method)
        assert gc.isenabled()

    @pytest.mark.parametrize("method", ["run", "run_until"])
    def test_nested_run_does_not_reenable_it(self, method):
        gc.enable()
        sim = Simulator()
        inner = Simulator()
        seen = []
        inner.schedule(1.0, lambda: seen.append(("inner", gc.isenabled())))

        def nested():
            drive(inner, method)
            seen.append(("after inner", gc.isenabled()))

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: seen.append(("outer", gc.isenabled())))
        drive(sim, method)
        assert seen == [("inner", False), ("after inner", False), ("outer", False)]
        assert gc.isenabled()

    # -- BATON's three whole-network passes -----------------------------------

    def test_reconcile(self, monkeypatch):
        from repro.core import BatonNetwork
        from repro.core import restructure

        net = BatonNetwork.build(64, seed=1, bulk=True)
        seen = []
        refresh = restructure.refresh_links_from_map

        def recording(view, peer):
            seen.append(gc.isenabled())
            refresh(view, peer)

        monkeypatch.setattr(restructure, "refresh_links_from_map", recording)
        gc.enable()
        net.reconcile()
        assert seen == [False] * 64
        assert gc.isenabled()

    def test_refresh_replicas(self, monkeypatch):
        from repro.core import BatonNetwork
        from repro.core.network import BatonConfig

        net = BatonNetwork.build(
            64, seed=1, config=BatonConfig(replication=True), bulk=True
        )
        seen = []
        steps = net.replica_refresh_steps

        def recording(address, trace, degraded=None):
            seen.append(gc.isenabled())
            return steps(address, trace, degraded)

        monkeypatch.setattr(net, "replica_refresh_steps", recording)
        gc.enable()
        assert net.refresh_replicas() == 64
        assert seen == [False] * 64
        assert gc.isenabled()

    def test_bulk_build(self, monkeypatch):
        from repro.core import BatonNetwork
        from repro.core import bulk_build

        seen = []
        populate = bulk_build.populate_balanced

        def recording(net, n_peers, keys=None):
            seen.append(gc.isenabled())
            populate(net, n_peers, keys=keys)

        monkeypatch.setattr(bulk_build, "populate_balanced", recording)
        gc.enable()
        assert BatonNetwork.build(64, seed=1, bulk=True).size == 64
        assert seen == [False]
        assert gc.isenabled()

    def test_grown_build_keeps_it_running(self, monkeypatch):
        """The join-by-join growth loop is not a paused region (DESIGN.md
        says why)."""
        from repro.core import BatonNetwork

        seen = []
        join_steps = BatonNetwork.join_steps

        def recording(self, start, trace, degraded=None):
            seen.append(gc.isenabled())
            return join_steps(self, start, trace, degraded)

        monkeypatch.setattr(BatonNetwork, "join_steps", recording)
        gc.enable()
        BatonNetwork.build(16, seed=1)
        assert seen and all(seen)
