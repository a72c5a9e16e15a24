"""The four workloads: seeded inputs, one repeat = set-up + run + checks.

Every input — key lists, the hot/uniform query mix, op scripts, topology
and fault-plan seeds — is derived here from the benchmark seed; the
program under test receives only generated inputs and config objects.
A repeat builds a fresh network, so repeats of one seed must report
identical simulated metrics (``run.py`` checks that they do).

Why these four, and what each is expected to move, is in README.md.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import overlays
from repro.core.invariants import (
    collect_violations,
    collect_violations_sampled,
    tree_height,
)
from repro.core.network import (
    BatonConfig,
    BatonNetwork,
    LoadBalanceConfig,
    LocalityConfig,
)
from repro.experiments.harness import (
    build_baton,
    build_chord,
    build_multiway,
    loaded_keys,
)
from repro.experiments.locality import hot_keys
from repro.net.message import MsgType
from repro.sim.latency import ExponentialLatency
from repro.sim.topology import ClusteredTopology
from repro.util.errors import ProtocolError
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.chaos import build_scenario
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import (
    exact_queries,
    range_queries,
    uniform_keys,
    zipfian_keys,
)

import metrics
from tracing import (
    ARRIVAL,
    JUDGE,
    MAINTENANCE,
    OP_STEP,
    SAMPLE,
    SCHEDULE,
    SEND,
    STEP,
    TracedTopology,
    Tracer,
    TracingSimulator,
    trace_method,
)

clock = time.perf_counter

#: Share of wan_lossy_sessions exact queries aimed at the hot slice (small
#: enough to fit every gateway's route cache); the rest are uniform over
#: the loaded keys (far more owners than any cache holds).
HOT_SHARE = 0.8
#: Size of the pre-drawn list the driver picks exact-query keys from.
QUERY_POOL = 20_000
#: Peers the sampled invariant check visits after every async repeat.
INVARIANT_SAMPLE = 1024
#: Share of the key domain one sync_core range search covers (about two
#: BATON peers' worth at N=1000; the driver's default span, 2M of 1e9).
RANGE_SELECTIVITY = 0.002
#: Network seeds sync_core may try before giving up (see SyncWorkload.setup).
NET_SEED_CANDIDATES = 8

Check = Tuple[bool, str]


@dataclass
class Repeat:
    """What one repeat measured."""

    setup_s: float
    run_s: float
    attempted: int
    #: Operations whose outcome breaks a correctness check (never a
    #: modelled loss — those are ``ok_share``).
    failed: int
    #: Host wall clock per layer (set-up and run phases, sync op blocks).
    phases: Dict[str, float]
    #: The five simulated end-to-end metrics.
    sim: Dict[str, float]
    #: Deterministic per-layer counts (and, for sync_core, the seeded
    #: message means).
    counts: Dict[str, float]
    checks: Dict[str, Check] = field(default_factory=dict)
    #: Query latency sample count behind sim_latency_p50/p99.
    latency_samples: int = 0


def _stored_multiset(net) -> Counter:
    stored: Counter = Counter()
    for peer in net.peers.values():
        stored.update(peer.store)
    return stored


# ---------------------------------------------------------------------------
# Async workloads (BATON on the event-driven runtime)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsyncWorkload:
    name: str
    n_peers: int
    data_per_node: int
    #: ``ConcurrentConfig`` keyword arguments (rates per simulated time unit).
    drive: Dict[str, float]
    replication: bool = False
    cache_size: int = 0
    #: Clustered 4-region WAN under the ``lossy_links`` fault plan, with
    #: the hot/uniform exact-query mix; otherwise one flat exponential link.
    wan: bool = False

    @property
    def crashes(self) -> bool:
        return self.drive.get("fail_fraction", 0.0) > 0

    @property
    def quiet(self) -> bool:
        """No churn and a reliable channel: every op must be answered."""
        return self.drive.get("churn_rate", 0.0) == 0 and not self.wan

    # -- set-up ---------------------------------------------------------------

    def setup(self, seed: int, tracer: Optional[Tracer] = None):
        """Generate inputs, build, anchor replicas, wrap.  Returns
        ``(anet, keys, query_keys, scenario, phases)``."""
        phases: Dict[str, float] = {}
        started = clock()
        keys = uniform_keys(
            self.n_peers * self.data_per_node,
            seed=derive_seed(seed, self.name, "keys"),
        )
        query_keys = keys
        if self.wan:
            hot = hot_keys(keys, self.data_per_node)
            mix = random.Random(derive_seed(seed, self.name, "hot-mix"))
            query_keys = [
                mix.choice(hot) if mix.random() < HOT_SHARE else mix.choice(keys)
                for _ in range(QUERY_POOL)
            ]
        phases["workloads.generators.keys_s"] = clock() - started

        started = clock()
        config = BatonConfig(
            balance=LoadBalanceConfig(
                capacity=max(4 * self.data_per_node, 16), enabled=False
            ),
            replication=self.replication,
            locality=LocalityConfig(cache_size=self.cache_size),
        )
        net = BatonNetwork.build(
            self.n_peers,
            seed=derive_seed(seed, self.name, "net"),
            config=config,
            bulk=True,
            keys=keys,
        )
        phases["core.bulk_build.build_s"] = clock() - started

        started = clock()
        if self.replication:
            net.refresh_replicas()  # anchor every mirror before traffic
        phases["core.replication.anchor_s"] = clock() - started

        started = clock()
        scenario = None
        if self.wan:
            inner = ClusteredTopology(
                seed=derive_seed(seed, self.name, "topology"), regions=4
            )
            if tracer is not None:
                inner = TracedTopology(inner, tracer)
            scenario = build_scenario("lossy_links", duration=self.drive["duration"])
            topology = scenario.fault_plan(
                inner, derive_seed(seed, self.name, "faults")
            )
        else:
            topology = ExponentialLatency(
                1.0, SeededRng(derive_seed(seed, self.name, "latency"))
            )
            if tracer is not None:
                topology = TracedTopology(topology, tracer)
        anet = overlays.get("baton").wrap(
            net,
            sim=TracingSimulator(tracer) if tracer is not None else None,
            topology=topology,
            record_events=False,
            retain_ops=False,
        )
        if tracer is not None:
            trace_method(net.bus, "send", tracer, SEND)
            if anet.faults is not None:
                trace_method(anet.faults, "judge", tracer, JUDGE)
        phases["overlays.registry.wrap_s"] = clock() - started
        return anet, keys, query_keys, scenario, phases

    def setup_only(self, seed: int) -> float:
        """One more ``setup_s`` sample (the built network is discarded)."""
        gc.collect()
        return sum(self.setup(seed)[-1].values())

    # -- one repeat -----------------------------------------------------------

    def repeat(self, seed: int, tracer: Optional[Tracer] = None) -> Repeat:
        gc.collect()
        anet, keys, query_keys, scenario, phases = self.setup(seed, tracer)
        setup_s = sum(phases.values())
        net = anet.net
        bus = anet.bus
        config = ConcurrentConfig(**self.drive)
        driver_seed = derive_seed(seed, self.name, "driver")
        messages_before = bus.stats.total
        by_type_before = Counter(bus.stats.by_type)

        gc.collect()
        if tracer is not None:
            tracer.start()
        started = clock()
        report = run_concurrent_workload(
            anet,
            query_keys,
            config,
            seed=driver_seed,
            repair_at_end=False,
            reconcile_at_end=False,
            scenario=scenario,
        )
        loop_s = clock() - started
        if tracer is not None:
            tracer.stop()
        started = clock()
        repairs = anet.repair_all()
        repair_all_s = clock() - started
        started = clock()
        final_reconcile_msgs = anet.reconcile()
        reconcile_s = clock() - started
        phases["sim.runtime.loop_s"] = loop_s
        phases["sim.runtime.repair_all_s"] = repair_all_s
        phases["sim.runtime.reconcile_s"] = reconcile_s
        run_s = loop_s + repair_all_s + reconcile_s

        attempted = sum(report.submitted.values())
        messages = bus.stats.total - messages_before
        by_type = Counter(bus.stats.by_type)
        by_type.subtract(by_type_before)
        unresolved = anet.in_flight
        not_ok = (
            report.failed
            + (report.exact_total - report.exact_hits)
            + (report.range_total - report.range_complete)
            + unresolved
        )
        expected = Counter(keys)
        expected.update(report.insert_keys_applied)
        keys_lost = sum((expected - _stored_multiset(net)).values())
        violations = collect_violations_sampled(net, INVARIANT_SAMPLE)
        wire_copies = report.retries + report.duplicates

        sim = {
            "ok_share": 1.0 - not_ok / attempted,
            "msgs_per_op": messages / attempted,
            "msgs_per_query": report.messages_per_query,
            "sim_latency_p50": report.query_latency_p50,
            "sim_latency_p99": report.query_latency_p99,
        }
        counts: Dict[str, float] = {
            "sim.engine.events": anet.sim.executed_count,
            "sim.engine.peak_heap": anet.sim.peak_queue_len,
            "sim.engine.cancelled": anet.sim.cancelled_count,
            "sim.runtime.max_in_flight": anet.max_in_flight,
            "sim.runtime.ops_failed": report.failed,
            "sim.runtime.reconcile_msgs": (
                report.reconcile_messages + final_reconcile_msgs
            ),
            "net.bus.messages": messages,
            "core.membership.joins": report.joins_applied,
            "core.membership.leaves": report.leaves_applied,
            "core.membership.fails": report.fails_applied,
            "core.failure.repairs": report.repairs_applied + len(repairs),
            "core.failure.keys_recovered": report.keys_recovered
            + sum(result.keys_recovered for result in repairs),
            "core.replication.replica_msgs": by_type[MsgType.REPLICATE],
            "core.replication.keys_lost": keys_lost,
            "core.cache.hits": report.cache_hits,
            "core.cache.misses": report.cache_misses,
            "core.cache.invalidations": report.cache_invalidations,
            "core.cache.hit_rate": report.cache_hit_rate,
            "sim.topology.stretch_p50": report.latency_stretch_p50,
            "pubsub.deliveries": report.multicasts_delivered,
            "pubsub.subscriptions": report.subscriptions_installed,
            "pubsub.notifications": report.notifications,
            "pubsub.duplicates_suppressed": report.pubsub_duplicates_suppressed,
            "sim.faults.drops": report.drops,
            "sim.faults.duplicates": report.duplicates,
            "sim.faults.delay_spikes": report.delay_spikes,
            "sim.faults.retries": report.retries,
            "sim.faults.timeouts": report.timeouts,
            "sim.faults.gave_up": report.ops_gave_up,
            "sim.faults.amplification": (messages + wire_copies) / messages,
        }
        for mtype in metrics.BUS_MESSAGE_TYPES:
            counts[f"net.bus.by_type.{mtype}"] = by_type[MsgType[mtype]]

        checks: Dict[str, Check] = {
            "unresolved_ops": (unresolved == 0, f"{unresolved} op(s) in flight"),
            "pending_events": (
                anet.sim.pending_count == 0,
                f"{anet.sim.pending_count} event(s) pending",
            ),
            "invariants_sampled": (not violations, "; ".join(violations[:3])),
        }
        broken = unresolved
        if not self.crashes:
            checks["keys_lost"] = (keys_lost == 0, f"{keys_lost} key(s) lost")
            broken += keys_lost
        if self.quiet:
            checks["quiet_network_answers_everything"] = (
                not_ok == 0,
                f"{not_ok} op(s) not fully answered on a quiet network",
            )
            broken += not_ok - unresolved
        return Repeat(
            setup_s=setup_s,
            run_s=run_s,
            attempted=attempted,
            failed=broken,
            phases=phases,
            sim=sim,
            counts=counts,
            checks=checks,
            latency_samples=report.exact_hits + report.range_complete,
        )


def traced_layers(tracer: Tracer) -> Dict[str, float]:
    """The traced repeat's per-layer metrics (self times and call counts)."""
    self_s, calls = tracer.self_s, tracer.calls
    return {
        "sim.engine.schedule_calls": calls[SCHEDULE],
        "sim.engine.schedule_s": self_s[SCHEDULE],
        "sim.engine.pop_self_s": self_s[STEP],
        "sim.topology.samples": calls[SAMPLE],
        "sim.topology.sample_s": self_s[SAMPLE],
        "sim.faults.judged": calls[JUDGE],
        "sim.faults.judge_s": self_s[JUDGE],
        "net.bus.send_s": self_s[SEND],
        "workloads.concurrent.arrivals": calls[ARRIVAL],
        "workloads.concurrent.arrival_self_s": self_s[ARRIVAL],
        "sim.runtime.steps": calls[OP_STEP],
        "sim.runtime.step_self_s": self_s[OP_STEP],
        "sim.runtime.maintenance_actions": calls[MAINTENANCE],
        "sim.runtime.maintenance_self_s": self_s[MAINTENANCE],
        "trace.unattributed_s": tracer.unattributed_s,
    }


# ---------------------------------------------------------------------------
# sync_core (no simulator: the Overlay protocol, three overlays)
# ---------------------------------------------------------------------------

_SYNC_BUILDERS = {
    "baton": lambda n, seed, dpn: build_baton(n, seed, dpn, balance_enabled=True),
    "chord": build_chord,
    "multiway": build_multiway,
}


@dataclass(frozen=True)
class SyncWorkload:
    name: str
    n_peers: int
    data_per_node: int
    #: Ops per overlay, in ``metrics.SYNC_OPS`` order.  Chord gets few
    #: range searches (its ring flood would dominate the script) and few
    #: leave+join pairs (Θ(log² N) finger repair each); BATON's script is
    #: sized to at least half the host time.
    script: Dict[str, Tuple[int, int, int, int, int]]

    def _inputs(self, seed: int, overlay: str, keys: List[int]):
        """The op script for one overlay and the oracle after its writes."""
        n_exact, n_range, n_insert, n_delete, n_pairs = self.script[overlay]

        def sub_seed(label: str) -> int:
            return derive_seed(seed, self.name, overlay, label)

        if overlay == "baton":
            # Zipfian inserts pile onto the low end of the domain, which is
            # what trips BATON's load balancing (baton.balance_events).
            inserts = zipfian_keys(n_insert, seed=sub_seed("inserts"))
        else:
            # The baselines have no balancing to exercise, and skewed median
            # splits only make the multiway join livelock (see ``setup``)
            # likelier.
            inserts = uniform_keys(n_insert, seed=sub_seed("inserts"))
        deletes = random.Random(sub_seed("deletes")).sample(keys, n_delete)
        oracle = Counter(keys)
        oracle.update(inserts)
        oracle.subtract(deletes)
        present = sorted(oracle.elements())
        # One search in ten aims at a key that is (almost surely) absent.
        exact = exact_queries(present, n_exact, seed=sub_seed("exact"), hit_ratio=0.9)
        ranges = range_queries(
            n_range, selectivity=RANGE_SELECTIVITY, seed=sub_seed("ranges")
        )
        return inserts, deletes, n_pairs, exact, ranges, present

    def setup(self, seed: int):
        """Generate scripts and oracles, then grow the three networks join
        by join.  Returns ``(nets, scripts, phases)``.

        The multiway tree's join walk can livelock between an unsplittable
        leaf and its parent while the tree grows around its data
        (``ProtocolError``, about 3 % of seeds at N=1000 — a finding for the
        robustness aim, not an input for a benchmark), so the network seed
        is the first derived candidate on which it does not; multiway is
        built first so that a rejected candidate costs little.
        """
        for attempt in range(NET_SEED_CANDIDATES):
            try:
                return self._setup_once(seed, attempt)
            except ProtocolError:
                if attempt == NET_SEED_CANDIDATES - 1:
                    raise

    def _setup_once(self, seed: int, attempt: int):
        net_seed = derive_seed(seed, self.name, "net", attempt)
        phases: Dict[str, float] = {}
        started = clock()
        keys = loaded_keys(self.n_peers, self.data_per_node, net_seed)
        scripts = {
            overlay: self._inputs(seed, overlay, keys)
            for overlay in metrics.SYNC_OVERLAYS
        }
        phases["workloads.generators.keys_s"] = clock() - started
        nets = {}
        for overlay in ("multiway", "baton", "chord"):
            started = clock()
            nets[overlay] = _SYNC_BUILDERS[overlay](
                self.n_peers, net_seed, self.data_per_node
            )
            phases[f"{overlay}.build_s"] = clock() - started
        return nets, scripts, phases

    def setup_only(self, seed: int) -> float:
        gc.collect()
        return sum(self.setup(seed)[-1].values())

    def repeat(self, seed: int, tracer: Optional[Tracer] = None) -> Repeat:
        gc.collect()
        nets, scripts, phases = self.setup(seed)
        setup_s = sum(phases.values())
        counts: Dict[str, float] = {}

        gc.collect()
        run_s = 0.0
        attempted = 0
        wrong = 0
        messages = 0
        checks: Dict[str, Check] = {}
        baton_hops: List[int] = []
        baton_query_msgs = 0
        baton_queries = 0
        for overlay in metrics.SYNC_OVERLAYS:
            net = nets[overlay]
            inserts, deletes, n_pairs, exact, ranges, present = scripts[overlay]
            before = net.bus.stats.total
            blocks = self._run_script(net, inserts, deletes, n_pairs, exact, ranges)
            messages += net.bus.stats.total - before
            for op, (elapsed, results) in blocks.items():
                attempted += len(results) * (2 if op == "leave_join" else 1)
                run_s += elapsed
                phases[f"{overlay}.{op}.us_per_op"] = elapsed / len(results) * 1e6
                counts[f"{overlay}.{op}.msgs_mean"] = statistics.fmean(
                    map(_OP_MESSAGES[op], results)
                )
            mistakes = _mistakes(blocks, inserts, deletes, exact, ranges, present)
            wrong += len(mistakes)
            checks[f"{overlay}.oracle"] = (
                not mistakes,
                f"{len(mistakes)} wrong: " + ", ".join(mistakes[:3]),
            )
            exact_results = blocks["search_exact"][1]
            range_results = blocks["search_range"][1]
            if overlay == "baton":
                baton_hops = [r.trace.total for r in exact_results]
                baton_query_msgs = sum(baton_hops) + sum(
                    r.trace.total for r in range_results
                )
                baton_queries = len(exact_results) + len(range_results)
                violations = collect_violations(net)
                checks["baton.invariants"] = (
                    not violations,
                    "; ".join(violations[:3]),
                )
                ratio = tree_height(net) / math.log2(net.size)
                counts["baton.height_ratio"] = ratio
                counts["baton.balance_events"] = len(net.stats.balance_events)
                checks["baton.theorem_1_height"] = (
                    ratio <= 1.44,
                    f"height / log2 N = {ratio:.3f} > 1.44",
                )
        sim = {
            "ok_share": 1.0 - wrong / attempted,
            "msgs_per_op": messages / attempted,
            "msgs_per_query": baton_query_msgs / baton_queries,
            "sim_latency_p50": metrics.grouped_percentile(baton_hops, 0.50),
            "sim_latency_p99": metrics.grouped_percentile(baton_hops, 0.99),
        }
        return Repeat(
            setup_s=setup_s,
            run_s=run_s,
            attempted=attempted,
            failed=wrong,
            phases=phases,
            sim=sim,
            counts=counts,
            checks=checks,
            latency_samples=len(baton_hops),
        )

    @staticmethod
    def _run_script(net, inserts, deletes, n_pairs, exact, ranges):
        """Writes and membership first, then reads of the resulting state.

        Each block is timed as a whole; results are kept (and checked
        against the oracle afterwards) so no work can be skipped.
        """
        blocks = {}
        started = clock()
        results = [net.insert(key) for key in inserts]
        blocks["insert"] = (clock() - started, results)
        started = clock()
        results = [net.delete(key) for key in deletes]
        blocks["delete"] = (clock() - started, results)
        started = clock()
        results = []
        for _ in range(n_pairs):
            left = net.leave(net.random_peer_address())
            results.append((left, net.join()))
        blocks["leave_join"] = (clock() - started, results)
        started = clock()
        results = [net.search_exact(key) for key in exact]
        blocks["search_exact"] = (clock() - started, results)
        started = clock()
        results = [net.search_range(low, high) for low, high in ranges]
        blocks["search_range"] = (clock() - started, results)
        return blocks


#: Messages one result of each scripted op cost (a leave+join pair is two).
_OP_MESSAGES = {
    "insert": lambda result: result.total_messages,
    "delete": lambda result: result.total_messages,
    "leave_join": lambda pair: pair[0].total_messages + pair[1].total_messages,
    "search_exact": lambda result: result.trace.total,
    "search_range": lambda result: result.trace.total,
}


def _mistakes(blocks, inserts, deletes, exact, ranges, present) -> List[str]:
    """Every scripted op whose outcome disagrees with the sorted-key oracle."""
    oracle = Counter(present)
    wrong = [
        f"insert {key}"
        for key, result in zip(inserts, blocks["insert"][1])
        if not result.applied
    ]
    wrong += [
        f"delete {key}"
        for key, result in zip(deletes, blocks["delete"][1])
        if not result.applied
    ]
    wrong += [
        f"search_exact {key}"
        for key, result in zip(exact, blocks["search_exact"][1])
        if result.found != (oracle[key] > 0)
    ]
    for (low, high), result in zip(ranges, blocks["search_range"][1]):
        want = present[bisect_left(present, low):bisect_left(present, high)]
        if not result.complete or sorted(result.keys) != want:
            wrong.append(f"search_range [{low}, {high})")
    return wrong


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def build_workloads(smoke: bool = False) -> Dict[str, object]:
    """The four workloads at benchmark scale, or at the smoke test's scale
    (N=256, short windows, gentler churn so a tiny tree stays repairable)."""

    def pick(full, small):
        return small if smoke else full

    n = pick(10_000, 256)
    script = {
        # (search_exact, search_range, insert, delete, leave+join pairs)
        "baton": (6000, 3000, 3000, 1500, 400),
        "chord": (2000, 50, 1000, 500, 40),
        "multiway": (1000, 250, 500, 250, 100),
    }
    if smoke:
        script = {
            name: tuple(max(4, count // 20) for count in row)
            for name, row in script.items()
        }
    return {
        "query_flat": AsyncWorkload(
            "query_flat", n, 20,
            dict(duration=pick(70.0, 10.0), churn_rate=0.0, query_rate=160.0,
                 range_fraction=0.2),
        ),
        "churn_durable": AsyncWorkload(
            "churn_durable", n, 20,
            dict(duration=pick(20.0, 6.0), churn_rate=pick(10.0, 2.0),
                 fail_fraction=0.3, repair_delay=2.0, insert_rate=16.0,
                 query_rate=80.0, range_fraction=0.2,
                 maintenance_interval=pick(10.0, 3.0)),
            replication=True,
        ),
        "wan_lossy_sessions": AsyncWorkload(
            "wan_lossy_sessions", n, 20,
            dict(duration=pick(400.0, 40.0), client_gateways=32, query_rate=24.0,
                 range_fraction=0.1, churn_rate=0.2, insert_rate=0.75,
                 publish_rate=0.4, subscribe_rate=0.2, pubsub_span=10_000_000),
            cache_size=128,
            wan=True,
        ),
        "sync_core": SyncWorkload("sync_core", pick(1000, 128), 20, script),
    }
