"""Tests for the scale refactor: one hop per bulk transfer, the batched
replica-refresh sweep, the latency-stretch metric and opt-in event
logging."""

import pytest

from repro import overlays
from repro.core.network import BatonConfig, BatonNetwork
from repro.multiway.network import MultiwayNetwork
from repro.sim.latency import ConstantLatency, ExponentialLatency, UniformLatency
from repro.sim.runtime import AsyncOverlayRuntime
from repro.sim.topology import ClusteredTopology
from repro.util.rng import SeededRng
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import uniform_keys


class LinkRecorder(ConstantLatency):
    """``ConstantLatency(1.0)`` that records every link it prices."""

    def __init__(self):
        super().__init__(1.0)
        self.links = []

    def sample(self, src, dst, *, size=0.0):
        self.links.append((src, dst))
        return 1.0


class TestLeaveHandoverHops:
    def test_baton_leaf_handover_is_one_hop(self):
        """A BATON leave's key handover costs one priced hop to the
        absorbing parent, however many keys it carries."""
        from repro.core import leave as leave_protocol

        runs = {}
        for load in (5, 200):
            topology = LinkRecorder()
            anet = AsyncOverlayRuntime(
                BatonNetwork.build(20, seed=3), topology=topology
            )
            victim = next(
                peer
                for peer in anet.net.peers.values()
                if leave_protocol.can_depart_simply(peer)
            )
            victim.store.extend([victim.range.low] * load)
            handover = (victim.address, victim.parent.address)
            future = anet.submit_leave(victim.address)
            anet.drain()
            assert future.succeeded
            assert topology.links.count(handover) == 1
            assert future.transit == future.hops
            runs[load] = (future.hops, topology.links)
        assert runs[200] == runs[5]

    def test_multiway_detach_handover_is_one_hop(self):
        """The multiway leaf-detach store merge is one priced hop."""
        runs = {}
        for load in (5, 200):
            net = MultiwayNetwork(seed=2)
            net.bootstrap()
            for _ in range(11):
                net.join()
            topology = LinkRecorder()
            anet = overlays.get("multiway").wrap(net, topology=topology)
            victim_address = next(
                address
                for address, node in sorted(net.peers.items())
                if node.is_leaf
            )
            net.peers[victim_address].store.extend(
                [net.peers[victim_address].range.low] * load
            )
            future = anet.submit_leave(victim_address)
            anet.drain()
            assert future.succeeded
            sent = [link for link in topology.links if link[0] == victim_address]
            assert len(sent) == 1  # the store handover to the absorber
            assert future.transit == future.hops
            runs[load] = (future.hops, topology.links)
        assert runs[200] == runs[5]


class TestBatchedReplicaRefresh:
    def build(self, n_peers=25, seed=9, topology=None):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(
                n_peers, seed=seed, config=BatonConfig(replication=True)
            ),
            topology=topology or ConstantLatency(1.0),
        )
        anet.net.bulk_load(uniform_keys(200, seed=4))
        return anet

    def mirrors(self, net):
        from collections import Counter

        counter = Counter()
        for peer in net.peers.values():
            for keys in peer.replicas.values():
                counter.update(keys)
        return counter

    def stored(self, net):
        from collections import Counter

        counter = Counter()
        for peer in net.peers.values():
            counter.update(peer.store)
        return counter

    def test_sweep_mirrors_every_store_with_one_future(self):
        anet = self.build()
        future = anet.submit_replica_refresh_sweep()
        anet.drain()
        assert future.succeeded
        assert self.mirrors(anet.net) == self.stored(anet.net)
        # one future for the whole round, not one per peer
        assert sum(1 for op in anet.ops if "refresh" in op.kind) == 1
        assert future.hops > 0 and future.result > 0

    def test_sweep_message_count_matches_per_peer_refresh(self):
        sweep_net = self.build()
        perpeer_net = self.build()
        sweep_future = sweep_net.submit_replica_refresh_sweep()
        sweep_net.drain()
        futures = perpeer_net.submit_replica_refresh()
        perpeer_net.drain()
        assert sweep_future.succeeded and all(f.succeeded for f in futures)
        assert sweep_future.result == sum(f.result for f in futures)
        assert sweep_net.bus.stats.total == perpeer_net.bus.stats.total
        assert self.mirrors(sweep_net.net) == self.mirrors(perpeer_net.net)

    def test_sweep_prices_one_hop_per_refresh(self):
        anet = self.build()
        future = anet.submit_replica_refresh_sweep()
        anet.drain()
        assert future.succeeded
        # Every refresh message crosses its link once, at 1.0 apiece.
        assert future.hops == future.result
        assert future.transit == future.hops * 1.0

    def test_sweep_capability_gated(self):
        from repro.util.errors import CapabilityError

        anet = overlays.get("chord").build(8, seed=1).wrap()
        with pytest.raises(CapabilityError):
            anet.submit_replica_refresh_sweep()


class TestLatencyStretch:
    def run_workload(self, topology=None, **config_kwargs):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(60, seed=5),
            topology=topology or ConstantLatency(1.0),
        )
        keys = uniform_keys(400, seed=6)
        anet.net.bulk_load(keys)
        defaults = dict(duration=30.0, churn_rate=0.0, query_rate=6.0)
        defaults.update(config_kwargs)
        report = run_concurrent_workload(
            anet, keys, ConcurrentConfig(**defaults), seed=5
        )
        return anet, report

    def test_stretch_reported_and_ordered(self):
        _anet, report = self.run_workload()
        assert report.latency_stretch_p50 > 0
        assert report.latency_stretch_p99 >= report.latency_stretch_p50
        assert "latency stretch" in "\n".join(report.summary_lines())

    def test_stretch_is_at_least_one_hop_on_constant_latency(self):
        # With every link costing 1.0, transit-minus-ingress is the overlay
        # hop count and the direct link is 1.0, so stretch == routed hops
        # per query >= 1 for any query not answered at its entry peer.
        _anet, report = self.run_workload()
        assert report.latency_stretch_p50 >= 1.0

    def test_stretch_independent_of_inter_region_scale(self):
        """Stretch is a ratio: doubling all link costs leaves it put."""
        reports = {}
        for scale in (1.0, 4.0):
            topology = ClusteredTopology(
                7,
                regions=3,
                intra_delay=0.5 * scale,
                inter_delay=5.0 * scale,
                jitter=0.0,
                asymmetry=0.0,
            )
            _anet, report = self.run_workload(topology=topology)
            reports[scale] = report
        assert reports[1.0].latency_stretch_p50 == pytest.approx(
            reports[4.0].latency_stretch_p50, rel=1e-6
        )
        # ... while the absolute latency did scale.
        assert (
            reports[4.0].query_latency_p50
            > 2 * reports[1.0].query_latency_p50
        )


class TestDirectDelay:
    def test_scalar_models_use_expectation_without_consuming_stream(self):
        rng = SeededRng(3)
        model = UniformLatency(1.0, 3.0, rng)
        before = model.sample(1, 2)  # consumes
        assert model.direct_delay(1, 2) == pytest.approx(2.0)
        assert model.direct_delay(None, 5) == pytest.approx(2.0)
        exp = ExponentialLatency(2.5, SeededRng(4))
        assert exp.direct_delay(1, 2) == pytest.approx(2.5)
        assert ConstantLatency(1.5).direct_delay(9, 9) == 1.5
        assert before >= 1.0  # sanity on the consumed draw

    def test_clustered_direct_delay_is_unjittered_base(self):
        topology = ClusteredTopology(
            5, regions=3, intra_delay=0.5, inter_delay=4.0, jitter=0.5
        )
        addresses = list(range(1, 40))
        src = addresses[0]
        same = next(
            a for a in addresses[1:]
            if topology.region_of(a) == topology.region_of(src)
        )
        far = next(
            a for a in addresses[1:]
            if topology.region_of(a) != topology.region_of(src)
        )
        assert topology.direct_delay(src, same) == pytest.approx(0.5)
        expected = 4.0 * topology._pair_factor(
            topology.region_of(src), topology.region_of(far)
        )
        assert topology.direct_delay(src, far) == pytest.approx(expected)
        # deterministic: repeated queries identical (no jitter consumed)
        assert topology.direct_delay(src, far) == topology.direct_delay(src, far)

    def test_clustered_direct_delay_leaves_the_jitter_stream_alone(self):
        """Reading the stretch denominator must not perturb the run it
        measures: interleaved ``direct_delay`` calls leave every later
        ``sample`` exactly where an untouched twin draws it."""
        probed = ClusteredTopology(8, regions=3, jitter=0.4)
        untouched = ClusteredTopology(8, regions=3, jitter=0.4)
        for src, dst in [(1, 2), (3, 9), (None, 4), (7, 7), (2, 11)]:
            for _ in range(3):
                probed.direct_delay(src, dst)
                probed.direct_delay(dst, src)
            assert probed.sample(src, dst) == untouched.sample(src, dst)


class TestOptInEventLog:
    def test_event_log_off_by_request_same_outcomes(self):
        def run(record: bool):
            anet = AsyncOverlayRuntime(
                BatonNetwork.build(40, seed=8),
                topology=ExponentialLatency(1.0, SeededRng(2).child("lat")),
                record_events=record,
                retain_ops=record,
            )
            keys = uniform_keys(200, seed=3)
            anet.net.bulk_load(keys)
            report = run_concurrent_workload(
                anet,
                keys,
                ConcurrentConfig(duration=20.0, churn_rate=0.5, query_rate=4.0),
                seed=9,
            )
            return anet, report

        on_net, on_report = run(True)
        off_net, off_report = run(False)
        assert on_net.event_log and not off_net.event_log
        assert on_net.ops and not off_net.ops
        # Recording is pure observation: the simulated run is identical.
        assert on_report == off_report
        assert on_net.sim.executed_count == off_net.sim.executed_count


class TestScaleProfile:
    def test_stretch_distinct_from_latency(self):
        # Regression: the client ingress leg used to leak into the stretch
        # numerator, and with a unit-mean direct link that made stretch_p50
        # a byte-for-byte copy of p50 in every committed benchmark row.
        # Net of the ingress leg, stretch is strictly the shorter quantity.
        # The window: bulk N=40, 20 keys per peer, exponential unit-mean
        # links, churn 1.0 and 16 queries per unit for 20 units.
        from repro.experiments.harness import build_loaded, loaded_keys
        from repro.util.rng import derive_seed

        net = build_loaded("baton", 40, 0, 20, bulk=True)
        rng = SeededRng(derive_seed(0, "scale-profile"))
        anet = overlays.get("baton").wrap(
            net,
            topology=ExponentialLatency(mean=1.0, rng=rng.child("latency")),
            record_events=False,
            retain_ops=False,
        )
        config = ConcurrentConfig(
            duration=20.0,
            churn_rate=1.0,
            query_rate=16.0,
            range_fraction=0.2,
            min_peers=20,
        )
        report = run_concurrent_workload(
            anet, loaded_keys(40, 20, 0), config, seed=derive_seed(0, "driver")
        )
        assert report.latency_stretch_p50 > 0
        assert report.latency_stretch_p50 < report.query_latency_p50
