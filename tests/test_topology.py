"""Tests for the topology-aware transport seam (repro.sim.topology).

Three properties anchor the redesign:

* **Determinism** — same seed + placement rules => identical link delays
  for identical call sequences, and placements that do not depend on the
  order links are first used.
* **Heterogeneity** — clustered topologies genuinely price links by their
  endpoints: intra-region is cheap, inter-region expensive, and the two
  directions of a region pair differ (asymmetric WAN routes).
* **Serialized equivalence survives** — running the async runtimes under a
  clustered topology, one operation at a time, still sends message-for-
  message what the synchronous facades send, for every registered overlay.
"""

import pytest

from repro import overlays
from repro.sim.latency import ConstantLatency, ExponentialLatency
from repro.sim.topology import (
    ClusteredTopology,
    CoordinateTopology,
    Hop,
    available_topologies,
    make_topology,
)
from repro.util.rng import SeededRng
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import uniform_keys

ALL = overlays.available()


def cross_region_pair(topology: ClusteredTopology):
    """Two addresses placed in different regions (deterministic for a seed)."""
    first = 1
    for address in range(2, 64):
        if topology.region_of(address) != topology.region_of(first):
            return first, address
    raise AssertionError("all probed addresses landed in one region")


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ClusteredTopology(5),
            lambda: CoordinateTopology(5),
            lambda: make_topology("exponential", seed=5),
        ],
    )
    def test_same_seed_same_delays(self, factory):
        first, second = factory(), factory()
        calls = [(1, 2), (2, 1), (3, 9), (None, 4), (7, 7), (1, 2)]
        for src, dst in calls:
            assert first.sample(src, dst) == second.sample(src, dst)

    def test_placements_do_not_depend_on_query_order(self):
        forward = ClusteredTopology(9)
        backward = ClusteredTopology(9)
        addresses = list(range(1, 40))
        placed_forward = {a: forward.region_of(a) for a in addresses}
        placed_backward = {a: backward.region_of(a) for a in reversed(addresses)}
        assert placed_forward == placed_backward

    def test_coordinate_placements_stable(self):
        topology = CoordinateTopology(3)
        assert topology.placement(17) == topology.placement(17)
        x, y = topology.placement(17)
        assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0


class TestClusteredHeterogeneity:
    def test_intra_cheaper_than_inter(self):
        topology = ClusteredTopology(
            2, regions=3, intra_delay=1.0, inter_delay=10.0, jitter=0.0, asymmetry=0.1
        )
        src, dst = cross_region_pair(topology)
        same = next(
            a
            for a in range(2, 64)
            if a != src and topology.region_of(a) == topology.region_of(src)
        )
        assert topology.sample(src, same) < topology.sample(src, dst)

    def test_link_delays_are_asymmetric(self):
        """The regression the redesign exists for: delay depends on the
        ordered (src, dst) pair, not on a global scalar."""
        topology = ClusteredTopology(
            2, regions=4, intra_delay=1.0, inter_delay=10.0, jitter=0.0, asymmetry=0.2
        )
        src, dst = cross_region_pair(topology)
        forward = topology.sample(src, dst)
        reverse = topology.sample(dst, src)
        assert forward != reverse
        # and with zero jitter, each direction is a stable per-link price
        assert topology.sample(src, dst) == forward
        assert topology.sample(dst, src) == reverse

    def test_client_ingress_is_local(self):
        topology = ClusteredTopology(
            2, regions=4, intra_delay=1.0, inter_delay=10.0, jitter=0.0
        )
        # src=None is normalized to the destination's own placement.
        assert topology.sample(None, 5) == topology.intra_delay

    def test_bandwidth_adds_serialization_time(self):
        topology = ClusteredTopology(
            2,
            regions=3,
            intra_delay=1.0,
            inter_delay=10.0,
            jitter=0.0,
            asymmetry=0.0,
            intra_bandwidth=4.0,
            inter_bandwidth=2.0,
        )
        src, dst = cross_region_pair(topology)
        assert topology.sample(src, dst, size=8.0) == pytest.approx(10.0 + 8.0 / 2.0)
        assert topology.sample(src, dst) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusteredTopology(0, regions=0)
        with pytest.raises(ValueError):
            ClusteredTopology(0, intra_delay=-1.0)
        with pytest.raises(ValueError):
            ClusteredTopology(0, asymmetry=1.5)
        with pytest.raises(ValueError):
            ClusteredTopology(0, inter_bandwidth=0.0)


class TestScalarDegenerate:
    def test_scalar_models_ignore_the_link(self):
        model = ConstantLatency(2.0)
        assert model.sample(1, 2) == model.sample(9, 9) == model.sample(None, None)

    def test_scalar_models_have_no_bandwidth(self):
        model = ConstantLatency(2.0)
        assert model.sample(1, 2, size=1000.0) == 2.0

    def test_exponential_link_blind_but_seeded(self):
        a = ExponentialLatency(1.0, SeededRng(4))
        b = ExponentialLatency(1.0, SeededRng(4))
        assert [a.sample(1, 2) for _ in range(20)] == [
            b.sample(99, 1) for _ in range(20)
        ]


class TestFactory:
    def test_choices_cover_scalars_and_placements(self):
        names = available_topologies()
        assert "clustered" in names and "coordinate" in names
        for name in names:
            topology = make_topology(name, seed=3)
            assert topology.sample(1, 2) >= 0.0

    def test_params_forwarded(self):
        topology = make_topology("clustered", seed=3, inter_delay=42.0, jitter=0.0)
        assert topology.inter_delay == 42.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="clustered"):
            make_topology("smoke-signals")


class TestHop:
    def test_defaults(self):
        hop = Hop(1, 2)
        assert hop.size == 1.0
        assert Hop(None, 2).src is None

    def test_runtime_rejects_non_hop_yields(self):
        anet = overlays.get("baton").build(8, seed=1).wrap()

        def bad_steps(start, trace, degraded):
            yield 1.5  # a pre-redesign float delay

        anet.net.bad_steps = bad_steps
        with pytest.raises(TypeError, match="per-link"):
            anet._submit("bad", "bad_steps", anet.net.addresses()[0])
            anet.drain()


class TestSerializedEquivalenceUnderClusteredTopology:
    """The conformance pin: per-link delays stretch the clock, never the
    message sequence, when operations are serialized."""

    @pytest.mark.parametrize("name", ALL)
    def test_queries_match_sync(self, name):
        entry = overlays.get(name)
        sync = entry.build(30, seed=3)
        anet = entry.wrap(
            entry.build(30, seed=3), topology=ClusteredTopology(11, inter_delay=8.0)
        )
        keys = uniform_keys(60, seed=9)
        sync.bulk_load(keys)
        anet.net.bulk_load(keys)
        for key in keys[:20]:
            expected = sync.search_exact(key)
            future = anet.submit_search_exact(key)
            anet.drain()
            assert future.succeeded
            assert future.result.found is expected.found is True
            assert future.result.owner == expected.owner
            assert future.trace.total == expected.trace.total
        for low in (10**8, 6 * 10**8):
            expected = sync.search_range(low, low + 10**8)
            future = anet.submit_search_range(low, low + 10**8)
            anet.drain()
            assert future.succeeded
            assert future.result.owners == expected.owners
            assert future.result.keys == expected.keys
            assert future.result.complete is expected.complete is True
            assert future.trace.total == expected.trace.total

    @pytest.mark.parametrize("name", ALL)
    def test_membership_matches_sync(self, name):
        entry = overlays.get(name)
        sync = entry.build(25, seed=6)
        anet = entry.wrap(
            entry.build(25, seed=6), topology=ClusteredTopology(11, inter_delay=8.0)
        )
        for _ in range(6):
            expected = sync.join()
            future = anet.submit_join()
            anet.drain()
            assert future.succeeded
            assert future.result.address == expected.address
            assert future.result.parent == expected.parent
            assert future.result.total_messages == expected.total_messages
        for index in (5, 2, 9):
            victim = sync.addresses()[index]
            expected = sync.leave(victim)
            future = anet.submit_leave(victim)
            anet.drain()
            assert future.succeeded
            assert future.result.replacement == expected.replacement
            assert future.result.total_messages == expected.total_messages

    @pytest.mark.parametrize("name", ALL)
    def test_transit_equals_latency_without_queueing(self, name):
        anet = overlays.get(name).build(20, seed=2).wrap(
            topology=ClusteredTopology(7)
        )
        anet.net.bulk_load(uniform_keys(40, seed=3))
        future = anet.submit_search_exact(uniform_keys(40, seed=3)[0])
        anet.drain()
        assert future.succeeded
        assert future.transit == pytest.approx(future.latency)
        assert future.transit > 0.0


class TestWorkloadIntegration:
    def run_workload(self, **config_kwargs):
        anet = overlays.get("baton").build(40, seed=1).wrap(
            topology=ClusteredTopology(5, inter_delay=6.0)
        )
        keys = uniform_keys(400, seed=2)
        anet.net.bulk_load(keys)
        config = ConcurrentConfig(
            duration=30.0, churn_rate=0.5, query_rate=4.0, **config_kwargs
        )
        return anet, run_concurrent_workload(anet, keys, config, seed=9)

    def test_report_accounts_transit_time(self):
        _anet, report = self.run_workload()
        assert report.transit_time_total > 0.0
        assert report.query_transit_p50 <= report.query_transit_p99
        assert report.query_transit_mean > 0.0
        text = "\n".join(report.summary_lines())
        assert "transit time" in text

    def test_maintenance_interval_sweeps_in_window(self):
        _anet, report = self.run_workload(maintenance_interval=5.0)
        assert report.reconcile_sweeps >= 30.0 / 5.0 - 1
        assert "reconcile sweep" in "\n".join(report.summary_lines())

    def test_maintenance_respects_capability(self):
        anet = overlays.get("chord").build(20, seed=1).wrap(
            topology=ClusteredTopology(5)
        )
        keys = uniform_keys(100, seed=2)
        anet.net.bulk_load(keys)
        config = ConcurrentConfig(
            duration=20.0, churn_rate=0.0, query_rate=4.0, maintenance_interval=5.0
        )
        report = run_concurrent_workload(anet, keys, config, seed=4)
        assert report.reconcile_sweeps == 0  # chord advertises no reconcile

    def test_maintenance_interval_validated(self):
        with pytest.raises(ValueError):
            ConcurrentConfig(maintenance_interval=-1.0)

    def test_update_deliveries_priced_like_single_messages(self):
        """Table refreshes pay the same size-1 serialization term as any
        routed hop, so bandwidth-limited links delay both alike."""
        from repro.sim.topology import Topology

        sizes = []

        class Recorder(Topology):
            def link_delay(self, src, dst):
                return 1.0

            def sample(self, src, dst, *, size=0.0):
                sizes.append(size)
                return super().sample(src, dst, size=size)

        anet = overlays.get("baton").build(15, seed=2).wrap(topology=Recorder())
        anet.submit_join()
        anet.drain()
        assert sizes  # hops and update deliveries both went through sample
        assert all(size == 1.0 for size in sizes)

    def test_clustered_runs_replay_deterministically(self):
        first_net, first = self.run_workload()
        second_net, second = self.run_workload()
        assert first_net.event_log == second_net.event_log
        assert first == second
