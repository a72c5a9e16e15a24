"""Tests for the adjacent-replica durability extension.

Covers the synchronous write-through/refresh/restore protocol and the
async path the event-driven runtime lifts from the same step generators:
serialized equivalence (same messages, same mirrors, same survivors as the
synchronous network), one priced hop per transfer, and
the zero-key-loss guarantee for serialized crash+repair runs — including a
crash right after a join, a leave or a transplant moved keys.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BatonConfig, BatonNetwork, check_invariants
from repro.core import replication
from repro.core.leave import can_depart_simply
from repro.sim.faults import FaultPlan
from repro.sim.latency import ConstantLatency
from repro.sim.runtime import AsyncOverlayRuntime
from repro.sim.topology import ClusteredTopology
from repro.util.errors import ProtocolError
from repro.workloads.generators import uniform_keys


def replicated_net(n_peers=30, seed=3) -> BatonNetwork:
    config = BatonConfig(replication=True)
    return BatonNetwork.build(n_peers, seed=seed, config=config)


def stored_multiset(net: BatonNetwork) -> Counter:
    counter: Counter = Counter()
    for peer in net.peers.values():
        counter.update(peer.store)
    return counter


def mirrored_multiset(net: BatonNetwork) -> Counter:
    counter: Counter = Counter()
    for peer in net.peers.values():
        for mirror in peer.replicas.values():
            counter.update(mirror)
    return counter


def replicated_async(
    n_peers=30, seed=3, topology=None
) -> AsyncOverlayRuntime:
    net = replicated_net(n_peers=n_peers, seed=seed)
    if topology is None:
        topology = ConstantLatency(1.0)
    return AsyncOverlayRuntime(net, topology=topology)


class TestWriteThrough:
    def test_insert_mirrors_at_adjacent(self):
        net = replicated_net()
        result = net.insert(123_456)
        owner = net.peer(result.owner)
        holder = replication.replica_holder(net, owner)
        assert holder is not None
        assert 123_456 in holder.replicas[owner.address]

    def test_delete_unmirrors(self):
        net = replicated_net()
        result = net.insert(9_999)
        owner = net.peer(result.owner)
        holder = replication.replica_holder(net, owner)
        net.delete(9_999)
        assert 9_999 not in holder.replicas.get(owner.address, [])

    def test_replication_costs_one_message_per_update(self):
        net = replicated_net()
        result = net.insert(55_555)
        from repro.net.message import MsgType

        assert result.trace.count(MsgType.REPLICATE) == 1

    def test_disabled_by_default(self):
        net = BatonNetwork.build(10, seed=1)
        net.insert(42)
        assert all(not p.replicas for p in net.peers.values())


class TestAntiEntropy:
    def test_refresh_mirrors_every_store(self):
        net = replicated_net()
        keys = uniform_keys(200, seed=2)
        net.bulk_load(keys)
        messages = net.refresh_replicas()
        assert messages == net.size
        mirrored = Counter()
        for peer in net.peers.values():
            for replica in peer.replicas.values():
                mirrored.update(replica)
        assert mirrored == stored_multiset(net)

    def test_refresh_noop_when_disabled(self):
        net = BatonNetwork.build(10, seed=1)
        assert net.refresh_replicas() == 0


class TestRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_failed_leaf_data_recovered(self, seed):
        net = replicated_net(n_peers=40, seed=seed)
        keys = uniform_keys(400, seed=seed + 1)
        for key in keys:
            net.insert(key)
        before = stored_multiset(net)
        victim = next(a for a, p in net.peers.items() if p.is_leaf)
        net.fail(victim)
        net.repair(victim)
        check_invariants(net)
        assert stored_multiset(net) == before

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_failed_internal_data_recovered(self, seed):
        net = replicated_net(n_peers=40, seed=seed)
        keys = uniform_keys(400, seed=seed + 1)
        for key in keys:
            net.insert(key)
        before = stored_multiset(net)
        victim = next(a for a, p in net.peers.items() if not p.is_leaf)
        net.fail(victim)
        net.repair(victim)
        check_invariants(net)
        assert stored_multiset(net) == before

    def test_restore_whose_absorber_vanished_keeps_the_mirror(self):
        """The holder gives the mirror up only to a reply it can send: an
        absorber gone while the request travels leaves it in place."""
        net = replicated_net(n_peers=30, seed=5)
        for key in uniform_keys(300, seed=2):
            net.insert(key)
        victim = next(a for a, p in sorted(net.peers.items()) if len(p.store))
        net.fail(victim)
        ghost = net.ghosts[victim]
        holder = net.peers[ghost.replica_anchor]
        absorber = next(
            p for a, p in sorted(net.peers.items()) if a != holder.address
        )
        steps = replication.restore_from_replica_steps(net, ghost, absorber)
        request = next(steps)
        assert (request.src, request.dst) == (absorber.address, holder.address)
        net.unregister_peer(absorber.address)
        with pytest.raises(StopIteration) as stop:
            next(steps)
        assert stop.value.value == 0
        assert ghost.address in holder.replicas

    def test_recovery_after_churn_with_refresh(self):
        net = replicated_net(n_peers=40, seed=9)
        for key in uniform_keys(300, seed=5):
            net.insert(key)
        import random

        mix = random.Random(7)
        for _ in range(15):
            net.leave(mix.choice(net.addresses()))
            net.join()
        net.refresh_replicas()  # anti-entropy re-anchors mirrors
        before = stored_multiset(net)
        victim = mix.choice(net.addresses())
        net.fail(victim)
        net.repair(victim)
        check_invariants(net)
        assert stored_multiset(net) == before

    def test_searches_find_recovered_keys(self):
        net = replicated_net(n_peers=30, seed=11)
        keys = uniform_keys(200, seed=6)
        for key in keys:
            net.insert(key)
        victim = net.random_peer_address()
        lost = list(net.peer(victim).store)
        net.fail(victim)
        net.repair(victim)
        for key in lost:
            assert net.search_exact(key).found, key


def loaded_net(seed: int) -> BatonNetwork:
    """40 replicated peers fed 300 keys one insert at a time, no refresh."""
    net = replicated_net(n_peers=40, seed=seed)
    for key in uniform_keys(300, seed=seed + 1):
        net.insert(key)
    return net


def crash_and_repair(net: BatonNetwork, victim) -> None:
    net.fail(victim)
    net.repair_all()
    check_invariants(net)


# Serialized hand-overs, each followed by the crash that exposes a mirror
# left behind: each runs one membership change and names its victim.


def leaf_leaves_then_absorber(net: BatonNetwork):
    leaf = next(
        peer
        for _, peer in sorted(net.peers.items())
        if can_depart_simply(peer) and len(peer.store)
    )
    absorber = leaf.parent.address
    net.leave(leaf.address)
    return absorber


def mirror_holder_leaves_then_owner(net: BatonNetwork):
    leaf, owner = next(
        (peer, owner)
        for _, peer in sorted(net.peers.items())
        if can_depart_simply(peer)
        for owner, mirror in sorted(peer.replicas.items())
        if mirror and owner != peer.parent.address
    )
    net.leave(leaf.address)
    return owner


def join_then_newcomer(net: BatonNetwork):
    newcomer = net.join().address
    while not len(net.peer(newcomer).store):
        newcomer = net.join().address
    return newcomer


def internal_leaves_then_replacement(net: BatonNetwork):
    internal = next(
        address
        for address, peer in sorted(net.peers.items())
        if not peer.is_leaf and peer.parent is not None
    )
    return net.leave(internal).replacement


def keys_lost(scenario, seed: int) -> int:
    """Keys a crash right after ``scenario``'s hand-over loses, once
    repaired, in :func:`loaded_net` ``(seed)``."""
    net = loaded_net(seed)
    before = stored_multiset(net)
    crash_and_repair(net, scenario(net))
    return sum((before - stored_multiset(net)).values())


SERIALIZED_CASES = (
    leaf_leaves_then_absorber,
    mirror_holder_leaves_then_owner,
    join_then_newcomer,
    internal_leaves_then_replacement,
)


class TestMirrorFollowsTheStore:
    """DESIGN.md, "Durability contract": every membership change hands its
    keys over through one step that keeps the mirrors exact, so a
    serialized crash right after it loses zero keys."""

    @pytest.mark.parametrize("seed", range(4))
    def test_leaf_leave_then_absorber_crash_loses_zero_keys(self, seed):
        assert keys_lost(leaf_leaves_then_absorber, seed) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_leaf_holding_a_mirror_leaves_then_owner_crash_loses_zero_keys(
        self, seed
    ):
        assert keys_lost(mirror_holder_leaves_then_owner, seed) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_join_then_newcomer_crash_loses_zero_keys(self, seed):
        assert keys_lost(join_then_newcomer, seed) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_internal_leave_then_replacement_crash_loses_zero_keys(self, seed):
        assert keys_lost(internal_leaves_then_replacement, seed) == 0

    def test_a_leave_keeps_every_key_mirrored_once(self):
        net = loaded_net(0)
        for scenario in (leaf_leaves_then_absorber, internal_leaves_then_replacement):
            scenario(net)
            assert mirrored_multiset(net) == stored_multiset(net)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 1000),
        n_peers=st.integers(3, 12),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["join", "leave", "insert", "insert", "delete", "fail"]
                ),
                st.integers(0, 10**9 - 1),
            ),
            min_size=20,
            max_size=80,
        ),
    )
    def test_serialized_ops_keep_every_key_mirrored_once(self, seed, n_peers, ops):
        """After every op of a serialized sync run — joins, leaves, inserts,
        deletes, and a crash repaired then refreshed — every stored key is
        mirrored exactly once and none is lost."""
        net = replicated_net(n_peers=n_peers, seed=seed)
        oracle: Counter = Counter()
        for op, value in ops:
            addresses = net.addresses()
            if op == "join" and net.size < 16:
                try:
                    net.join()
                except ProtocolError:
                    # ROADMAP 2(a)/2(g): a data-grown join stalls once a
                    # range is too narrow to split.  Any other failed join is
                    # a finding; this one ends the run, mirrors exact.
                    assert not all(p.range.can_split for p in net.peers.values())
                    assert mirrored_multiset(net) == stored_multiset(net) == oracle
                    return
            elif op == "leave" and net.size > 2:
                net.leave(addresses[value % len(addresses)])
            elif op == "insert":
                net.insert(value + 1)
                oracle[value + 1] += 1
            elif op == "delete" and oracle:
                key = sorted(oracle)[value % len(oracle)]
                assert net.delete(key).applied
                oracle[key] -= 1
                oracle = +oracle
            elif op == "fail" and net.size > 2:
                crash_and_repair(net, addresses[value % len(addresses)])
                net.refresh_replicas()
            assert mirrored_multiset(net) == stored_multiset(net), op
            assert stored_multiset(net) == oracle, op
        check_invariants(net)


class TestAsyncSerializedEquivalence:
    """The async replication path vs. the synchronous network.

    With constant latency and one operation in flight at a time, the
    lifted step generators send exactly the messages the synchronous
    protocol sends and leave identical stores and mirrors behind.
    """

    def test_insert_delete_match_sync(self):
        sync = replicated_net(n_peers=40, seed=5)
        anet = replicated_async(n_peers=40, seed=5)
        keys = uniform_keys(30, seed=8)
        for key in keys:
            expected = sync.insert(key)
            future = anet.submit_insert(key)
            anet.drain()
            assert future.succeeded
            assert future.trace.total == expected.trace.total
        for key in keys[::3]:
            expected = sync.delete(key)
            future = anet.submit_delete(key)
            anet.drain()
            assert future.succeeded
            assert future.result.applied is expected.applied
            assert future.trace.total == expected.trace.total
        assert stored_multiset(anet.net) == stored_multiset(sync)
        assert mirrored_multiset(anet.net) == mirrored_multiset(sync)
        assert anet.bus.stats.total == sync.bus.stats.total

    def test_refresh_matches_sync(self):
        sync = replicated_net(n_peers=30, seed=9)
        anet = replicated_async(n_peers=30, seed=9)
        keys = uniform_keys(200, seed=4)
        sync.bulk_load(keys)
        anet.net.bulk_load(keys)
        sync_messages = sync.refresh_replicas()
        futures = anet.submit_replica_refresh()
        anet.drain()
        assert all(f.succeeded for f in futures)
        assert sum(f.result for f in futures) == sync_messages
        assert mirrored_multiset(anet.net) == mirrored_multiset(sync)
        assert mirrored_multiset(anet.net) == stored_multiset(anet.net)

    def test_crash_repair_loses_zero_keys(self):
        """Acceptance: a serialized crash+repair run loses zero keys."""
        anet = replicated_async(n_peers=40, seed=7)
        for key in uniform_keys(300, seed=2):
            future = anet.submit_insert(key)
            anet.drain()
            assert future.succeeded
        before = stored_multiset(anet.net)
        for seed_step, victim_rank in enumerate((0, 7, 3)):
            victim = sorted(anet.net.peers)[victim_rank]
            fail_future = anet.submit_fail(victim)
            anet.drain()
            assert fail_future.succeeded
            results = anet.repair_all()
            assert results and results[-1].failed == victim
            check_invariants(anet.net)
            assert stored_multiset(anet.net) == before, f"step {seed_step}"

    def test_crash_repair_matches_sync_messages(self):
        sync = replicated_net(n_peers=40, seed=11)
        anet = replicated_async(n_peers=40, seed=11)
        keys = uniform_keys(200, seed=3)
        for key in keys:
            sync.insert(key)
            anet.submit_insert(key)
            anet.drain()
        victim = sorted(sync.peers)[5]
        assert sorted(anet.net.peers)[5] == victim
        sync.fail(victim)
        fail_future = anet.submit_fail(victim)
        anet.drain()
        assert fail_future.succeeded
        sync_base = sync.bus.stats.total
        async_base = anet.bus.stats.total
        sync_results = sync.repair_all()
        async_results = anet.repair_all()
        assert len(sync_results) == len(async_results) == 1
        assert (
            sync.bus.stats.total - sync_base
            == anet.bus.stats.total - async_base
        )
        assert (
            async_results[0].keys_recovered == sync_results[0].keys_recovered
        )
        assert stored_multiset(anet.net) == stored_multiset(sync)


class TestAsyncRepairPricing:
    def test_repair_future_reports_recovery_latency(self):
        anet = replicated_async(n_peers=30, seed=13)
        for key in uniform_keys(150, seed=5):
            anet.submit_insert(key)
            anet.drain()
        victim = max(
            anet.net.peers, key=lambda a: len(anet.net.peers[a].store)
        )
        assert len(anet.net.peers[victim].store) > 0
        anet.submit_fail(victim)
        anet.drain()
        future = anet.submit_repair(victim)
        anet.drain()
        assert future.succeeded
        assert future.result.keys_recovered > 0
        assert future.latency is not None and future.latency > 0
        assert future.transit > 0

    def test_replica_pull_is_one_hop_per_transfer(self):
        """The repair-time replica pull costs one priced hop per message
        (request, bulk reply, re-mirror), however many keys it carries."""
        pulls = {}
        for load in (4, 64):
            links = []

            class Recorder(ConstantLatency):
                def sample(self, src, dst, *, size=0.0):
                    links.append((src, dst))
                    return 1.0

            anet = replicated_async(n_peers=12, seed=17, topology=Recorder())
            victim = sorted(anet.net.peers)[4]
            peer = anet.net.peers[victim]
            peer.store.extend(
                key
                for key in uniform_keys(5 * load, seed=6)
                if peer.range.contains(key)
            )
            anet.net.refresh_replicas()
            anet.submit_fail(victim)
            anet.drain()
            del links[:]
            future = anet.submit_repair(victim)
            anet.drain()
            assert future.succeeded
            assert future.result.keys_recovered > 0
            assert future.transit == future.hops
            pulls[load] = (future.hops, links)
        # The same links crossed as often, whatever the payload.
        assert pulls[64] == pulls[4]
        assert pulls[4][0] >= 3  # ingress, request, bulk reply


class TestClusteredRefresh:
    def topology(self, seed=21, **kwargs):
        params = dict(
            regions=3,
            intra_delay=0.5,
            inter_delay=4.0,
            jitter=0.0,
        )
        params.update(kwargs)
        return ClusteredTopology(seed, **params)

    def test_refresh_mirrors_every_store(self):
        anet = replicated_async(n_peers=25, seed=19, topology=self.topology())
        anet.net.bulk_load(uniform_keys(250, seed=9))
        futures = anet.submit_replica_refresh()
        anet.drain()
        assert all(f.succeeded for f in futures)
        assert mirrored_multiset(anet.net) == stored_multiset(anet.net)
        for peer in anet.net.peers.values():
            assert peer.replica_anchor in anet.net.peers

    def test_refresh_is_one_priced_hop(self):
        """A refresh carrying a whole store costs its link, once."""
        anet = replicated_async(n_peers=25, seed=19, topology=self.topology())
        anet.net.bulk_load(uniform_keys(250, seed=9))
        futures = anet.submit_replica_refresh()
        anet.drain()
        by_address = dict(zip(sorted(anet.net.peers), futures))
        topology = self.topology()  # same seed: identical placements
        for address, future in by_address.items():
            if not (future.succeeded and future.result):
                continue
            holder = anet.net.peers[address].replica_anchor
            assert future.hops == 1
            assert future.transit == pytest.approx(
                topology.direct_delay(address, holder)
            )

    def test_refresh_deterministic_across_runs(self):
        def one_run():
            anet = replicated_async(
                n_peers=25, seed=23, topology=self.topology(seed=5)
            )
            anet.net.bulk_load(uniform_keys(200, seed=3))
            anet.submit_replica_refresh()
            anet.drain()
            return anet.event_log, mirrored_multiset(anet.net)

        first_log, first_mirrors = one_run()
        second_log, second_mirrors = one_run()
        assert first_log == second_log
        assert first_mirrors == second_mirrors


class TestRefreshRidesTheReliableChannel:
    """DESIGN.md, "Delivery contract": refresh transfers are ordered,
    connection-oriented flows — a FaultPlan never judges them, whichever
    API admitted them."""

    def refreshed(self, submit):
        anet = replicated_async(
            topology=FaultPlan(ConstantLatency(1.0), drop_rate=1.0)
        )
        anet.net.bulk_load(uniform_keys(300, seed=9))
        before = anet.bus.stats.total
        futures = submit(anet)
        anet.drain()
        assert all(f.succeeded for f in futures), [f.error for f in futures]
        assert anet.in_flight == 0
        assert mirrored_multiset(anet.net) == stored_multiset(anet.net)
        assert anet.fault_stats.timeouts == 0
        assert anet.fault_stats.drops == 0
        return anet.bus.stats.total - before

    def test_both_apis_survive_a_drop_everything_plan(self):
        one_by_one = self.refreshed(lambda anet: anet.submit_replica_refresh())
        sweep = self.refreshed(
            lambda anet: [anet.submit_replica_refresh_sweep()]
        )
        assert one_by_one == sweep == 30


class TestReconcileAccounting:
    def test_reconcile_returns_message_count(self):
        from repro.net.message import MsgType

        anet = replicated_async(n_peers=20, seed=3)
        before = anet.bus.stats.by_type[MsgType.RECONCILE]
        messages = anet.reconcile()
        assert messages == anet.net.size  # every peer has a live neighbour
        assert anet.bus.stats.by_type[MsgType.RECONCILE] - before == messages

    def test_single_peer_reconciles_for_free(self):
        net = BatonNetwork(config=BatonConfig(replication=True), seed=0)
        net.bootstrap()
        anet = AsyncOverlayRuntime(net, topology=ConstantLatency(1.0))
        assert anet.reconcile() == 0


class TestRegistryGating:
    def test_baton_builds_replicated(self):
        from repro import overlays

        config = BatonConfig(replication=True)
        anet = overlays.get("baton").build(16, seed=1, config=config).wrap()
        assert anet.replication_enabled
        assert anet.net.config.replication

    @pytest.mark.parametrize("name", ["chord", "multiway"])
    def test_baselines_refuse_replication(self, name):
        from repro import overlays
        from repro.util.errors import CapabilityError

        assert "replication" not in overlays.get(name).capabilities
        anet = overlays.get(name).build(16, seed=1).wrap()
        assert not anet.replication_enabled
        with pytest.raises(CapabilityError):
            anet.submit_replica_refresh()


class TestRegionDiversePlacement:
    """Locality extension: mirrors anchor across regions when possible."""

    @staticmethod
    def _diverse_net(seed: int = 3, n_peers: int = 48):
        from repro.core.network import LocalityConfig
        from repro.experiments.harness import build_baton

        net = build_baton(
            n_peers,
            seed,
            10,
            replication=True,
            locality=LocalityConfig(replica_diversity=True),
        )
        net.topology = ClusteredTopology(seed=seed + 100, regions=4)
        net.refresh_replicas()
        return net

    def test_holder_crosses_regions_whenever_a_link_does(self):
        net = self._diverse_net()
        region_of = net.topology.region_of
        cross, fallback = 0, 0
        for peer in net.peers.values():
            holder = replication.replica_holder(net, peer)
            if holder is None:
                continue
            home = region_of(peer.address)
            if region_of(holder.address) != home:
                cross += 1
                continue
            # Same-region holder is only legal when the peer has no
            # cross-region candidate at all (the documented fallback).
            candidates = [
                info.address
                for _, info in peer.iter_links()
                if info.address in net.peers
            ]
            assert all(region_of(a) == home for a in candidates)
            fallback += 1
        assert cross > 0  # diversity must actually engage
        assert cross > fallback  # and dominate at this scale

    def test_diversity_off_keeps_adjacent_placement(self):
        from repro.experiments.harness import build_baton

        net = build_baton(48, 3, 10, replication=True)
        net.topology = ClusteredTopology(seed=103, regions=4)
        net.refresh_replicas()
        for peer in net.peers.values():
            holder = replication.replica_holder(net, peer)
            if holder is None:
                continue
            adjacents = {
                info.address
                for info in (peer.right_adjacent, peer.left_adjacent)
                if info is not None
            }
            assert holder.address in adjacents

    def test_diversity_noops_without_region_topology(self):
        from repro.core.network import LocalityConfig
        from repro.experiments.harness import build_baton

        plain = build_baton(32, 5, 10, replication=True)
        diverse = build_baton(
            32,
            5,
            10,
            replication=True,
            locality=LocalityConfig(replica_diversity=True),
        )
        # No topology installed: region_of is unavailable, so diverse
        # placement falls back to the adjacent contract exactly.
        for address in plain.peers:
            a = replication.replica_holder(plain, plain.peers[address])
            b = replication.replica_holder(diverse, diverse.peers[address])
            assert (a is None) == (b is None)
            if a is not None:
                assert a.address == b.address


class TestCorrelatedOutageRegression:
    """Satellite: the region-outage durability cells, pinned both ways —
    adjacent placement loses keys to a correlated strike, region-diverse
    placement loses none (same network, same outage, same workload)."""

    def test_diverse_replicas_survive_where_adjacent_lose(self):
        from repro.experiments import durability

        # insert_rate=0 keeps the loss accounting free of in-flight
        # write-through races: every counted loss is the outage's.
        baseline = durability._correlated_run(
            48, 1, 10, 4.0, replica_diversity=False, insert_rate=0.0
        )
        diverse = durability._correlated_run(
            48, 1, 10, 4.0, replica_diversity=True, insert_rate=0.0
        )
        assert baseline["crashes"] > 0
        assert diverse["crashes"] > 0
        assert baseline["keys_lost"] > 0  # adjacent mirrors die with owners
        assert diverse["keys_lost"] == 0  # cross-region mirrors survive
