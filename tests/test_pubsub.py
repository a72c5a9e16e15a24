"""The dissemination contract: exactly-once multicast, durable subscriptions.

Pins the three promises of DESIGN.md's "Dissemination contract":

* every owner of the target range is delivered **exactly once**, in
  ``|owners| + O(log N)`` messages (the fan-out is one delegation per
  additional owner — optimal — and the route prefix is logarithmic);
* subscription tables are **owner state tied to the range**: join splits,
  leave handovers and balance shifts carry the overlapping entries with
  the keys, so notifications keep flowing across restructures;
* delivery is **idempotent**: dissemination ids plus the bounded per-peer
  window turn at-least-once channels (FaultPlan duplication, stale links
  during churn) into exactly-once application.

Plus the registry conformance half: only BATON advertises the
``multicast``/``subscribe`` capabilities, and the gates actually fire.
"""

from __future__ import annotations

import math

import pytest

from repro import overlays
from repro.core.network import BatonNetwork
from repro.core.ranges import Range
from repro.overlays import ALL_CAPABILITIES, MULTICAST, SUBSCRIBE
from repro.pubsub import (
    SEEN_WINDOW,
    Subscription,
    apply_delivery,
    install_subscription,
    range_owners,
    transfer_subscriptions,
)
from repro.sim.faults import FaultPlan
from repro.sim.latency import ConstantLatency
from repro.sim.runtime import AsyncOverlayRuntime
from repro.util.errors import CapabilityError
from repro.util.rng import SeededRng
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import uniform_keys


def built(n_peers=120, seed=3, keys=0):
    net = BatonNetwork.build(n_peers, seed=seed)
    if keys:
        net.bulk_load(uniform_keys(keys, seed=seed + 1))
    return net


def log_bound(n_peers: int) -> int:
    return 2 * math.ceil(math.log2(n_peers)) + 2


SPAN = (100_000_000, 220_000_000)


class TestMulticastDelivery:
    def test_every_owner_delivered_exactly_once(self):
        net = built(300, seed=5)
        low, high = SPAN
        owners = {p.address for p in range_owners(net, low, high)}
        result = net.multicast(low, high)
        assert result.complete
        assert len(result.delivered) == len(set(result.delivered))
        assert set(result.delivered) == owners

    def test_message_bound_owners_plus_log(self):
        """Fan-out is optimal (one delegation per extra owner); only the
        route prefix is logarithmic."""
        for n_peers, seed in ((120, 3), (300, 5), (800, 1)):
            net = built(n_peers, seed=seed)
            low, high = SPAN
            owners = range_owners(net, low, high)
            result = net.multicast(low, high)
            assert result.fanout_messages == len(owners) - 1
            assert result.route_hops <= log_bound(n_peers)
            assert result.messages <= len(owners) + log_bound(n_peers)
            assert result.depth <= log_bound(n_peers)

    def test_baselines_reach_the_same_owners(self):
        from repro.pubsub import flood_steps, unicast_steps
        from repro.util.stepper import drive

        net = built(200, seed=7)
        low, high = SPAN
        owners = {p.address for p in range_owners(net, low, high)}
        start = net.random_peer_address()
        uni = drive(unicast_steps(net, start, low, high))
        flood = drive(flood_steps(net, start, low, high))
        tree = net.multicast(low, high, via=start)
        assert set(uni.delivered) == owners
        assert set(flood.delivered) == owners
        # The showdown's ordering at its smallest: tree under unicast
        # under flood on total messages.
        assert tree.messages < uni.messages < flood.messages

    def test_empty_range_rejected(self):
        net = built(30, seed=1)
        with pytest.raises(ValueError):
            net.multicast(10, 10)

    def test_sync_async_equivalence(self):
        """The serialized async path delivers the same set for the same
        cost — it lifts the very same step generator."""
        low, high = SPAN
        sync_net = built(150, seed=9)
        start = min(sync_net.addresses())
        expected = sync_net.multicast(low, high, via=start)

        anet = AsyncOverlayRuntime(
            built(150, seed=9), topology=ConstantLatency(1.0)
        )
        future = anet.submit_multicast(low, high, via=start)
        anet.drain()
        assert set(future.result.delivered) == set(expected.delivered)
        assert future.result.messages == expected.messages
        assert future.result.depth == expected.depth


class TestIdempotentDelivery:
    def test_duplicate_arrival_suppressed(self):
        net = built(30, seed=2)
        peer = net.peer(net.random_peer_address())
        message_id = net.pubsub.new_message_id()
        assert apply_delivery(net.pubsub, peer, message_id) is True
        assert apply_delivery(net.pubsub, peer, message_id) is False
        assert net.pubsub.applications == 1
        assert net.pubsub.duplicates_suppressed == 1

    def test_window_eviction_forgets_oldest(self):
        net = built(30, seed=2)
        peer = net.peer(net.random_peer_address())
        first = net.pubsub.new_message_id()
        apply_delivery(net.pubsub, peer, first)
        for _ in range(SEEN_WINDOW):
            apply_delivery(net.pubsub, peer, net.pubsub.new_message_id())
        assert len(peer.seen_messages) == SEEN_WINDOW
        # ``first`` has been evicted: a late replay applies again — the
        # window bounds memory, it does not promise unbounded dedup.
        assert apply_delivery(net.pubsub, peer, first) is True

    def test_wire_duplicates_never_reapply(self):
        """A duplicating FaultPlan inflates traffic, not applications."""
        plan = FaultPlan(
            ConstantLatency(1.0), seed=11, duplicate_rate=0.3
        )
        anet = overlays.get("baton").build(80, seed=4).wrap(
            topology=plan, record_events=False, retain_ops=False
        )
        low, high = SPAN
        delivered = 0
        for _ in range(5):
            future = anet.submit_multicast(low, high)
            anet.drain()
            delivered += len(future.result.delivered)
        assert anet.fault_stats.duplicates > 0
        assert anet.net.pubsub.applications == delivered
        assert anet.net.pubsub.duplicates_suppressed == 0


class TestSubscriptions:
    def test_installed_at_every_owner(self):
        net = built(200, seed=6)
        low, high = SPAN
        subscriber = net.random_peer_address()
        result = net.subscribe(subscriber, low, high)
        assert result.complete
        owners = {p.address for p in range_owners(net, low, high)}
        assert set(result.owners) == owners
        for peer in range_owners(net, low, high):
            assert result.sub_id in peer.subscriptions

    def test_insert_notifies_subscriber(self):
        net = built(100, seed=8)
        low, high = SPAN
        subscriber = net.random_peer_address()
        net.subscribe(subscriber, low, high)
        before = net.pubsub.notifications
        net.insert((low + high) // 2)
        assert net.pubsub.notifications == before + 1

    def test_notifications_survive_owner_leave(self):
        """The regression the handover hook exists for: the owning peer
        departs, its absorber inherits the entry, notifications continue."""
        net = built(100, seed=8)
        low, high = SPAN
        key = (low + high) // 2
        subscriber = net.random_peer_address()
        net.subscribe(subscriber, low, high)
        owner = net.search_exact(key).owner
        if owner == subscriber:  # keep the subscriber alive
            subscriber = net.search_exact(low).owner
            net.subscribe(subscriber, low, high)
        net.leave(owner)
        before = net.pubsub.notifications
        net.insert(key)
        assert net.pubsub.notifications > before

    def test_entries_follow_every_restructure(self):
        """Churn the overlay hard; every owner of the subscribed range
        must still hold the entry (the range-state invariant)."""
        net = built(120, seed=10)
        low, high = SPAN
        subscriber = net.random_peer_address()
        result = net.subscribe(subscriber, low, high)
        rng = SeededRng(77)
        for round_ in range(60):
            if rng.random() < 0.5 and net.size > 40:
                victim = rng.choice(net.addresses())
                if victim != subscriber:
                    net.leave(victim)
            else:
                net.join()
            for peer in range_owners(net, low, high):
                assert result.sub_id in (peer.subscriptions or {}), (
                    f"round {round_}: owner {peer.address} lost the "
                    f"subscription entry"
                )

    def test_transfer_copies_overlaps_and_prunes_strays(self):
        # Exercise the hook directly on two live peers with hand-set
        # ranges (the callers only invoke it after updating the ranges).
        net = built(30, seed=1)
        peers = [net.peer(addr) for addr in sorted(net.addresses())[:2]]
        src, dst = peers
        src.range = Range(0, 100)
        dst.range = Range(100, 200)
        both = Subscription(9001, src.address, Range(50, 150))
        gone = Subscription(9002, src.address, Range(120, 180))
        install_subscription(src, both)
        install_subscription(src, gone)
        moved = transfer_subscriptions(net, src, dst)
        assert moved == 2
        assert set(dst.subscriptions) == {9001, 9002}
        # ``both`` still overlaps the source range and stays; ``gone``
        # does not and is pruned.
        assert set(src.subscriptions) == {9001}


class TestSharedIntervalWalk:
    """Subscribe installs over the §IV-B walk range search runs, so the two
    agree on every path — the vanished carrier included."""

    def test_vanished_carrier_truncates_instead_of_failing(self):
        anet = AsyncOverlayRuntime(
            BatonNetwork.build(64, seed=1), topology=ConstantLatency(1.0)
        )
        peers = sorted(anet.net.peers.values(), key=lambda p: p.range.low)
        owners = [p.address for p in peers[10:26]]
        low, high = peers[10].range.low, peers[25].range.high
        future = anet.submit_subscribe(low, high, subscriber=owners[0])
        victim = owners[2]

        def crash():
            # Hops so far: the ingress, owners[0] -> owners[1] and the one
            # now carrying the walk to the victim.
            assert future.hops == 3
            anet.net.fail(victim)

        anet.sim.schedule(2.5, crash)
        anet.drain()
        assert future.succeeded, future.error
        result = future.result
        assert result.complete is False
        assert result.owners == tuple(owners[:2])
        for address in owners[:2]:
            assert result.sub_id in anet.net.peer(address).subscriptions
        for address in owners[3:]:
            assert not anet.net.peer(address).subscriptions

    @pytest.mark.parametrize("n_peers", [2, 7, 64, 1000])
    @pytest.mark.parametrize("bulk", [False, True])
    def test_subscribe_and_range_search_walk_alike(self, n_peers, bulk):
        net = BatonNetwork.build(n_peers, seed=n_peers, bulk=bulk)
        assert net.config.locality.cache_size == 0  # both route the bare walk
        rng = SeededRng(n_peers)
        self._check_alike(net, rng)
        for _ in range(30):
            if rng.random() < 0.5 and net.size > 2:
                net.leave(rng.choice(net.addresses()))
            else:
                net.join()
        self._check_alike(net, rng)

    @staticmethod
    def _check_alike(net, rng):
        domain = net.domain
        for _ in range(10):
            low = rng.randint(domain.low, domain.high - 2)
            high = rng.randint(low + 1, domain.high - 1)
            entry = rng.choice(net.addresses())
            found = net.search_range(low, high, via=entry)
            sub = net.subscribe(entry, low, high)
            assert sub.complete and found.complete
            assert list(sub.owners) == found.owners
            assert sub.trace.total == found.trace.total


class TestCapabilityGating:
    def test_capability_names_registered(self):
        assert MULTICAST in ALL_CAPABILITIES
        assert SUBSCRIBE in ALL_CAPABILITIES
        caps = overlays.get("baton").capabilities
        assert {MULTICAST, SUBSCRIBE} <= set(caps)

    @pytest.mark.parametrize("name", ["chord", "multiway"])
    def test_other_overlays_refuse(self, name):
        entry = overlays.get(name)
        assert MULTICAST not in entry.capabilities
        assert SUBSCRIBE not in entry.capabilities
        anet = entry.build(40, seed=2).wrap()
        with pytest.raises(CapabilityError):
            anet.submit_multicast(*SPAN)
        with pytest.raises(CapabilityError):
            anet.submit_subscribe(*SPAN)

    @pytest.mark.parametrize(
        "kwargs",
        [{"publish_rate": -0.1}, {"subscribe_rate": -1.0}, {"pubsub_span": 0}],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConcurrentConfig(**kwargs)

    def test_driver_precheck_refuses_chord_publishes(self):
        anet = overlays.get("chord").build(40, seed=2).wrap()
        config = ConcurrentConfig(duration=5.0, publish_rate=1.0)
        with pytest.raises(CapabilityError):
            run_concurrent_workload(anet, [], config, seed=1)


class TestLossyPubSub:
    def test_zero_double_applications_under_drop_and_duplicate(self):
        """The acceptance cell in miniature: 5% drop + 5% duplicate, full
        pub/sub traffic — retries and wire copies show up as traffic,
        never as a second application."""
        plan = FaultPlan(
            ConstantLatency(1.0),
            seed=21,
            drop_rate=0.05,
            duplicate_rate=0.05,
        )
        anet = overlays.get("baton").build(60, seed=3).wrap(
            topology=plan, record_events=False, retain_ops=False
        )
        keys = uniform_keys(600, seed=4)
        anet.net.bulk_load(keys)
        config = ConcurrentConfig(
            duration=20.0,
            churn_rate=0.2,
            query_rate=2.0,
            insert_rate=2.0,
            publish_rate=1.0,
            subscribe_rate=0.5,
        )
        report = run_concurrent_workload(anet, keys, config, seed=13)
        assert report.unresolved_ops == 0
        assert report.multicasts_delivered > 0
        assert report.subscriptions_installed > 0
        assert report.duplicates > 0, "the plan must actually duplicate"
        state = anet.net.pubsub
        # Every arrival beyond the first per (peer, id) landed in the
        # suppression counter, never in a second application: the report
        # surfaces exactly what the window suppressed.
        assert report.pubsub_duplicates_suppressed == (
            state.duplicates_suppressed
        )
        assert report.message_amplification > 1.0
