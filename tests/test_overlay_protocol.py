"""Conformance suite for the one overlay interface (repro.overlays).

Every registered network class must satisfy the same contract:

* the abstract surface of :class:`~repro.net.overlay.OverlayNetwork`
  (unified method names — ``random_peer_address`` everywhere — and
  ``build``/``bulk_load``), so a newcomer missing a member fails at build;
* the unified result dataclasses, including the ``complete`` truncation
  flag on every range answer;
* build/join/leave/search/insert round-trips through the public API;
* **serialized equivalence**: a constant-latency
  :class:`~repro.sim.runtime.AsyncOverlayRuntime` run, one operation in
  flight at a time, is message-for-message equivalent to the synchronous
  facade and converges to the identical structure (mirroring
  ``tests/test_runtime.py`` for BATON).
"""

from collections import Counter

import pytest

from repro import overlays
from repro.core.invariants import collect_violations
from repro.core.results import (
    DataOpResult,
    JoinResult,
    LeaveResult,
    RangeSearchResult,
    SearchResult,
)
from repro.core.network import BatonConfig
from repro.net.overlay import OverlayNetwork
from repro.sim.latency import ConstantLatency
from repro.sim.runtime import AsyncOverlayRuntime
from repro.net.message import MsgType
from repro.sim.latency import UniformLatency
from repro.util.errors import CapabilityError, NetworkEmptyError, PeerNotFoundError
from repro.util.rng import SeededRng
from repro.workloads.generators import uniform_keys

ALL = overlays.available()


def snapshot(name: str, net) -> set:
    """Overlay-specific structural fingerprint for equivalence checks."""
    if name == "baton":
        return {
            (
                str(peer.position),
                peer.range.low,
                peer.range.high,
                tuple(sorted(peer.store)),
            )
            for peer in net.peers.values()
        }
    if name == "chord":
        return {
            (
                node.node_id,
                net.peers[node.predecessor].node_id,
                tuple(
                    net.peers[f].node_id if f in net.peers else None
                    for f in node.finger
                ),
                tuple(sorted(node.store)),
            )
            for node in net.peers.values()
        }
    return {
        (
            node.level,
            node.range.low,
            node.range.high,
            node.coverage.low,
            node.coverage.high,
            len(node.children),
            tuple(sorted(node.store)),
        )
        for node in net.peers.values()
    }


def assert_same_write(future, expected: DataOpResult) -> None:
    """A drained async insert/delete reports what the sync facade did."""
    assert future.succeeded, future.error
    result = future.result
    assert result.owner == expected.owner
    assert result.applied is expected.applied
    assert result.trace.total == expected.trace.total
    assert result.total_messages == expected.total_messages


class TestRegistry:
    def test_three_overlays_registered(self):
        assert ALL == ["baton", "chord", "multiway"]

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="baton, chord, multiway"):
            overlays.get("kademlia")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            overlays.register(overlays.get("baton"))

    @pytest.mark.parametrize("name", ALL)
    def test_entry_shape(self, name):
        cls = overlays.get(name)
        assert cls.overlay_name == name
        assert type(cls.wrap(cls.build(8))) is AsyncOverlayRuntime

    @pytest.mark.parametrize("name", ALL)
    def test_capabilities_are_known_names(self, name):
        assert overlays.get(name).capabilities <= overlays.ALL_CAPABILITIES

    def test_capabilities_differ_by_overlay(self):
        assert overlays.FAIL in overlays.get("baton").capabilities
        assert overlays.REPAIR in overlays.get("baton").capabilities
        assert not overlays.get("chord").capabilities
        assert not overlays.get("multiway").capabilities


#: The members every overlay writes: ``OverlayNetwork``'s abstract surface.
ABSTRACT_MEMBERS = (
    "domain",
    "bootstrap",
    "bulk_load",
    "join_steps",
    "leave_steps",
    "search_exact_steps",
    "search_range_steps",
    "data_op_steps",
    "violations",
)


class TestAbstractSurface:
    def test_abstract_members_are_the_interface(self):
        assert OverlayNetwork.__abstractmethods__ == frozenset(ABSTRACT_MEMBERS)

    @pytest.mark.parametrize("member", ABSTRACT_MEMBERS)
    @pytest.mark.parametrize("name", ALL)
    def test_missing_member_fails_at_build(self, name, member):
        """A newcomer that leaves one member at the base's abstract stub
        fails when it is built, not at its first operation."""
        stub = vars(OverlayNetwork)[member]
        newcomer = type("Newcomer", (overlays.get(name),), {member: stub})
        with pytest.raises(TypeError, match=member):
            newcomer.build(4)


class TestProtocolConformance:
    @pytest.mark.parametrize("name", ALL)
    def test_satisfies_overlay_protocol(self, name):
        net = overlays.get(name).build(20, seed=4)
        assert isinstance(net, OverlayNetwork)

    @pytest.mark.parametrize("name", ALL)
    def test_unified_population_surface(self, name):
        net = overlays.get(name).build(15, seed=4)
        assert net.size == 15
        addresses = net.addresses()
        assert len(addresses) == 15
        assert net.random_peer_address() in addresses

    @pytest.mark.parametrize("name", ALL)
    def test_membership_round_trip(self, name):
        net = overlays.get(name).build(12, seed=5)
        joined = net.join()
        assert isinstance(joined, JoinResult)
        assert net.size == 13
        assert joined.total_messages >= 0
        left = net.leave(joined.address)
        assert isinstance(left, LeaveResult)
        assert left.departed == joined.address
        assert net.size == 12

    @pytest.mark.parametrize("name", ALL)
    def test_data_round_trip(self, name):
        net = overlays.get(name).build(20, seed=6)
        keys = uniform_keys(40, seed=8)
        for key in keys:
            result = net.insert(key)
            assert isinstance(result, DataOpResult) and result.applied
        for key in keys:
            hit = net.search_exact(key)
            assert isinstance(hit, SearchResult)
            assert hit.found, (name, key)
        for key in keys[:10]:
            assert net.delete(key).applied
            assert not net.search_exact(key).found

    @pytest.mark.parametrize("name", ALL)
    def test_bulk_load_places_searchable_keys(self, name):
        net = overlays.get(name).build(20, seed=6)
        keys = uniform_keys(60, seed=9)
        assert net.bulk_load(keys) == len(keys)
        for key in keys[::7]:
            assert net.search_exact(key).found

    @pytest.mark.parametrize("n_peers", (1, 2, 40))
    @pytest.mark.parametrize("name", ALL)
    def test_build_places_keys_at_their_owners(self, name, n_peers):
        """``build(..., keys=)`` holds every key exactly once, at the peer
        an exact search routes to — whatever the overlay's placement."""
        keys = uniform_keys(5 * n_peers, seed=n_peers)
        net = overlays.get(name).build(n_peers, 3, keys=keys)
        held = {a: Counter(net.store_of(a)) for a in net.addresses()}
        assert sum(sum(c.values()) for c in held.values()) == len(keys)
        wanted = Counter(keys)
        for key in wanted:
            result = net.search_exact(key)
            assert result.found
            assert held[result.owner][key] == wanted[key]
        if name == "baton":
            assert collect_violations(net) == []

    @pytest.mark.parametrize("name", ALL)
    def test_range_results_unified_and_complete(self, name):
        """The `complete` flag PR 1 gave BATON now exists on every overlay."""
        net = overlays.get(name).build(25, seed=7)
        keys = uniform_keys(200, seed=11)
        net.bulk_load(keys)
        low, high = 2 * 10**8, 6 * 10**8
        answer = net.search_range(low, high)
        assert isinstance(answer, RangeSearchResult)
        assert answer.complete is True
        assert answer.nodes_visited == len(answer.owners) >= 1
        assert sorted(answer.keys) == sorted(k for k in keys if low <= k < high)

    @pytest.mark.parametrize("name", ALL)
    def test_empty_range_rejected(self, name):
        net = overlays.get(name).build(10, seed=7)
        with pytest.raises(ValueError):
            net.search_range(5, 5)


def _departed_after_sync_churn(name: str):
    """A network after 40 leave/join pairs, and the addresses that left."""
    net = overlays.get(name).build(30, seed=2)
    departed = []
    for _ in range(40):
        address = net.random_peer_address()
        net.leave(address)
        departed.append(address)
        net.join()
    return net, departed


def _departed_after_async_churn(name: str):
    """A network after 40 interleaved join/leave pairs on the runtime under
    jittered latency, and the addresses whose leave went through."""
    net = overlays.get(name).build(30, seed=2)
    rng = SeededRng(5)
    anet = net.wrap(topology=UniformLatency(0.1, 2.0, rng.child("latency")))
    leaves = []
    for _ in range(40):
        candidates = sorted(anet.leave_candidates())
        if len(candidates) > 8:
            leaves.append(anet.submit_leave(rng.choice(candidates)))
        anet.submit_join()
        anet.run_until(anet.sim.now + 0.5)
    anet.drain()
    return net, [future.result.departed for future in leaves if future.succeeded]


class TestOneLiveMap:
    """Population and liveness come from the base class's one map, so a
    departed address is gone from every surface at once."""

    @pytest.mark.parametrize(
        "churn", (_departed_after_sync_churn, _departed_after_async_churn)
    )
    @pytest.mark.parametrize("name", ALL)
    def test_departed_address_is_gone_everywhere(self, name, churn):
        net, departed = churn(name)
        assert departed
        assert set(net.addresses()) == set(net.peers)
        assert net.size == len(net.peers)
        sender = net.random_peer_address()
        for address in departed:
            assert address not in net.peers
            with pytest.raises(PeerNotFoundError):
                net.peer(address)
            with pytest.raises(PeerNotFoundError):
                net.store_of(address)
            sent = net.bus.stats.total
            with pytest.raises(PeerNotFoundError):
                net.bus.send(sender, address, MsgType.SEARCH)
            assert net.bus.stats.total == sent + 1  # counted before the raise

    @pytest.mark.parametrize("name", ALL)
    def test_network_whose_last_peer_left_is_empty(self, name):
        net = overlays.get(name).build(3, seed=1)
        for _ in range(3):
            net.leave(net.random_peer_address())
        assert net.size == 0 and net.addresses() == []
        with pytest.raises(NetworkEmptyError):
            net.random_peer_address()


#: Every public ``submit_*``: (arguments given the first live address, the
#: capability it needs, whether it enters the overlay at a peer).
SUBMIT_OPS = {
    "submit_search_exact": (lambda a: (42,), None, True),
    "submit_search_range": (lambda a: (10**8, 3 * 10**8), None, True),
    "submit_insert": (lambda a: (424242,), None, True),
    "submit_delete": (lambda a: (424242,), None, True),
    "submit_join": (lambda a: (), None, False),
    "submit_leave": (lambda a: (a,), None, False),
    "submit_multicast": (lambda a: (10**8, 3 * 10**8), "multicast", True),
    "submit_subscribe": (lambda a: (10**8, 3 * 10**8), "subscribe", True),
    "submit_fail": (lambda a: (a,), "fail", False),
    "submit_repair": (lambda a: (a,), "repair", False),
    "submit_replica_refresh": (lambda a: (), "replication", False),
    "submit_replica_refresh_sweep": (lambda a: (), "replication", False),
}


def _declares(name: str, op: str) -> bool:
    needs = SUBMIT_OPS[op][1]
    return needs is None or needs in overlays.get(name).capabilities


_PAIRS = [(name, op) for name in ALL for op in sorted(SUBMIT_OPS)]
ADMITTED = [pair for pair in _PAIRS if _declares(*pair)]
REFUSED = [pair for pair in _PAIRS if not _declares(*pair)]


class TestSingleAdmissionPath:
    """Every ``submit_*`` is admitted by the one ``_submit``: same refusal,
    same bookkeeping, same log rows, whatever the overlay and the op."""

    def runtime(self, name):
        cls = overlays.get(name)
        replicated = overlays.REPLICATION in cls.capabilities
        config = BatonConfig(replication=True) if replicated else None
        anet = cls.build(12, seed=3, config=config).wrap()
        anet.net.bulk_load(uniform_keys(40, seed=4))
        return anet

    def test_table_covers_the_public_surface(self):
        public = {n for n in dir(AsyncOverlayRuntime) if n.startswith("submit_")}
        assert public == set(SUBMIT_OPS)

    @pytest.mark.parametrize("name,op", REFUSED)
    def test_unsupported_op_is_refused_before_anything_exists(self, name, op):
        make_args, needs, _enters = SUBMIT_OPS[op]
        anet = self.runtime(name)
        rng_state = anet.net.rng._random.getstate()
        with pytest.raises(CapabilityError) as refusal:
            getattr(anet, op)(*make_args(anet.net.addresses()[0]))
        assert name in str(refusal.value) and repr(needs) in str(refusal.value)
        assert anet.ops == [] and anet.event_log == []
        assert anet.in_flight == 0 and anet.max_in_flight == 0
        assert anet.net.rng._random.getstate() == rng_state

    @pytest.mark.parametrize("name,op", ADMITTED)
    def test_supported_op_is_admitted_once_and_resolves(self, name, op):
        make_args, _needs, enters = SUBMIT_OPS[op]
        anet = self.runtime(name)
        live = set(anet.net.addresses())
        submitted = getattr(anet, op)(*make_args(anet.net.addresses()[0]))
        futures = submitted if isinstance(submitted, list) else [submitted]
        assert anet.in_flight == len([f for f in futures if not f.done])
        anet.drain()
        assert anet.in_flight == 0
        assert anet.ops == futures
        for future in futures:
            assert future.done
            phases = [row[3] for row in anet.event_log if row[1] == future.op_id]
            assert phases[0] == "submit" and phases.count("submit") == 1
            assert phases[-1] == ("done" if future.succeeded else "failed")
            assert set(phases[1:-1]) <= {"hop"}
            if enters:
                assert future.entry in live
            else:
                assert future.entry is None

    @pytest.mark.parametrize("name", ALL)
    def test_explicit_entry_is_recorded(self, name):
        anet = self.runtime(name)
        via = anet.net.addresses()[-1]
        assert anet.submit_search_exact(42, via=via).entry == via
        assert anet.submit_insert(424242, via=via).entry == via
        assert anet.submit_join(via=via).entry is None
        anet.drain()


class TestAsyncConformance:
    @pytest.mark.parametrize("name", ALL)
    def test_build_wrap_and_submit(self, name):
        anet = overlays.get(name).build(15, seed=3).wrap()
        keys = uniform_keys(30, seed=4)
        anet.net.bulk_load(keys)
        futures = [
            anet.submit_search_exact(keys[0]),
            anet.submit_search_range(10**8, 3 * 10**8),
            anet.submit_insert(424242),
            anet.submit_delete(keys[1]),
            anet.submit_join(),
        ]
        anet.drain()
        assert all(f.succeeded for f in futures), [f.error for f in futures]
        assert futures[0].result.found
        # With ops in flight the range may be honestly truncated (e.g. the
        # concurrent join grew the ring mid-scan); completeness under
        # serialized conditions is pinned in test_serialized_queries below.
        assert isinstance(futures[1].result, RangeSearchResult)

    @pytest.mark.parametrize("name", ALL)
    def test_fail_capability_gated(self, name):
        anet = overlays.get(name).build(10, seed=3).wrap()
        victim = anet.net.addresses()[0]
        if anet.supports("fail"):
            anet.submit_fail(victim)
            anet.drain()
            assert victim not in anet.net.peers
        else:
            with pytest.raises(CapabilityError):
                anet.submit_fail(victim)

    @pytest.mark.parametrize("name", ALL)
    def test_serialized_queries_match_sync(self, name):
        entry = overlays.get(name)
        sync = entry.build(30, seed=3)
        anet = entry.wrap(entry.build(30, seed=3), topology=ConstantLatency(1.0))
        keys = uniform_keys(80, seed=9)
        sync.bulk_load(keys)
        anet.net.bulk_load(keys)
        for key in keys[:25]:
            expected = sync.search_exact(key)
            future = anet.submit_search_exact(key)
            anet.drain()
            assert future.succeeded
            assert future.result.found is expected.found is True
            assert future.result.owner == expected.owner
            assert future.trace.total == expected.trace.total
        for low in (10**8, 4 * 10**8, 7 * 10**8):
            expected = sync.search_range(low, low + 10**8)
            future = anet.submit_search_range(low, low + 10**8)
            anet.drain()
            assert future.succeeded
            assert future.result.owners == expected.owners
            assert future.result.keys == expected.keys
            assert future.result.complete is expected.complete is True
            assert future.trace.total == expected.trace.total

    @pytest.mark.parametrize("name", ALL)
    def test_serialized_membership_and_data_match_sync(self, name):
        entry = overlays.get(name)
        sync = entry.build(30, seed=3)
        anet = entry.wrap(entry.build(30, seed=3), topology=ConstantLatency(1.0))
        for _ in range(10):
            expected = sync.join()
            future = anet.submit_join()
            anet.drain()
            assert future.succeeded
            assert future.result.address == expected.address
            assert future.result.parent == expected.parent
            assert future.result.total_messages == expected.total_messages
            assert future.result.find_trace.total == expected.find_trace.total
            assert future.result.update_trace.total == expected.update_trace.total
        keys = uniform_keys(15, seed=12)
        for key in keys:
            expected = sync.insert(key)
            future = anet.submit_insert(key)
            anet.drain()
            assert future.succeeded
            assert future.result.owner == expected.owner
            assert future.trace.total == expected.trace.total
            assert_same_write(future, expected)
        # Every other key, then the first again: a delete that misses.
        for key in keys[::2] + keys[:1]:
            expected = sync.delete(key)
            future = anet.submit_delete(key)
            anet.drain()
            assert_same_write(future, expected)
        assert not expected.applied
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
        assert sync.size == anet.size
        assert snapshot(name, sync) == snapshot(name, anet.net)

    def test_serialized_balanced_inserts_match_sync(self):
        """§IV-D balancing on: an insert that triggers it reports the
        balancing traffic once, in ``balance_trace``, on both facades."""
        from repro.core.network import BatonConfig, LoadBalanceConfig

        config = BatonConfig(balance=LoadBalanceConfig(capacity=4, enabled=True))
        entry = overlays.get("baton")
        sync = entry.build(32, seed=3, config=config)
        anet = entry.wrap(
            entry.build(32, seed=3, config=config), topology=ConstantLatency(1.0)
        )
        balanced = 0
        # 16 adjacent shifts and one rejoin with a forced restructuring
        # shift.  Further on, a rejoin's restructuring reads table updates
        # the runtime has not delivered yet (balancing runs inside the
        # insert's last event) and the two facades part ways.
        for key in uniform_keys(120, seed=12):
            expected = sync.insert(key)
            future = anet.submit_insert(key)
            anet.drain()
            assert_same_write(future, expected)
            assert future.result.balance_moves == expected.balance_moves
            if expected.balance_trace is None:
                assert future.result.balance_trace is None
                continue
            balanced += 1
            assert future.result.balance_trace.total == expected.balance_trace.total
        assert balanced > 0
        assert snapshot("baton", sync) == snapshot("baton", anet.net)

    def test_serialized_extension_ops_match_sync(self):
        """BATON's extension ops with replication on — a refresh round,
        fail then repair, subscribe and multicast — report the same
        results and traces on both facades and converge to one structure."""
        entry = overlays.get("baton")
        nets = [
            entry.build(40, seed=3, config=BatonConfig(replication=True))
            for _ in range(2)
        ]
        sync = nets[0]
        anet = entry.wrap(nets[1], topology=ConstantLatency(1.0))
        keys = uniform_keys(300, seed=9)
        for net in nets:
            net.bulk_load(keys)

        future = anet.submit_replica_refresh_sweep()
        anet.drain()
        assert future.result == sync.refresh_replicas() == sync.size

        leaf = next(a for a in sync.addresses() if sync.peer(a).is_leaf)
        internal = next(a for a in sync.addresses() if not sync.peer(a).is_leaf)
        recovered = 0
        for victim in (internal, leaf):
            sync.fail(victim)
            expected = sync.repair(victim)
            failed = anet.submit_fail(victim)
            anet.drain()
            assert failed.result == victim
            future = anet.submit_repair(victim)
            anet.drain()
            assert future.succeeded, future.error
            assert future.result.replacement == expected.replacement
            assert future.result.keys_recovered == expected.keys_recovered
            assert future.result.trace.total == expected.trace.total
            recovered += expected.keys_recovered
        assert recovered > 0
        assert snapshot("baton", sync) == snapshot("baton", anet.net)

        low, high = 2 * 10**8, 5 * 10**8
        subscriber = sync.addresses()[5]
        expected = sync.subscribe(subscriber, low, high)
        future = anet.submit_subscribe(low, high, subscriber=subscriber)
        anet.drain()
        assert future.result.owners == expected.owners
        assert future.result.trace.total == expected.trace.total > 0

        start = sync.addresses()[7]
        expected = sync.multicast(low, high, via=start)
        future = anet.submit_multicast(low, high, via=start)
        anet.drain()
        assert future.result.delivered == expected.delivered
        assert future.result.trace.total == expected.trace.total > 0
        assert snapshot("baton", sync) == snapshot("baton", anet.net)

        # A target already gone is a race only the runtime tolerates.
        gone = leaf
        for facade, submit in ((sync.fail, anet.submit_fail),
                               (sync.repair, anet.submit_repair)):
            with pytest.raises(PeerNotFoundError):
                facade(gone)
            future = submit(gone)
            anet.drain()
            assert future.succeeded and future.result is None

    @pytest.mark.parametrize("name", ALL)
    def test_interleaved_runs_deterministic(self, name):
        def one_run():
            from repro.sim.latency import ExponentialLatency
            from repro.util.rng import SeededRng

            rng = SeededRng(21)
            entry = overlays.get(name)
            anet = entry.wrap(
                entry.build(40, seed=2),
                topology=ExponentialLatency(1.0, rng.child("latency")),
            )
            anet.net.bulk_load(uniform_keys(200, seed=5))
            futures = []
            while len(futures) < 120:
                roll = rng.random()
                if roll < 0.15:
                    futures.append(anet.submit_join())
                elif roll < 0.3:
                    candidates = anet.leave_candidates()
                    if len(candidates) > 8:
                        futures.append(
                            anet.submit_leave(rng.choice(sorted(candidates)))
                        )
                else:
                    futures.append(anet.submit_search_exact(rng.randint(1, 10**9)))
            anet.drain()
            return anet, futures

        first_net, first = one_run()
        second_net, second = one_run()
        assert all(f.done for f in first)
        assert first_net.max_in_flight > 1  # genuine overlap
        assert first_net.event_log == second_net.event_log
        assert [(f.status, f.hops, f.trace.total) for f in first] == [
            (f.status, f.hops, f.trace.total) for f in second
        ]
        assert snapshot(name, first_net.net) == snapshot(name, second_net.net)


class TestLocalityConformance:
    """The locality extension must not disturb Algorithm 1's wire protocol
    unless it is switched on — and when it is, the sync facade and the
    serialized async runtime must still agree message for message."""

    @staticmethod
    def _grown(config=None, topology=None, n_peers=24, seed=5):
        from repro.core.network import BatonConfig, BatonNetwork

        net = BatonNetwork(config=config or BatonConfig(), seed=seed)
        if topology is not None:
            net.topology = topology
        net.bootstrap()
        results = [net.join() for _ in range(n_peers - 1)]
        return net, results

    def test_probing_off_join_identical_to_algorithm_1(self):
        from repro.core.network import BatonConfig, LocalityConfig
        from repro.net.message import MsgType
        from repro.sim.topology import ClusteredTopology

        plain, plain_joins = self._grown()
        # join_probes=0 with a topology installed, and join_probes=4
        # without one: both sides of the probing gate stay cold.
        for config, topology in (
            (
                BatonConfig(locality=LocalityConfig(join_probes=0)),
                ClusteredTopology(seed=9, regions=4),
            ),
            (BatonConfig(locality=LocalityConfig(join_probes=4)), None),
        ):
            gated, gated_joins = self._grown(config=config, topology=topology)
            assert gated.bus.stats.by_type == plain.bus.stats.by_type
            assert gated.bus.stats.by_type[MsgType.JOIN_PROBE] == 0
            assert [
                (j.address, j.parent, j.total_messages) for j in gated_joins
            ] == [
                (j.address, j.parent, j.total_messages) for j in plain_joins
            ]
            assert snapshot("baton", gated) == snapshot("baton", plain)

    def test_probing_on_serialized_async_matches_sync(self):
        from repro.core.network import BatonConfig, BatonNetwork, LocalityConfig
        from repro.net.message import MsgType
        from repro.sim.topology import ClusteredTopology

        config = BatonConfig(locality=LocalityConfig(join_probes=4))
        topology = ClusteredTopology(seed=11, regions=4)
        sync, sync_joins = self._grown(config=config, topology=topology)
        assert sync.bus.stats.by_type[MsgType.JOIN_PROBE] > 0

        async_net = BatonNetwork(config=config, seed=5)
        async_net.bootstrap()
        anet = overlays.get("baton").wrap(
            async_net, topology=ClusteredTopology(seed=11, regions=4)
        )
        for expected in sync_joins:
            future = anet.submit_join()
            anet.drain()
            assert future.succeeded
            assert future.result.address == expected.address
            assert future.result.parent == expected.parent
            assert future.result.total_messages == expected.total_messages
        assert async_net.bus.stats.by_type == sync.bus.stats.by_type
        assert snapshot("baton", async_net) == snapshot("baton", sync)

    def test_cache_on_serialized_async_matches_sync(self):
        """Hot-range cache on: hit, verified-stale and dead-hint consults
        agree between the sync facade and the drained async runtime —
        owner, message count and the hit/miss/invalidation counters after
        every single operation."""
        from repro.core.leave import can_depart_simply
        from repro.core.network import BatonConfig, BatonNetwork, LocalityConfig

        config = BatonConfig(locality=LocalityConfig(cache_size=8))
        sync = BatonNetwork.build(30, seed=3, config=config)
        anet = overlays.get("baton").wrap(
            BatonNetwork.build(30, seed=3, config=config),
            topology=ConstantLatency(1.0),
        )
        keys = uniform_keys(120, seed=9)
        sync.bulk_load(keys)
        anet.net.bulk_load(keys)

        # An internal peer whose Algorithm 2 replacement is a deeper leaf:
        # that leaf keeps its address but takes over a disjoint range, so
        # a hint naming it goes verified-stale.  The querying gateway is a
        # bystander linked to neither (no TABLE_UPDATE corrects its cache).
        leaver, mover = next(
            (peer, leaf)
            for peer in sorted(sync.peers.values(), key=lambda p: p.address)
            if peer.left_child is not None and peer.left_adjacent is not None
            for leaf in [sync.peers[peer.left_adjacent.address]]
            if leaf.is_leaf
            and leaf.parent.address != peer.address
            and can_depart_simply(leaf)
        )
        involved = (
            {leaver.address, mover.address, mover.parent.address}
            | set(leaver.link_addresses())
            | set(mover.link_addresses())
        )
        via = next(a for a in sorted(sync.peers) if a not in involved)
        doomed = next(
            peer
            for peer in sorted(sync.peers.values(), key=lambda p: p.address)
            if peer.address not in involved | {via}
        )
        stale_key = mover.range.low
        dead_key = doomed.range.low
        hot = [stale_key, dead_key] + keys[:4]

        def both(key):
            expected = sync.search_exact(key, via=via)
            future = anet.submit_search_exact(key, via=via)
            anet.drain()
            assert future.succeeded
            assert future.result.owner == expected.owner
            assert future.result.found is expected.found
            assert future.trace.total == expected.trace.total
            assert anet.net.cache_stats.snapshot() == sync.cache_stats.snapshot()
            return expected

        for _round in range(3):  # cold misses, then hits
            for key in hot:
                both(key)
        hits, _misses, invalidations = sync.cache_stats.snapshot()
        assert hits > 0 and invalidations == 0

        expected = sync.leave(leaver.address)
        future = anet.submit_leave(leaver.address)
        anet.drain()
        assert future.succeeded
        assert future.result.replacement == expected.replacement == mover.address
        assert mover.address in sync.peers[via].route_cache.owners()
        assert not sync.peers[mover.address].range.contains(stale_key)
        stale = both(stale_key)  # one wasted hop, then the walk: never wrong
        assert sync.peers[stale.owner].range.contains(stale_key)
        assert sync.cache_stats.invalidations == invalidations + 1

        sync.fail(doomed.address)
        anet.submit_fail(doomed.address)
        anet.drain()
        assert doomed.address in sync.peers[via].route_cache.owners()
        both(dead_key)  # dead hint: paid for, dropped, full walk from entry
        assert doomed.address not in sync.peers[via].route_cache.owners()
        assert sync.cache_stats.invalidations == invalidations + 2
        for key in hot:
            both(key)

    @pytest.mark.parametrize("n_peers", (2, 9, 24, 33))
    def test_bulk_build_pins_hold_with_probing_config(self, n_peers):
        from repro.core.bulk_build import incremental_reference
        from repro.core.invariants import collect_violations
        from repro.core.network import BatonConfig, BatonNetwork, LocalityConfig

        # No topology is installed on either side, so probing stays
        # inactive and the construction equivalence contract must hold
        # even with the locality knobs present in the config.
        config = BatonConfig(
            locality=LocalityConfig(join_probes=4, cache_size=64)
        )
        bulk = BatonNetwork.build(n_peers, config=config, bulk=True)
        grown = incremental_reference(n_peers, config=config)
        assert snapshot("baton", bulk) == snapshot("baton", grown)
        assert set(bulk.peers) == set(grown.peers)
        assert collect_violations(bulk) == []
