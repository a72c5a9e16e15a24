"""Protocol tests: node join (Algorithm 1 + table updates)."""

import math

import pytest

from repro.core import BatonNetwork, check_invariants, tree_height
from repro.core import join as join_protocol
from repro.core.ids import Position
from repro.core.invariants import collect_violations
from repro.net.message import MsgType
from repro.util.errors import ProtocolError

from tests.conftest import make_network


class TestGrowth:
    def test_bootstrap_owns_whole_domain(self):
        net = BatonNetwork(seed=1)
        root = net.bootstrap()
        peer = net.peer(root)
        assert peer.position == Position(0, 1)
        assert peer.range == net.config.domain

    def test_second_bootstrap_rejected(self):
        net = BatonNetwork(seed=1)
        net.bootstrap()
        with pytest.raises(ValueError):
            net.bootstrap()

    def test_root_accepts_first_two_joins(self):
        net = BatonNetwork(seed=1)
        root = net.bootstrap()
        first = net.join(via=root)
        second = net.join(via=root)
        assert first.parent == root
        assert second.parent == root
        assert net.peer(first.address).position == Position(1, 1)
        assert net.peer(second.address).position == Position(1, 2)

    @pytest.mark.parametrize("n_peers", [2, 3, 5, 8, 13, 21, 34, 55])
    def test_invariants_hold_at_every_size(self, n_peers):
        make_network(n_peers, seed=3)

    def test_incremental_invariants(self):
        net = BatonNetwork(seed=5)
        net.bootstrap()
        for _ in range(60):
            net.join()
            check_invariants(net)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_different_seeds_all_valid(self, seed):
        make_network(64, seed=seed)

    def test_height_within_balanced_bound(self):
        for n_peers in (50, 150, 400):
            net = make_network(n_peers, seed=1)
            assert tree_height(net) <= math.ceil(1.44 * math.log2(n_peers)) + 1

    def test_range_split_shares_data(self):
        net = BatonNetwork(seed=2)
        root = net.bootstrap()
        for key in range(100, 200):
            net.peer(root).store.insert(key)
        result = net.join(via=root)
        child = net.peer(result.address)
        parent = net.peer(root)
        assert len(child.store) + len(parent.store) == 100
        assert len(child.store) == 50  # median split halves the content
        assert child.range.high == parent.range.low  # left child precedes


class TestMessageCosts:
    def test_join_update_within_paper_bound(self):
        net = make_network(200, seed=9)
        for _ in range(20):
            result = net.join()
            bound = 6 * math.log2(net.size) + 10
            assert result.update_trace.total <= bound, (
                result.update_trace.total,
                bound,
            )

    def test_join_find_messages_are_join_find_type(self):
        net = make_network(50, seed=9)
        result = net.join()
        assert result.find_trace.total == result.find_trace.count(MsgType.JOIN_FIND)

    def test_join_find_cheap_and_flat(self):
        # The paper's observation: finding the join spot costs a few
        # messages regardless of network size.
        small = make_network(50, seed=4)
        large = make_network(500, seed=4)
        small_costs = [small.join().find_trace.total for _ in range(30)]
        large_costs = [large.join().find_trace.total for _ in range(30)]
        assert sum(large_costs) / 30 <= sum(small_costs) / 30 + 4

    def test_total_messages_property(self):
        net = make_network(30, seed=1)
        result = net.join()
        assert result.total_messages == (
            result.find_trace.total + result.update_trace.total
        )


class TestJoinPlacement:
    def test_new_node_is_leaf(self):
        net = make_network(40, seed=8)
        result = net.join()
        assert net.peer(result.address).is_leaf

    def test_parent_has_full_tables(self):
        # Theorem 1's acceptance condition, checked post-hoc.
        net = make_network(40, seed=8)
        result = net.join()
        parent = net.peer(result.parent)
        assert parent.tables_full()

    def test_join_via_every_entry_point(self):
        net = make_network(25, seed=6)
        for entry in list(net.addresses())[:10]:
            net.join(via=entry)
            check_invariants(net)

    def test_stats_track_joins(self):
        net = make_network(10, seed=0)
        before = net.stats.joins
        net.join()
        assert net.stats.joins == before + 1


class TestNarrowRanges:
    """Width-1 ranges refuse to split gracefully (no ValueError crashes)."""

    def test_join_saturates_narrow_domain_gracefully(self):
        from repro.core import BatonConfig
        from repro.core.ranges import Range
        from repro.util.errors import ProtocolError, ReproError

        config = BatonConfig(domain=Range(0, 4))
        net = BatonNetwork(config=config, seed=3)
        net.bootstrap()
        joined = 1
        error = None
        for _ in range(8):
            try:
                net.join()
                joined += 1
            except ReproError as exc:
                error = exc
                break
        # the domain holds at most 4 width-1 peers; the refusal is a
        # ProtocolError (defined library error), never a ValueError crash
        assert joined == 4
        assert isinstance(error, ProtocolError)
        assert net.size == 4
        check_invariants(net)
        assert all(p.range.width == 1 for p in net.peers.values())

    def test_saturated_network_still_serves_queries(self):
        from repro.core import BatonConfig
        from repro.core.ranges import Range
        from repro.util.errors import ReproError

        config = BatonConfig(domain=Range(0, 4))
        net = BatonNetwork(config=config, seed=3)
        net.bootstrap()
        for _ in range(3):
            net.join()
        net.insert(2)
        assert net.search_exact(2).found
        try:
            net.join()
        except ReproError:
            pass
        assert net.search_exact(2).found  # refusal left routing intact

    def test_balance_rejoin_refuses_unsplittable_hotspot(self):
        from repro.core import BatonConfig, LoadBalanceConfig
        from repro.core.balance import maybe_balance
        from repro.core.ranges import Range

        config = BatonConfig(
            domain=Range(0, 4),
            balance=LoadBalanceConfig(capacity=3, enabled=True),
        )
        net = BatonNetwork(config=config, seed=3)
        net.bootstrap()
        for _ in range(3):
            net.join()
        # overload one width-1 leaf with duplicates: the adjacent shift
        # cannot place a boundary and the rejoin cannot split, so the
        # episode moves nothing (kind None) instead of crashing mid-protocol
        leaf = next(p for p in net.peers.values() if p.is_leaf)
        for _ in range(10):
            leaf.store.insert(leaf.range.low)
        assert maybe_balance(net, leaf.address).kind is None
        assert not net.stats.balance_events
        check_invariants(net)


class TestBoxedInWalk:
    """Algorithm 1 boxed in by unrepaired ghosts (the branch the sync
    facade reaches now that it drives the shared walk generator)."""

    @staticmethod
    def _boxed_in(seed=3):
        """A network whose peer ``start`` cannot accept a child and has
        every one of its links dead."""
        net = BatonNetwork.build(40, seed=seed)
        stuck = min(
            (p for p in net.peers.values() if not join_protocol.can_accept_join(p)),
            key=lambda p: (len(set(p.link_addresses())), p.address),
        )
        for address in sorted(set(stuck.link_addresses())):
            net.fail(address)
        return net, stuck.address

    def test_walk_reenters_through_a_fresh_contact(self):
        net, start = self._boxed_in()
        hops = []
        steps = join_protocol.find_join_parent_steps(net, start)
        with pytest.raises(StopIteration) as stop:
            while True:
                hops.append(next(steps))
        reentries = [hop for hop in hops if hop.src is None]
        assert len(reentries) == 1  # one fresh client-ingress hop
        contact = reentries[0].dst
        assert contact != start and contact in net.peers
        # Same walk, visited set kept: it continues from the new contact
        # and never forwards back to the peer it was marooned at.
        after = hops[hops.index(reentries[0]) + 1:]
        assert after and all(hop.dst != start for hop in after)
        assert join_protocol.can_accept_join(net.peer(stop.value.value))

    def test_sync_join_survives_and_repairs_clean(self):
        net, start = self._boxed_in()
        draws = []
        draw = net.random_peer_address

        def spy():
            draws.append(draw())
            return draws[-1]

        net.random_peer_address = spy
        size = net.size
        result = net.join(via=start)
        assert len(draws) == 1  # re-entered inside the walk, not by re-walking
        assert start not in result.find_trace.path
        assert net.size == size + 1
        net.repair_all()
        assert collect_violations(net) == []

    def test_healthy_network_still_raises_when_boxed_in(self):
        net, start = self._boxed_in()
        # Nothing says stale links are expected: no crash is known to the
        # network (an unrepaired ghost would make it degraded on its own)
        # and the caller reports no concurrency.
        net.ghosts.clear()
        with pytest.raises(ProtocolError, match="no forwarding target"):
            for _ in join_protocol.find_join_parent_steps(
                net, start, degraded=lambda: False
            ):
                pass


class TestScheduledRefreshes:
    """Under the runtime's scheduled ``UpdateChannel`` a refresh lands a
    link delay after it is sent, and must carry the state sent then."""

    def test_closing_parent_refresh_carries_the_state_at_send(self):
        from repro.core.links import LEFT, RIGHT
        from repro.core.peer import BatonPeer
        from repro.net.address import Address
        from repro.sim.engine import Simulator
        from repro.sim.latency import ConstantLatency

        net = BatonNetwork.build(15, seed=2, bulk=True)  # a perfect tree
        sim = Simulator()
        net.updates.attach(sim, ConstantLatency(1.0))
        parent = next(p for p in net.peers.values() if p.position == Position(3, 3))
        # A stand-in child two levels down: none of its slots' parents sit
        # at the parent's level, so the relay contacts no one and the
        # closing refresh reaches every sideways neighbour of the parent.
        stand_in = BatonPeer(Address(999), Position(5, 17), parent.range)
        sent = parent.snapshot()
        join_protocol._fill_child_tables(net, parent, stand_in)
        neighbours = [
            net.peer(info.address)
            for side in (LEFT, RIGHT)
            for _, info in parent.table_on(side).occupied()
        ]
        assert neighbours and net.updates.in_flight == len(neighbours)
        # The parent changes again before the refreshes land.
        parent.range = parent.range.split_at(parent.range.low + 1)[1]
        sim.run()
        for neighbour in neighbours:
            held = [
                info
                for _, info in neighbour.iter_links()
                if info.address == parent.address
            ]
            assert held and all(info == sent for info in held)
