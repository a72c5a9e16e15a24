"""Protocol tests: node departure (Algorithm 2 + graceful leave)."""

import math
import random

import pytest

from repro.core import BatonNetwork, check_invariants
from repro.core.ids import ROOT, Position
from repro.core.leave import can_depart_simply, depart_leaf, descend_steps
from repro.util.errors import PeerNotFoundError, ProtocolError

from tests.conftest import make_network


def all_keys(net: BatonNetwork) -> list[int]:
    keys: list[int] = []
    for peer in net.peers.values():
        keys.extend(peer.store)
    return sorted(keys)


class TestSimpleDeparture:
    def test_last_peer_leaves(self):
        net = BatonNetwork(seed=1)
        root = net.bootstrap()
        result = net.leave(root)
        assert net.size == 0
        assert result.replacement is None

    def test_leaf_departure_merges_range_and_content(self):
        net = BatonNetwork(seed=1)
        root = net.bootstrap()
        child = net.join(via=root).address
        net.peer(child).store.insert(5)
        net.leave(child)
        assert net.size == 1
        survivor = net.peer(root)
        assert survivor.range == net.config.domain
        assert 5 in survivor.store

    def test_parent_named_as_adjacent_hears_once(self):
        """A left-child leaf's right adjacent is its parent.  Naming the
        parent through that role must cost what the default absorber
        costs: one LEAVE_TRANSFER to the parent and one broadcast round,
        not a second of each."""
        spent = []
        for name_parent_as_adjacent in (False, True):
            net = BatonNetwork.build(40, bulk=True)
            leaf = next(
                peer for peer in net.peers.values() if peer.position == Position(5, 9)
            )
            assert can_depart_simply(leaf)
            assert leaf.right_adjacent.address == leaf.parent.address
            absorber = leaf.right_adjacent.address if name_parent_as_adjacent else None
            with net.bus.trace("depart") as trace:
                depart_leaf(net, leaf, absorber)
            spent.append(dict(trace.by_type))
        assert spent[1] == spent[0]

    def test_departed_address_unreachable(self):
        net = make_network(10, seed=2)
        victim = net.random_peer_address()
        net.leave(victim)
        with pytest.raises(PeerNotFoundError):
            net.peer(victim)


class TestReplacementDeparture:
    def test_internal_node_leave_finds_replacement(self):
        net = make_network(50, seed=3)
        internal = next(
            a for a, p in net.peers.items() if not p.is_leaf and p.parent is not None
        )
        result = net.leave(internal)
        assert result.replacement is not None
        check_invariants(net)

    def test_root_leave(self):
        net = make_network(30, seed=4)
        root = net.occupant(ROOT)
        result = net.leave(root)
        assert result.replacement is not None
        check_invariants(net)

    def test_replacement_keeps_departed_range(self):
        net = make_network(40, seed=5)
        internal = next(a for a, p in net.peers.items() if not p.is_leaf)
        departed_range = net.peer(internal).range
        departed_pos = net.peer(internal).position
        result = net.leave(internal)
        replacement = net.peer(result.replacement)
        assert replacement.position == departed_pos
        # range may have grown if the replacement's own range merged in
        assert replacement.range.low <= departed_range.low
        assert replacement.range.high >= departed_range.high

    def test_no_key_is_lost_across_departures(self, rng):
        net = make_network(60, seed=6)
        keys = [rng.randint(1, 10**9 - 1) for _ in range(500)]
        net.bulk_load(keys)
        for _ in range(40):
            net.leave(net.random_peer_address())
        assert all_keys(net) == sorted(keys)

    def test_message_cost_within_paper_bound(self):
        net = make_network(300, seed=7)
        for _ in range(30):
            result = net.leave(net.random_peer_address())
            bound = 8 * math.log2(net.size + 1) + 16
            assert result.total_messages <= bound * 2, result.total_messages


class TestChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_join_leave_keeps_invariants(self, seed):
        net = make_network(40, seed=seed)
        mix = random.Random(seed)
        for _ in range(120):
            if mix.random() < 0.5 and net.size > 2:
                net.leave(mix.choice(net.addresses()))
            else:
                net.join()
        check_invariants(net)

    def test_shrink_to_singleton_and_regrow(self):
        net = make_network(20, seed=8)
        while net.size > 1:
            net.leave(net.random_peer_address())
        check_invariants(net)
        for _ in range(20):
            net.join()
        check_invariants(net)

    def test_stats_track_leaves(self):
        net = make_network(10, seed=0)
        before = net.stats.leaves
        net.leave(net.random_peer_address())
        assert net.stats.leaves == before + 1


class TestSafetyPredicates:
    def test_deepest_leaf_with_quiet_neighbours_departs_simply(self):
        net = make_network(33, seed=9)
        simple = [a for a, p in net.peers.items() if can_depart_simply(p)]
        assert simple, "a balanced tree always has safely removable leaves"
        for address in simple[:3]:
            result = net.leave(address)
            assert result.replacement is None
            check_invariants(net)

    def test_internal_nodes_never_depart_simply(self):
        net = make_network(33, seed=9)
        for peer in net.peers.values():
            if not peer.is_leaf:
                assert not can_depart_simply(peer)


class TestDescent:
    @pytest.mark.parametrize("tolerate_dead", [False, True])
    def test_dead_first_child(self, tolerate_dead):
        """Algorithm 2's one descent, both callers: graceful leave dead-ends
        on a dead first child; repair pays for it and takes the sibling."""
        net = make_network(30, seed=1)
        start = next(
            peer
            for peer in sorted(net.peers.values(), key=lambda p: p.address)
            if peer.left_child is not None and peer.right_child is not None
        )
        net.fail(start.left_child.address)
        sibling = start.right_child.address
        hops = []
        steps = descend_steps(net, start.address, tolerate_dead=tolerate_dead)
        with pytest.raises(StopIteration) as stop:
            while True:
                hops.append(next(steps))
        found = stop.value.value
        if not tolerate_dead:
            assert found is None and hops == []
            return
        assert hops[0].src == start.address and hops[0].dst == sibling
        assert can_depart_simply(net.peer(found))


class TestReplacementDeadEnd:
    def test_dead_hop_raises_protocol_error_and_changes_nothing(self):
        """Algorithm 2 dead-ending on a crashed peer is a ProtocolError
        naming the dead end (never a bare PeerNotFoundError), and the
        departing peer stays registered with the structure untouched."""
        net = make_network(30, seed=4)
        departing = next(
            peer
            for peer in sorted(net.peers.values(), key=lambda p: p.address)
            if peer.left_child is not None and peer.left_adjacent is not None
        )
        net.fail(departing.left_adjacent.address)  # the walk's first hop

        def structure():
            return {
                (a, str(p.position), p.range.low, p.range.high, tuple(p.store))
                for a, p in net.peers.items()
            }

        before = structure()
        leaves = net.stats.leaves
        with pytest.raises(ProtocolError, match="dead end") as raised:
            net.leave(departing.address)
        assert not isinstance(raised.value, PeerNotFoundError)
        assert net.peers[departing.address] is departing
        assert structure() == before
        assert net.stats.leaves == leaves


class TestDeadParent:
    def test_leaf_under_a_dead_parent_keeps_its_keys(self):
        """A graceful leave never hands content to a dead peer: with the
        parent crashed and unrepaired, the leaf's departure raises and the
        leaf keeps its range and keys (only a repair writes ghost state)."""
        net = make_network(30, seed=2)
        net.bulk_load(list(range(1, 10**9, 10**6)))
        leaf = next(
            peer
            for peer in sorted(net.peers.values(), key=lambda p: p.address)
            if can_depart_simply(peer) and peer.store
        )
        keys, span = list(leaf.store), leaf.range
        net.fail(leaf.parent.address)
        with pytest.raises(PeerNotFoundError):
            net.leave(leaf.address)
        assert net.peer(leaf.address) is leaf
        assert list(leaf.store) == keys and leaf.range == span
