"""Protocol tests: network restructuring (§III-E forced shifts)."""

import random
import sys

import pytest

from repro.core import (
    BatonConfig,
    BatonNetwork,
    LoadBalanceConfig,
    check_invariants,
    collect_violations,
)
from repro.core.ids import Position
from repro.core.links import LEFT, RIGHT, NodeInfo, RoutingTable
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.core import restructure
from repro.core.leave import can_depart_simply
from repro.workloads.generators import uniform_keys

from tests.conftest import make_network, table_slots


class TestMapHelpers:
    def test_inorder_neighbors_match_sorted_order(self):
        net = make_network(45, seed=2)
        import functools

        positions = sorted(
            (position for position, _ in net.occupied_positions()),
            key=functools.cmp_to_key(
                lambda a, b: -1 if a.inorder_lt(b) else (1 if b.inorder_lt(a) else 0)
            ),
        )
        occupied = net.occupancy()
        neighbor = restructure.inorder_neighbor_code
        for before, after in zip(positions, positions[1:]):
            assert neighbor(occupied, before.code, RIGHT) == after.code
            assert neighbor(occupied, after.code, LEFT) == before.code
        assert neighbor(occupied, positions[0].code, LEFT) is None
        assert neighbor(occupied, positions[-1].code, RIGHT) is None

    def test_map_snapshot_matches_peer(self):
        net = make_network(20, seed=3)
        view = restructure.MapView(net)
        for position, address in net.occupied_positions():
            snap = view[position.code]
            peer = net.peer(address)
            assert snap.address == address
            assert snap.range == peer.range
            assert snap.left_child == net.occupant(position.left_child())

    def test_map_snapshot_of_empty_slot_is_none(self):
        net = make_network(5, seed=3)
        assert restructure.MapView(net)[Position(9, 1).code] is None

    def test_refresh_links_reproduces_state(self):
        net = make_network(30, seed=4)
        victim = net.peer(net.random_peer_address())
        before = {
            "parent": victim.parent.address if victim.parent else None,
            "left": victim.left_adjacent.address if victim.left_adjacent else None,
            "right": victim.right_adjacent.address if victim.right_adjacent else None,
        }
        restructure.refresh_links_from_map(restructure.MapView(net), victim)
        after = {
            "parent": victim.parent.address if victim.parent else None,
            "left": victim.left_adjacent.address if victim.left_adjacent else None,
            "right": victim.right_adjacent.address if victim.right_adjacent else None,
        }
        assert before == after
        check_invariants(net)


# -- the naive reference the heap-coded rebuild is pinned against -------------
#
# The Position-walking rebuild as it stood before the map view: one slot at a
# time through ``net.occupant``, nothing shared, nothing cached.


def oracle_inorder_neighbor(net: BatonNetwork, position: Position, side: str):
    if side == RIGHT:
        down, other = Position.right_child, Position.left_child
    else:
        down, other = Position.left_child, Position.right_child
    current = down(position)
    if net.occupant(current) is not None:
        while net.occupant(other(current)) is not None:
            current = other(current)
        return current
    current = position
    while current.parent() is not None:
        came_from_left = current.is_left_child
        current = current.parent()
        if came_from_left == (side == RIGHT):
            return current
    return None


def oracle_snapshot(net: BatonNetwork, position, include_ghosts: bool):
    address = net.occupant(position) if position is not None else None
    if address is None:
        return None
    holder = net.peers.get(address)
    if holder is None and include_ghosts:
        holder = net.ghosts.get(address)
    if holder is None:
        return None  # an invisible ghost; its slot still counts as occupied
    return NodeInfo(
        address=address,
        position=position,
        range=holder.range,
        left_child=net.occupant(position.left_child()),
        right_child=net.occupant(position.right_child()),
    )


def oracle_links(net: BatonNetwork, peer: BatonPeer, include_ghosts: bool) -> dict:
    position = peer.position

    def snap(slot):
        return oracle_snapshot(net, slot, include_ghosts)

    return {
        "parent": snap(position.parent()),
        "left_child": snap(position.left_child()),
        "right_child": snap(position.right_child()),
        "left_adjacent": snap(oracle_inorder_neighbor(net, position, LEFT)),
        "right_adjacent": snap(oracle_inorder_neighbor(net, position, RIGHT)),
        "left_table": [snap(slot) for slot in table_slots(position, LEFT)],
        "right_table": [snap(slot) for slot in table_slots(position, RIGHT)],
    }


def written_links(peer: BatonPeer) -> dict:
    for side in (LEFT, RIGHT):
        table = peer.table_on(side)
        assert (table.owner, table.side) == (peer.position, side)
    return {
        "parent": peer.parent,
        "left_child": peer.left_child,
        "right_child": peer.right_child,
        "left_adjacent": peer.left_adjacent,
        "right_adjacent": peer.right_adjacent,
        "left_table": peer.left_table.entries,
        "right_table": peer.right_table.entries,
    }


def assert_rebuild_matches_oracle(net: BatonNetwork) -> None:
    """Every peer (and every ghost, as repair refreshes those too), both
    ghost visibilities, one view per pass like a real batch."""
    for include_ghosts in (False, True):
        view = restructure.MapView(net, include_ghosts=include_ghosts)
        for peer in list(net.peers.values()) + list(net.ghosts.values()):
            restructure.refresh_links_from_map(view, peer)
            assert written_links(peer) == oracle_links(net, peer, include_ghosts)


def churned_network_with_ghosts() -> BatonNetwork:
    """Joins and leaves, then four crashes left unrepaired — two of them a
    leaf and its parent, the double failure whose dead child must stay
    visible under ``include_ghosts`` and occupied without it."""
    net = make_network(60, seed=5)
    for _ in range(12):
        net.leave(net.random_peer_address())
        net.join()
    child = next(
        p
        for p in net.peers.values()
        if p.is_leaf and p.position.level >= 3 and p.position.is_left_child
    )
    parent = net.peer(child.parent.address)
    doomed = [child.address, parent.address]
    doomed += [a for a in sorted(net.peers) if a not in doomed][5:35:15]
    for address in doomed:
        net.fail(address)
    assert len(net.ghosts) >= 3
    assert net.occupant(child.position.parent()) in net.ghosts
    return net


def distinct_snapshots(net: BatonNetwork) -> int:
    return len(
        {id(info) for peer in net.peers.values() for _, info in peer.iter_links()}
    )


class TestRebuildAgainstOracle:
    @pytest.mark.parametrize("n_peers", range(2, 65))
    def test_join_grown(self, n_peers):
        assert_rebuild_matches_oracle(make_network(n_peers, seed=n_peers))

    def test_bulk_built(self):
        assert_rebuild_matches_oracle(BatonNetwork.build(1000, bulk=True))

    def test_unrepaired_ghosts_including_dead_child_under_dead_parent(self):
        net = churned_network_with_ghosts()
        assert_rebuild_matches_oracle(net)
        # The two ghost semantics, spelled out on the double failure.
        dead_child = next(
            ghost
            for ghost in net.ghosts.values()
            if net.occupant(ghost.position.parent()) in net.ghosts
        )
        dead_parent = net.ghosts[net.occupant(dead_child.position.parent())]
        code = dead_child.position.code
        hidden = restructure.MapView(net, include_ghosts=False)
        shown = restructure.MapView(net, include_ghosts=True)
        assert hidden[code] is None and shown[code].address == dead_child.address
        assert shown[dead_parent.position.code].left_child == dead_child.address
        # The dead parent is invisible too, yet its slot is still a child
        # of its live parent and still a step of the adjacency walk.
        grandparent = dead_parent.position.parent()
        assert net.occupant(grandparent) in net.peers
        snap = hidden[grandparent.code]
        assert dead_parent.address in (snap.left_child, snap.right_child)
        assert hidden[dead_parent.position.code] is None
        assert (
            restructure.inorder_neighbor_code(hidden.occupancy, code, RIGHT)
            == dead_parent.position.code
        )


class TestOneSnapshotPerSlot:
    """DESIGN.md, "Memory is part of the contract": a swept network holds
    one NodeInfo per occupied slot, shared by all its linkers."""

    def test_reconcile_keeps_and_restores_the_sharing(self):
        from repro.sim.runtime import AsyncOverlayRuntime

        anet = AsyncOverlayRuntime(BatonNetwork.build(1024, bulk=True))
        net = anet.net
        assert distinct_snapshots(net) == 1024  # the bulk build's own sharing

        anet.reconcile()
        assert distinct_snapshots(net) <= len(net.occupancy())
        assert collect_violations(net) == []

        for address in sorted(net.peers)[100:900:200]:
            anet.submit_fail(address)
        anet.drain()
        assert len(net.ghosts) == 4
        anet.repair_all()
        # Each repair batch had its own view, so sharing is a post-sweep
        # property: the sweep is what brings it back to one per slot.
        anet.reconcile()
        assert len(net.peers) == 1020
        assert distinct_snapshots(net) <= len(net.occupancy())
        assert collect_violations(net) == []


# -- the kernel's reference ---------------------------------------------------
#
# The heap-coded rebuild before it read the raw position map, took the
# occupant's own position and filled rows from precomputed distances: the
# read-only proxy, ``Position.from_code``, NodeInfo's constructor and
# RoutingTable's own width computation.


class ReferenceMapView(dict):
    def __init__(self, net: BatonNetwork, include_ghosts: bool = False):
        super().__init__()
        self.occupancy = net.occupancy()
        self._peers = net.peers
        self._ghosts = net.ghosts if include_ghosts else {}

    def __missing__(self, code: int):
        occupancy = self.occupancy
        address = occupancy.get(code)
        peer = self._peers.get(address)
        if peer is None:
            peer = self._ghosts.get(address)
        if peer is None:
            snapshot = None
        else:
            snapshot = NodeInfo(
                address,
                Position.from_code(code),
                peer.range,
                occupancy.get(2 * code),
                occupancy.get(2 * code + 1),
            )
        self[code] = snapshot
        return snapshot


def reference_refresh(view: ReferenceMapView, peer: BatonPeer) -> None:
    position = peer.position
    code = position.code
    peer.parent = view[code >> 1] if code > 1 else None
    peer.left_child = view[2 * code]
    peer.right_child = view[2 * code + 1]
    left = restructure.inorder_neighbor_code(view.occupancy, code, LEFT)
    peer.left_adjacent = view[left] if left is not None else None
    right = restructure.inorder_neighbor_code(view.occupancy, code, RIGHT)
    peer.right_adjacent = view[right] if right is not None else None
    peer.left_table = table = RoutingTable(owner=position, side=LEFT)
    table.entries[:] = [view[code - (1 << i)] for i in table.valid_indices()]
    peer.right_table = table = RoutingTable(owner=position, side=RIGHT)
    table.entries[:] = [view[code + (1 << i)] for i in table.valid_indices()]


def async_churned_network_with_ghosts() -> BatonNetwork:
    """Overlapping joins, leaves and inserts through the event runtime,
    then crashes left unrepaired — a leaf and its parent among them."""
    from repro.sim.latency import ExponentialLatency
    from repro.sim.runtime import AsyncOverlayRuntime
    from repro.util.rng import SeededRng
    from repro.workloads.generators import uniform_keys

    net = BatonNetwork.build(200, seed=7, bulk=True, keys=uniform_keys(2000, seed=7))
    anet = AsyncOverlayRuntime(net, topology=ExponentialLatency(1.0, SeededRng(7)))
    rng = random.Random(7)
    domain = net.domain
    for address in rng.sample(sorted(net.peers), 30):
        anet.submit_join()
        anet.submit_leave(address)
        anet.submit_insert(rng.randrange(domain.low, domain.high))
    anet.drain()
    child = next(
        p
        for p in net.peers.values()
        if p.is_leaf and p.position.level >= 3 and p.parent is not None
    )
    doomed = [child.address, child.parent.address]
    doomed += [a for a in sorted(net.peers) if a not in doomed][10:100:30]
    for address in doomed:
        anet.submit_fail(address)
    anet.drain()
    assert len(net.ghosts) == len(doomed)
    return net


class TestKernelAgainstReference:
    """The rebuild kernel writes exactly the reference's links, its
    snapshots carry the slot's position, and its rows stay exact-size."""

    @pytest.fixture(scope="class")
    def net(self):
        return async_churned_network_with_ghosts()

    @pytest.mark.parametrize("include_ghosts", [False, True])
    def test_links_equal_the_reference(self, net, include_ghosts):
        reference = ReferenceMapView(net, include_ghosts=include_ghosts)
        view = restructure.MapView(net, include_ghosts=include_ghosts)
        for peer in list(net.peers.values()) + list(net.ghosts.values()):
            reference_refresh(reference, peer)
            expected = written_links(peer)
            restructure.refresh_links_from_map(view, peer)
            assert written_links(peer) == expected
        assert dict(view) == dict(reference)  # every snapshot either built

    def test_snapshot_position_is_the_slot(self, net):
        view = restructure.MapView(net, include_ghosts=True)
        for code in net.occupancy():
            snapshot = view[code]
            assert type(snapshot) is NodeInfo
            assert snapshot.position == Position.from_code(code)

    def test_rows_are_exact_size(self, net):
        view = restructure.MapView(net, include_ghosts=True)
        for peer in list(net.peers.values()) + list(net.ghosts.values()):
            restructure.refresh_links_from_map(view, peer)
            for table, slots in (
                (peer.left_table, table_slots(peer.position, LEFT)),
                (peer.right_table, table_slots(peer.position, RIGHT)),
            ):
                width = len(slots)
                assert len(table.entries) == width
                assert sys.getsizeof(table.entries) == sys.getsizeof([None] * width)


def find_forced_parent(net: BatonNetwork) -> BatonPeer:
    """A leaf whose tables are not full: forced join there must restructure."""
    for peer in net.peers.values():
        if peer.is_leaf and not peer.tables_full() and peer.range.width > 4:
            return peer
    raise AssertionError("expected at least one frontier leaf with sparse tables")


class TestForcedJoin:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_forced_add_child_restores_invariants(self, seed):
        net = make_network(37, seed=seed)
        target = find_forced_parent(net)
        newcomer = BatonPeer(net.alloc.allocate(), Position(0, 1), Range(0, 1))
        side = LEFT if target.left_child is None else RIGHT
        moves = restructure.forced_add_child(net, target, side, newcomer)
        assert moves >= 1  # sparse tables mean a shift was required
        assert newcomer.address in net.peers
        check_invariants(net)

    def test_forced_add_child_on_acceptable_parent_is_plain_join(self):
        net = make_network(37, seed=3)
        target = next(p for p in net.peers.values() if p.can_accept_child())
        newcomer = BatonPeer(net.alloc.allocate(), Position(0, 1), Range(0, 1))
        side = LEFT if target.left_child is None else RIGHT
        moves = restructure.forced_add_child(net, target, side, newcomer)
        assert moves == 0
        check_invariants(net)

    def test_forced_join_splits_content(self):
        net = make_network(37, seed=1)
        target = find_forced_parent(net)
        for key in range(target.range.low, target.range.low + 50):
            target.store.insert(key)
        newcomer = BatonPeer(net.alloc.allocate(), Position(0, 1), Range(0, 1))
        side = LEFT if target.left_child is None else RIGHT
        restructure.forced_add_child(net, target, side, newcomer)
        assert len(newcomer.store) == 25
        assert len(target.store) == 25

    def test_shift_sizes_recorded(self):
        net = make_network(37, seed=0)
        before = len(net.stats.restructure_shift_sizes)
        target = find_forced_parent(net)
        newcomer = BatonPeer(net.alloc.allocate(), Position(0, 1), Range(0, 1))
        side = LEFT if target.left_child is None else RIGHT
        restructure.forced_add_child(net, target, side, newcomer)
        assert len(net.stats.restructure_shift_sizes) == before + 1


class TestExtremeFallback:
    def test_small_trees_stay_balanced_under_forced_joins(self):
        """A shift chain that runs off the tree's extreme parks its last
        peer under the extreme peer's old slot, which is safe exactly
        when that peer's tables are full.  Reported as always unsafe, the
        safe chain lost to the shorter one, and a 2-peer tree hung a
        grandchild under a one-sided root (15 of these seeds)."""
        config = BatonConfig(balance=LoadBalanceConfig(capacity=4))
        unbalanced = []
        for seed in range(200):
            net = BatonNetwork.build(3, seed=seed, config=config)
            for key in uniform_keys(30, seed=seed):
                net.insert(key)
            if collect_violations(net):
                unbalanced.append(seed)
        assert unbalanced == []


class TestForcedRemoval:
    def find_unsafe_leaf(self, net: BatonNetwork) -> BatonPeer:
        for peer in net.peers.values():
            if peer.is_leaf and not can_depart_simply(peer) and peer.parent:
                return peer
        raise AssertionError("expected an unsafe leaf")

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_depart_with_restructure_restores_invariants(self, seed):
        net = make_network(41, seed=seed)
        victim = self.find_unsafe_leaf(net)
        absorber = victim.right_adjacent or victim.left_adjacent
        moves = restructure.depart_with_restructure(net, victim, absorber.address)
        assert victim.address not in net.peers
        assert moves >= 1
        check_invariants(net)

    def test_content_flows_to_named_adjacent(self):
        net = make_network(41, seed=2)
        victim = self.find_unsafe_leaf(net)
        victim.store.insert(victim.range.low)
        absorber_info = victim.right_adjacent or victim.left_adjacent
        key = victim.range.low
        restructure.depart_with_restructure(net, victim, absorber_info.address)
        absorber = net.peer(absorber_info.address)
        assert key in absorber.store
        check_invariants(net)

    def test_rejects_internal_node(self):
        net = make_network(41, seed=2)
        internal = next(p for p in net.peers.values() if not p.is_leaf)
        from repro.util.errors import ProtocolError

        with pytest.raises(ProtocolError):
            absorber = internal.left_adjacent or internal.right_adjacent
            restructure.depart_with_restructure(net, internal, absorber.address)
