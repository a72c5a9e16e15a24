"""The per-message link kernels against the generic versions they replaced.

``BatonPeer``'s table-update apply (``update_link_info``,
``replace_link_address``, ``set_table_entry``, ``clear_table_entry``),
``join.fill_child_tables`` and the walk's routing pick compute table slots
by number arithmetic and write rows directly.  The ``reference_*``
functions below are the generic definitions they replaced — side
accessors, ``RoutingTable.set``'s checks, ``Position`` equality — kept
verbatim as the oracle, as ``TestKernelAgainstReference`` keeps the old
rebuild.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BatonConfig, BatonNetwork, join, search
from repro.core.cache import CacheStats, RouteCache
from repro.core.ids import Position
from repro.core.links import LEFT, RIGHT, NodeInfo
from repro.core.peer import BatonPeer
from repro.core.ranges import Range
from repro.net.address import Address
from repro.net.message import MsgType

from tests.conftest import table_slots

# -- the reference kernels ------------------------------------------------------


def reference_set_table_entry(peer: BatonPeer, info: NodeInfo) -> bool:
    slot = peer.table_slot_for(info.position)
    if slot is None:
        return False
    side, index = slot
    peer.table_on(side).set(index, info)
    return True


def reference_clear_table_entry(peer: BatonPeer, position: Position) -> bool:
    slot = peer.table_slot_for(position)
    if slot is None:
        return False
    side, index = slot
    peer.table_on(side).set(index, None)
    return True


def reference_update_link_info(peer: BatonPeer, info: NodeInfo) -> int:
    if peer.route_cache is not None:
        info_range = info.range
        peer.route_cache.refresh(info.address, info_range.low, info_range.high)
    updated = 0
    if peer.parent is not None and peer.parent.address == info.address:
        peer.parent = info
        updated += 1
    expected_slot = peer.table_slot_for(info.position)
    for side in (LEFT, RIGHT):
        child = peer.child_on(side)
        if child is not None and child.address == info.address:
            peer.set_child(side, info)
            updated += 1
        adjacent = peer.adjacent_on(side)
        if adjacent is not None and adjacent.address == info.address:
            peer.set_adjacent(side, info)
            updated += 1
        table = peer.table_on(side)
        if expected_slot is not None and expected_slot[0] == side:
            index = expected_slot[1]
            current = table.get(index)
            if current is not None and current.address == info.address:
                table.set(index, info)
                updated += 1
                continue
        found = table.entry_for_address(info.address)
        if found is not None:
            index, _ = found
            if table.position_at(index) == info.position:
                table.set(index, info)
            else:
                table.set(index, None)
            updated += 1
    return updated


def reference_replace_link_address(
    peer: BatonPeer, old: Address, info: NodeInfo
) -> int:
    if peer.route_cache is not None:
        peer.route_cache.invalidate(old)
    updated = 0
    if peer.parent is not None and peer.parent.address == old:
        peer.parent = info
        updated += 1
    for side in (LEFT, RIGHT):
        child = peer.child_on(side)
        if child is not None and child.address == old:
            peer.set_child(side, info)
            updated += 1
        adjacent = peer.adjacent_on(side)
        if adjacent is not None and adjacent.address == old:
            peer.set_adjacent(side, info)
            updated += 1
        table = peer.table_on(side)
        found = table.entry_for_address(old)
        if found is not None:
            index, _ = found
            if table.position_at(index) == info.position:
                table.set(index, info)
            else:
                table.set(index, None)
            updated += 1
    return updated


def reference_fill_child_tables(net, parent: BatonPeer, child: BatonPeer) -> None:
    sibling_position = child.position.sibling()
    contacted = {}
    for side in (LEFT, RIGHT):
        table = child.table_on(side)
        for index in table.valid_indices():
            slot = table.position_at(index)
            if slot is None or slot == sibling_position:
                continue
            parent_slot = slot.parent()
            table_slot = parent.table_slot_for(parent_slot)
            if table_slot is None:
                continue
            w_side, w_index = table_slot
            w_info = parent.table_on(w_side).get(w_index)
            if w_info is None:
                continue
            w_peer = contacted.get(w_info.address)
            if w_peer is None:
                if not join.try_message(
                    net, parent.address, w_info.address, MsgType.TABLE_UPDATE
                ):
                    continue
                w_peer = net.peer(w_info.address)
                w_peer.update_link_info(parent.snapshot())
                contacted[w_info.address] = w_peer
            occupant = None
            if w_peer.left_child is not None and w_peer.left_child.position == slot:
                occupant = w_peer.left_child.address
            elif w_peer.right_child is not None and w_peer.right_child.position == slot:
                occupant = w_peer.right_child.address
            if occupant is None:
                continue
            if not join.try_message(net, w_peer.address, occupant, MsgType.TABLE_UPDATE):
                continue
            c_peer = net.peer(occupant)
            c_peer.set_table_entry(child.snapshot())
            net.bus.send(occupant, child.address, MsgType.RESPONSE)
            child.set_table_entry(c_peer.snapshot())


def reference_next_hops(peer: BatonPeer, key: int):
    own = peer.address
    tried: tuple = ()
    if key >= peer.range.high:
        child, adjacent = peer.right_child, peer.right_adjacent
        for info in reversed(peer.right_table.entries):
            if info is not None and info.range.low <= key:
                address = info.address
                if address != own and address not in tried:
                    yield address
                    tried += (address,)
    else:
        child, adjacent = peer.left_child, peer.left_adjacent
        for info in reversed(peer.left_table.entries):
            if info is not None and info.range.high > key:
                address = info.address
                if address != own and address not in tried:
                    yield address
                    tried += (address,)
    for info in (child, adjacent):
        if info is not None:
            address = info.address
            if address != own and address not in tried:
                yield address
                tried += (address,)
    if tried and peer.parent is not None:
        address = peer.parent.address
        if address != own and address not in tried:
            yield address


# -- scenario material --------------------------------------------------------------


@pytest.fixture(scope="module")
def networks() -> list:
    """Join-grown networks, one churned, to draw peers from."""
    nets = [BatonNetwork.build(n, seed=seed) for n, seed in ((9, 1), (40, 2))]
    churned = BatonNetwork.build(48, seed=3)
    rng = random.Random(3)
    for _ in range(10):
        churned.leave(rng.choice(churned.addresses()))
        churned.join()
    nets.append(churned)
    return nets


def links_of(peer: BatonPeer) -> tuple:
    cache = peer.route_cache
    return (
        peer.parent,
        peer.left_child,
        peer.right_child,
        peer.left_adjacent,
        peer.right_adjacent,
        tuple(peer.left_table.entries),
        tuple(peer.right_table.entries),
        None if cache is None else (dict(cache._entries), cache.stats.snapshot()),
    )


def linked_addresses(peer: BatonPeer) -> list:
    return sorted({info.address for _, info in peer.iter_links()})


def candidate_positions(peer: BatonPeer) -> list:
    """Where a snapshot may claim to sit: every slot of either table, the
    peer's own position, its tree neighbours', a slot one level down."""
    position = peer.position
    positions = table_slots(position, LEFT) + table_slots(position, RIGHT)
    positions += [position, position.left_child(), position.right_child()]
    if position.parent() is not None:
        positions.append(position.parent())
    return positions


def corrupt(peer: BatonPeer, rng: random.Random, kind: str) -> None:
    """Plant what stale routing state leaves in a row: a hole, the peer
    itself, an address repeated at a second slot."""
    rows = [
        (table.entries, index)
        for table in (peer.left_table, peer.right_table)
        for index, _ in table.occupied()
    ]
    if not rows:
        return
    entries, index = rng.choice(rows)
    if kind == "none":
        entries[index] = None
    elif kind == "self":
        entries[index] = entries[index]._replace(address=peer.address)
    elif kind == "duplicate":
        source, source_index = rng.choice(rows)
        entries[index] = entries[index]._replace(
            address=source[source_index].address
        )


def draw_info(data, peer: BatonPeer, rng: random.Random) -> NodeInfo:
    """A snapshot naming a linked peer, the peer itself or a stranger, at
    the slot its links expect, at another slot (a move left the old entry
    stale), or off the tables entirely."""
    address = data.draw(
        st.sampled_from(linked_addresses(peer) + [peer.address, Address(10**6)])
    )
    position = data.draw(st.sampled_from(candidate_positions(peer)))
    low = rng.randrange(10**9)
    return NodeInfo(address, position, Range(low, low + rng.randrange(1, 10**6)))


def with_route_cache(peer: BatonPeer, rng: random.Random) -> None:
    cache = RouteCache(8, CacheStats())
    for address in linked_addresses(peer)[:6]:
        low = rng.randrange(10**9)
        cache.record(address, low, low + 100)
    peer.route_cache = cache


# -- the table-update apply ------------------------------------------------------------

KINDS = ("update", "replace", "set", "clear")


class TestApplyAgainstReference:
    """After every apply the kernel's links and return value equal the
    reference's, on rows holding holes, the peer itself, repeated
    addresses and entries at a slot a move left stale; route cache on and
    off."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        which=st.integers(0, 2),
        seed=st.integers(0, 10**6),
        cache=st.booleans(),
        corruptions=st.lists(st.sampled_from(("none", "self", "duplicate")), max_size=4),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    )
    def test_links_and_returns_match(
        self, networks, data, which, seed, cache, corruptions, kinds
    ):
        net = networks[which]
        rng = random.Random(seed)
        base = copy.deepcopy(net.peer(rng.choice(sorted(net.addresses()))))
        for kind in corruptions:
            corrupt(base, rng, kind)
        if cache:
            with_route_cache(base, rng)
        peer, reference = base, copy.deepcopy(base)
        for kind in kinds:
            info = draw_info(data, peer, rng)
            if kind == "update":
                got = peer.update_link_info(info)
                want = reference_update_link_info(reference, info)
            elif kind == "replace":
                old = data.draw(
                    st.sampled_from(linked_addresses(peer) + [Address(10**6)])
                )
                got = peer.replace_link_address(old, info)
                want = reference_replace_link_address(reference, old, info)
            elif kind == "set":
                got = peer.set_table_entry(info)
                want = reference_set_table_entry(reference, info)
            else:
                got = peer.clear_table_entry(info.position)
                want = reference_clear_table_entry(reference, info.position)
            assert got == want, kind
            assert links_of(peer) == links_of(reference), kind

    def test_a_moved_peer_left_at_its_old_slot_is_dropped(self, networks):
        """The stale-slot case by hand: a right-table neighbour announces
        a position one slot further out."""
        net = networks[1]
        peer = next(
            p for p in net.peers.values() if len(list(p.right_table.occupied())) >= 2
        )
        (near, info), (far, _) = list(peer.right_table.occupied())[:2]
        moved = info._replace(position=peer.right_table.position_at(far))
        twin = copy.deepcopy(peer)
        assert peer.update_link_info(moved) == reference_update_link_info(twin, moved)
        assert peer.right_table.entries[near] is None
        assert links_of(peer) == links_of(twin)


# -- the routing pick -----------------------------------------------------------------


def probe_keys(peer: BatonPeer) -> list:
    keys = {0, 10**10, peer.range.low - 1, peer.range.low, peer.range.high}
    for table in (peer.left_table, peer.right_table):
        for _, info in table.occupied():
            keys.update((info.range.low, info.range.high - 1, info.range.high))
    return sorted(keys)


class TestPickAgainstReference:
    """The walk's plain-call pick, then the stream seeded with it, is the
    reference stream; the unseeded stream still is too."""

    @settings(max_examples=40, deadline=None)
    @given(
        which=st.integers(0, 2),
        seed=st.integers(0, 10**6),
        corruptions=st.lists(st.sampled_from(("none", "self", "duplicate")), max_size=6),
        keys=st.lists(st.integers(0, 2 * 10**9), max_size=4),
    )
    def test_pick_then_seeded_stream(self, networks, which, seed, corruptions, keys):
        net = networks[which]
        rng = random.Random(seed)
        for address in rng.sample(sorted(net.addresses()), 4):
            peer = copy.deepcopy(net.peer(address))
            for kind in corruptions:
                corrupt(peer, rng, kind)
            for key in probe_keys(peer) + keys:
                expected = list(reference_next_hops(peer, key))
                assert list(search.next_hops(peer, key)) == expected
                pick = search.greedy_hop(peer, key)
                if pick is None:
                    assert expected == []
                else:
                    seeded = list(search.next_hops(peer, key, (pick,)))
                    assert [pick] + seeded == expected


# -- whole protocols on the reference kernels -----------------------------------------


def recorded_run(patch: bool, monkeypatch) -> tuple:
    """Joins, leaves, writes, crashes and repairs with every send logged;
    on the reference kernels when ``patch``."""
    with monkeypatch.context() as m:
        if patch:
            m.setattr(BatonPeer, "update_link_info", reference_update_link_info)
            m.setattr(BatonPeer, "replace_link_address", reference_replace_link_address)
            m.setattr(BatonPeer, "set_table_entry", reference_set_table_entry)
            m.setattr(BatonPeer, "clear_table_entry", reference_clear_table_entry)
            m.setattr(join, "fill_child_tables", reference_fill_child_tables)
        net = BatonNetwork(config=BatonConfig(replication=True), seed=7)
        log = []
        inner = net.bus.send

        def logged(src, dst, mtype):
            log.append((src, dst, mtype))
            return inner(src, dst, mtype)

        net.bus.send = logged
        net.grow(40, keys=range(1, 10**9, 10**6))
        rng = random.Random(7)
        for round_ in range(12):
            net.leave(rng.choice(net.addresses()))
            net.join()
            net.insert(rng.randrange(10**9))
            if round_ % 3 == 0:
                net.fail(rng.choice(net.addresses()))
                net.repair_all()
        links = {
            address: (peer.position, peer.range, links_of(peer))
            for address, peer in net.peers.items()
        }
        return log, links


def test_protocols_send_and_link_exactly_as_on_the_reference(monkeypatch):
    log, links = recorded_run(False, monkeypatch)
    reference_log, reference_links = recorded_run(True, monkeypatch)
    # The relay's replies and the repairs' re-relays both ran.
    assert {MsgType.RESPONSE, MsgType.REPAIR} <= {mtype for *_, mtype in log}
    assert log == reference_log
    assert links == reference_links


def test_dead_pick_is_paid_once_and_the_fallback_matches():
    """A walk whose greedy pick is dead pays for it once and falls through
    to the next candidate of the reference stream."""
    net = BatonNetwork.build(40, seed=2)
    start, key = None, None
    for peer in net.peers.values():
        for probe in probe_keys(peer):
            stream = list(reference_next_hops(peer, probe))
            if not peer.range.contains(probe) and len(stream) >= 2:
                start, key, stream_ = peer, probe, stream
                break
        if start is not None:
            break
    assert start is not None
    net.fail(stream_[0])
    sent = []
    inner = net.bus.send

    def logged(src, dst, mtype):
        sent.append((src, dst))
        return inner(src, dst, mtype)

    net.bus.send = logged
    steps = search.walk_steps(net, start.address, key, MsgType.SEARCH, lambda: True)
    first_hop = next(steps)
    assert sent[:2] == [(start.address, stream_[0]), (start.address, stream_[1])]
    assert tuple(first_hop) == (start.address, stream_[1])
