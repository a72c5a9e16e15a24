"""Unit tests for the message bus (repro.net)."""

from collections import Counter

import pytest

from repro.net.address import Address, AddressAllocator
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.util.errors import PeerNotFoundError


class TestAllocator:
    def test_addresses_unique_and_increasing(self):
        alloc = AddressAllocator()
        a, b, c = alloc.allocate(), alloc.allocate(), alloc.allocate()
        assert len({a, b, c}) == 3
        assert a < b < c

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            AddressAllocator(start=-5)


def live(*addresses: int) -> set:
    return {Address(address) for address in addresses}


class TestLiveness:
    def test_reads_the_live_container_it_was_given(self):
        alive = live(1, 2)
        bus = MessageBus(alive)
        bus.send(Address(1), Address(2), MsgType.SEARCH)
        alive.discard(Address(2))  # the network's map changes; the bus sees it
        with pytest.raises(PeerNotFoundError):
            bus.send(Address(1), Address(2), MsgType.SEARCH)
        assert bus.stats.total == 2

    def test_send_to_dead_raises_after_counting(self):
        bus = MessageBus(live(1))
        with pytest.raises(PeerNotFoundError):
            bus.send(Address(1), Address(2), MsgType.SEARCH)
        # the wasted message was still paid for
        assert bus.stats.total == 1


class TestAccounting:
    def test_totals_by_type(self):
        bus = MessageBus(live(1, 2))
        bus.send(Address(1), Address(2), MsgType.SEARCH)
        bus.send(Address(2), Address(1), MsgType.SEARCH)
        bus.send(Address(1), Address(2), MsgType.INSERT)
        assert bus.stats.total == 3
        assert bus.stats.by_type[MsgType.SEARCH] == 2


class TestTraces:
    def test_trace_scopes_messages(self):
        bus = MessageBus(live(1, 2))
        bus.send(Address(1), Address(2), MsgType.SEARCH)
        with bus.trace("op") as trace:
            bus.send(Address(1), Address(2), MsgType.SEARCH)
            bus.send(Address(2), Address(1), MsgType.RESPONSE)
        assert trace.total == 2
        assert trace.count(MsgType.SEARCH) == 1
        assert trace.count() == 2
        assert bus.stats.total == 3

    def test_nested_traces_both_counted(self):
        bus = MessageBus(live(1))
        with bus.trace("outer") as outer:
            with bus.trace("inner") as inner:
                bus.send(Address(1), Address(1), MsgType.SEARCH)
        assert outer.total == 1
        assert inner.total == 1

    def test_trace_is_slotted_and_counts_from_empty(self):
        bus = MessageBus(live(1))
        trace = Trace("op")
        assert not hasattr(trace, "__dict__")
        assert trace.by_type == Counter() and trace.path == []
        bus.push_trace(trace)
        try:
            bus.send(Address(1), Address(1), MsgType.SEARCH)
        finally:
            bus.pop_trace()
        assert trace == Trace("op", 1, Counter({MsgType.SEARCH: 1}), [Address(1)])

    def test_trace_path_records_destinations(self):
        bus = MessageBus(live(1, 2, 3))
        with bus.trace("walk") as trace:
            bus.send(Address(1), Address(2), MsgType.SEARCH)
            bus.send(Address(2), Address(3), MsgType.SEARCH)
        assert trace.path == [Address(2), Address(3)]


class TestFunnel:
    def test_dead_destination_is_fully_counted_before_the_raise(self):
        bus = MessageBus(live(1))
        with bus.trace("op") as trace:
            with pytest.raises(PeerNotFoundError):
                bus.send(Address(1), Address(9), MsgType.SEARCH)
        assert bus.stats.total == 1
        assert bus.stats.by_type[MsgType.SEARCH] == 1
        assert trace.total == 1
        assert trace.by_type[MsgType.SEARCH] == 1
        assert trace.path == [Address(9)]

    def test_send_takes_no_payload(self):
        bus = MessageBus(live(1))
        with pytest.raises(TypeError):
            bus.send(Address(1), Address(1), MsgType.SEARCH, key=7)
        assert bus.stats.total == 0
