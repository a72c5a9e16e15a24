"""Tests for the routing-update channel (repro.core.network.UpdateChannel)."""

import pytest

from repro.core.network import UpdateChannel
from repro.net.address import Address
from repro.net.bus import MessageBus
from repro.net.message import MsgType


@pytest.fixture
def bus():
    bus = MessageBus()
    for address in (1, 2, 3):
        bus.register(Address(address))
    return bus


class TestImmediateMode:
    def test_applies_inline(self, bus):
        channel = UpdateChannel(bus)
        applied = []
        ok = channel.notify(
            Address(1), Address(2), MsgType.TABLE_UPDATE, lambda: applied.append(1)
        )
        assert ok
        assert applied == [1]
        assert channel.pending_count == 0

    def test_dead_target_counts_but_fails(self, bus):
        channel = UpdateChannel(bus)
        applied = []
        ok = channel.notify(
            Address(1), Address(99), MsgType.TABLE_UPDATE, lambda: applied.append(1)
        )
        assert not ok
        assert applied == []
        assert bus.stats.total == 1  # the attempt still crossed the wire


class ScriptedTopology:
    """A stub transport whose link delays are read off a script, in order."""

    def __init__(self, delays):
        self.delays = list(delays)
        self.links = []

    def sample(self, src, dst, *, size=0.0):
        self.links.append((src, dst))
        return self.delays.pop(0)


class TestScheduledMode:
    @staticmethod
    def attached(bus, delays):
        from repro.sim.engine import Simulator

        sim = Simulator()
        channel = UpdateChannel(bus)
        channel.attach(sim, ScriptedTopology(delays))
        return sim, channel

    @staticmethod
    def send(channel, src, dst, applied, tag):
        return channel.notify(
            Address(src), Address(dst), MsgType.TABLE_UPDATE,
            lambda: applied.append(tag),
        )

    def test_applies_one_sampled_delay_later(self, bus):
        sim, channel = self.attached(bus, [2.5])
        applied = []
        assert self.send(channel, 1, 2, applied, "a")
        assert applied == [] and channel.pending_count == 1
        assert bus.stats.total == 1  # counted at send time
        assert channel._topology.links == [(Address(1), Address(2))]
        sim.run()
        assert applied == ["a"] and sim.now == 2.5
        assert channel.pending_count == 0

    def test_fifo_per_receiver_despite_a_shorter_later_delay(self, bus):
        sim, channel = self.attached(bus, [5.0, 1.0, 0.5])
        applied = []
        self.send(channel, 1, 2, applied, "first")
        self.send(channel, 3, 2, applied, "second")  # samples 1.0 < 5.0
        self.send(channel, 1, 3, applied, "other")  # another receiver
        assert channel.pending_count == 3
        sim.run_until(4.0)
        assert applied == ["other"]  # the receiver-2 pair still in order
        assert channel.pending_count == 2
        sim.run()
        assert applied == ["other", "first", "second"]
        assert sim.now == 5.0  # the later refresh waited for the earlier
        assert channel.pending_count == 0

    def test_drain_applies_now_and_cancels_only_that_receiver(self, bus):
        sim, channel = self.attached(bus, [3.0, 4.0, 2.0])
        applied = []
        self.send(channel, 1, 2, applied, "a")
        self.send(channel, 3, 2, applied, "b")
        self.send(channel, 1, 3, applied, "c")
        assert channel.pending_count == 3
        channel.drain(Address(2))
        assert applied == ["a", "b"]  # delivered now, in send order
        assert sim.now == 0.0
        assert channel.pending_count == 1
        assert sim.cancelled_count == 2
        channel.drain(Address(2))  # nothing left for receiver 2
        assert applied == ["a", "b"] and channel.pending_count == 1
        assert sim.run() == 1  # only receiver 3's refresh is still in flight
        assert applied == ["a", "b", "c"] and sim.now == 2.0
        assert channel.pending_count == 0

    def test_drain_resets_the_fifo_floor(self, bus):
        sim, channel = self.attached(bus, [10.0, 1.0])
        applied = []
        self.send(channel, 1, 2, applied, "a")  # would land at t=10
        channel.drain(Address(2))  # delivered at t=0 instead
        self.send(channel, 3, 2, applied, "b")  # samples 1.0
        sim.run()
        assert applied == ["a", "b"]
        assert sim.now == 1.0  # not behind the cancelled t=10 arrival

    def test_dead_target_not_scheduled(self, bus):
        sim, channel = self.attached(bus, [])
        assert not self.send(channel, 1, 99, [], "x")
        assert channel.pending_count == 0
        assert sim.pending_count == 0
