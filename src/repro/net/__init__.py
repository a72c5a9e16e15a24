"""Message-passing substrate shared by all three overlay implementations.

The substrate gives each peer a physical :data:`Address` and — crucially
for reproducing the paper — counts every message at the :class:`MessageBus`,
tagged with a :class:`MsgType` category and attributed to the receiving peer
so the experiments can report "number of passing messages" exactly as §V
does.

Failure experiments mark peers dead at the bus: a send to a dead address
raises :class:`~repro.util.errors.PeerNotFoundError` *after* counting the
attempted message, and the caller must route around the failure.
"""

from repro.net.address import Address, AddressAllocator
from repro.net.message import MsgType
from repro.net.bus import MessageBus, TrafficStats, Trace

__all__ = [
    "Address",
    "AddressAllocator",
    "MsgType",
    "MessageBus",
    "TrafficStats",
    "Trace",
]
