"""Message-passing substrate shared by all three overlay implementations.

The substrate gives each peer a physical :data:`Address` and — crucially
for reproducing the paper — counts every message at the :class:`MessageBus`,
tagged with a :class:`MsgType` category and attributed to the receiving peer
so the experiments can report "number of passing messages" exactly as §V
does.

The bus reads liveness off the network's one live map
(``OverlayNetwork.peers``): a send to an address that left it, by
departure or crash, raises :class:`~repro.util.errors.PeerNotFoundError`
*after* counting the attempted message, and the caller must route around
the failure.
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
