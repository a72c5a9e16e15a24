"""Unified overlay API: one protocol, one registry, three implementations.

The paper's evaluation is comparative — BATON against a Chord-style hashed
ring and against its multiway-tree ancestor — and this package is the seam
that makes the comparison mechanical::

    from repro import overlays

    for name in overlays.available():           # ['baton', 'chord', 'multiway']
        entry = overlays.get(name)
        net = entry.build(1000, seed=7)          # synchronous Overlay
        anet = entry.wrap(net)                   # AsyncOverlayRuntime
        future = anet.submit_search_exact(42)
        anet.drain()

Every registered network satisfies the :class:`Overlay` protocol (same
method names — ``random_peer_address`` everywhere, no more per-overlay
spellings — and the same unified result dataclasses, including the
``complete`` truncation flag on every range answer), and every runtime
shares :class:`~repro.sim.runtime.AsyncOverlayRuntime`'s hop-generator
machinery, so all three execute joins, leaves, searches and inserts as
interleaved simulator events under identical workloads.
"""

from repro.chord.network import ChordNetwork
from repro.chord.runtime import AsyncChordNetwork
from repro.core.network import BatonConfig, BatonNetwork
from repro.multiway.network import MultiwayNetwork
from repro.multiway.runtime import AsyncMultiwayNetwork
from repro.overlays.protocol import (
    ALL_CAPABILITIES,
    BALANCE,
    FAIL,
    MULTICAST,
    RECONCILE,
    REPAIR,
    REPLICATION,
    SUBSCRIBE,
    Overlay,
)
from repro.overlays.registry import OverlayEntry, available, get, register
from repro.sim.runtime import AsyncBatonNetwork, AsyncOverlayRuntime


def _replicated_baton_config():
    return BatonConfig(replication=True)


register(
    OverlayEntry(
        name="baton",
        description=(
            "BATON balanced binary tree: O(log N) joins/leaves/searches, "
            "order-preserving ranges, fail/repair, load balancing and "
            "range multicast/pub-sub"
        ),
        network_cls=BatonNetwork,
        runtime_cls=AsyncBatonNetwork,
        replicated_config=_replicated_baton_config,
    )
)
register(
    OverlayEntry(
        name="chord",
        description=(
            "Chord hashed ring: O(log N) exact lookups via fingers, "
            "Θ(log² N) membership updates, O(N) range scans"
        ),
        network_cls=ChordNetwork,
        runtime_cls=AsyncChordNetwork,
    )
)
register(
    OverlayEntry(
        name="multiway",
        description=(
            "Multiway tree (reference [10]): cheap joins, expensive "
            "multi-child leaves, link-by-link searches without sideways tables"
        ),
        network_cls=MultiwayNetwork,
        runtime_cls=AsyncMultiwayNetwork,
    )
)

__all__ = [
    "Overlay",
    "OverlayEntry",
    "AsyncOverlayRuntime",
    "AsyncBatonNetwork",
    "AsyncChordNetwork",
    "AsyncMultiwayNetwork",
    "available",
    "get",
    "register",
    "FAIL",
    "REPAIR",
    "BALANCE",
    "RECONCILE",
    "REPLICATION",
    "MULTICAST",
    "SUBSCRIBE",
    "ALL_CAPABILITIES",
]
