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
``complete`` truncation flag on every range answer).  Each operation is
written once per overlay as a step generator that the inherited sync
facade drives and :class:`~repro.sim.runtime.AsyncOverlayRuntime` resumes
hop by hop, so all three execute joins, leaves, searches and writes as
interleaved simulator events under identical workloads.  The same runtime
wraps all three: BATON's extension ops (fail, repair, replica refresh,
multicast, subscribe) are step generators on
:class:`~repro.core.network.BatonNetwork` too, behind their capabilities.
Adding an overlay is a network class (``overlay_name``, ``capabilities``,
``domain``, the five step generators, one per declared extension op) plus
one :func:`register` call.
"""

from repro.chord.network import ChordNetwork
from repro.core.network import BatonConfig, BatonNetwork
from repro.multiway.network import MultiwayNetwork
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
from repro.sim.runtime import AsyncOverlayRuntime


def _replicated_baton_config():
    return BatonConfig(replication=True)


register(
    OverlayEntry(
        description=(
            "BATON balanced binary tree: O(log N) joins/leaves/searches, "
            "order-preserving ranges, fail/repair, load balancing and "
            "range multicast/pub-sub"
        ),
        network_cls=BatonNetwork,
        replicated_config=_replicated_baton_config,
    )
)
register(
    OverlayEntry(
        description=(
            "Chord hashed ring: O(log N) exact lookups via fingers, "
            "Θ(log² N) membership updates, O(N) range scans"
        ),
        network_cls=ChordNetwork,
    )
)
register(
    OverlayEntry(
        description=(
            "Multiway tree (reference [10]): cheap joins, expensive "
            "multi-child leaves, link-by-link searches without sideways tables"
        ),
        network_cls=MultiwayNetwork,
    )
)

__all__ = [
    "Overlay",
    "OverlayEntry",
    "AsyncOverlayRuntime",
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
