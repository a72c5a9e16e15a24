"""Unified overlay API: one interface, one registry, three implementations.

The paper's evaluation is comparative — BATON against a Chord-style hashed
ring and against its multiway-tree ancestor — and this package is the seam
that makes the comparison mechanical::

    from repro import overlays

    for name in overlays.available():           # ['baton', 'chord', 'multiway']
        net = overlays.get(name).build(1000, seed=7)   # an OverlayNetwork
        anet = net.wrap()                        # AsyncOverlayRuntime
        future = anet.submit_search_exact(42)
        anet.drain()

Every registered network is an :class:`~repro.net.overlay.OverlayNetwork`
(same method names and the same unified result dataclasses, including the
``complete`` truncation flag on every range answer).  Each operation is
written once per overlay as a step generator that the inherited sync
facade drives and :class:`~repro.sim.runtime.AsyncOverlayRuntime` resumes
hop by hop, so all three run under identical workloads; BATON's extension
ops sit behind their capabilities.  Adding an overlay is an
``OverlayNetwork`` subclass plus one :func:`register` call.
"""

from repro.chord.network import ChordNetwork
from repro.core.network import BatonNetwork
from repro.multiway.network import MultiwayNetwork
from repro.net.overlay import (
    ALL_CAPABILITIES,
    BALANCE,
    FAIL,
    LOCALITY,
    MULTICAST,
    RECONCILE,
    REPAIR,
    REPLICATION,
    SUBSCRIBE,
)
from repro.overlays.registry import available, get, register
from repro.sim.runtime import AsyncOverlayRuntime

register(BatonNetwork)
register(ChordNetwork)
register(MultiwayNetwork)

__all__ = [
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
    "LOCALITY",
    "ALL_CAPABILITIES",
]
