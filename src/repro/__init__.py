"""BATON reproduction: a balanced tree overlay for peer-to-peer networks.

Reimplements Jagadish, Ooi, Rinard & Vu, *BATON: A Balanced Tree Structure
for Peer-to-Peer Networks* (VLDB 2005), together with the Chord and
multiway-tree baselines its evaluation compares against and the simulation
substrate the experiments run on.

Quickstart::

    from repro import BatonNetwork

    net = BatonNetwork.build(100, seed=7)
    net.insert(123_456)
    hit = net.search_exact(123_456)
    assert hit.found
    span = net.search_range(100_000, 200_000)

Concurrent traffic runs on the event-driven runtime::

    from repro import overlays

    anet = overlays.get("baton").build(1000, seed=7).wrap()
    future = anet.submit_search_exact(123_456)
    anet.drain()
    assert future.succeeded

The Chord and multiway baselines implement the same overlay interface
(:class:`~repro.net.overlay.OverlayNetwork`) and run on the same runtime,
selected through the registry::

    from repro import overlays

    for name in overlays.available():        # ['baton', 'chord', 'multiway']
        anet = overlays.get(name).build(1000, seed=7).wrap()
        anet.submit_search_range(100_000, 200_000)
        anet.drain()
"""

from repro.core import (
    BatonConfig,
    BatonNetwork,
    LoadBalanceConfig,
    Position,
    Range,
    check_invariants,
    tree_height,
)
from repro.sim import AsyncOverlayRuntime, OpFuture
from repro import overlays

__version__ = "1.0.0"

__all__ = [
    "BatonNetwork",
    "BatonConfig",
    "LoadBalanceConfig",
    "AsyncOverlayRuntime",
    "OpFuture",
    "overlays",
    "Position",
    "Range",
    "check_invariants",
    "tree_height",
    "__version__",
]
