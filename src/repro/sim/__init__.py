"""Discrete-event simulation: engine, latency models and the async runtime.

Most of the paper's measurements are pure message counts, which the
synchronous protocols in :mod:`repro.core` produce directly.  The exception
is §V-E (Figure 8(i), *Effect of Network Dynamics*): there, joins and leaves
happen **concurrently** and routing-table updates take time to propagate, so
queries issued inside the update window can be misrouted and pay extra
messages.  The :class:`Simulator` here provides the timeline for that
experiment — events with latencies drawn per link from a
:class:`Topology` (scalar :class:`LatencyModel` distributions are the
degenerate single-region case), executed in timestamp order.

:class:`AsyncOverlayRuntime` builds the full concurrent regime on top: every
overlay operation decomposed into per-hop scheduled events, any number in
flight at once, completion delivered through :class:`OpFuture` — see
:mod:`repro.sim.runtime`.  It holds no overlay's protocol: every operation,
BATON's extension ops included, is a step generator on the network class
(``repro.core.network.BatonNetwork.fail_steps``, ``repair_steps``,
``replica_refresh_steps``, ``multicast_steps``, ``subscribe_steps``,
delegating to :mod:`repro.core.failure`, :mod:`repro.core.replication`
and :mod:`repro.pubsub`).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.runtime import AsyncOverlayRuntime, OpFuture
from repro.sim.topology import (
    ClusteredTopology,
    CoordinateTopology,
    Hop,
    Topology,
    available_topologies,
    make_topology,
)

__all__ = [
    "Event",
    "Simulator",
    "Topology",
    "Hop",
    "ClusteredTopology",
    "CoordinateTopology",
    "available_topologies",
    "make_topology",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "AsyncOverlayRuntime",
    "OpFuture",
]
