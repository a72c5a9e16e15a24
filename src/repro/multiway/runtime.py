"""Event-driven multiway runtime: tree hops as scheduled simulator events.

:class:`AsyncMultiwayNetwork` drives a
:class:`~repro.multiway.network.MultiwayNetwork` through the shared
:class:`~repro.sim.runtime.AsyncOverlayRuntime` machinery, resuming the
network's own step generators one link hop at a time — parent, child or
neighbour, exactly the walks §V-B charges the baseline for — so multiway
traffic interleaves on the same clock as BATON and Chord.

Concurrency semantics (see :mod:`repro.multiway.network` for the
protocol-side guarantees):

* Structural mutations — accepting a child, detaching a leaf,
  transplanting a replacement — run in a single simulator event each, in
  the same segment as the check that authorised them, so the tree is
  consistent at every event boundary.
* A walk whose carrier vanishes (its node was transplanted away) retries
  through a fresh contact for joins, and re-walks for leaves, mirroring
  the BATON runtime's recovery; queries fail over to the client.
* Range scans truncate (``complete=False``) when an intersecting subtree
  vanishes mid-fan-out instead of failing the whole query.
"""

from __future__ import annotations

from repro.core.ranges import Range
from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.runtime import AsyncOverlayRuntime


class AsyncMultiwayNetwork(AsyncOverlayRuntime):
    """Concurrent-operation facade over a :class:`MultiwayNetwork`."""

    overlay_name = "multiway"
    capabilities = frozenset()

    @property
    def domain(self) -> Range:
        return self.net.config.domain

    # -- hop generators -------------------------------------------------------
    # Queries, data ops and membership come from the base class; the owner
    # walk is the link-by-link route (updates may expand the root's
    # coverage).

    def _owner_steps(self, start: Address, key: int, mtype: MsgType):
        if mtype in (MsgType.INSERT, MsgType.DELETE):
            return self.net.route_for_update_steps(start, key, mtype)
        return self.net.route_steps(start, key, mtype)
