"""Event-driven Chord runtime: finger hops as scheduled simulator events.

:class:`AsyncChordNetwork` drives a :class:`~repro.chord.network.ChordNetwork`
through the shared :class:`~repro.sim.runtime.AsyncOverlayRuntime` machinery.
Every lookup resumes the network's own step generators one finger hop at a
time, so Chord joins, leaves, lookups and ring scans interleave with each
other on the same clock the BATON runtime uses — the substrate for the
paper's three-way concurrent comparison.

Concurrency semantics (see :mod:`repro.chord.network` for the protocol-side
guarantees):

* Ring splices (join/leave successor rewiring) are atomic segments, so the
  successor ring is consistent at every event boundary; finger maintenance
  is best-effort under churn, as in the real protocol.
* An operation whose carrier node departs mid-flight fails with
  :class:`~repro.util.errors.PeerNotFoundError` — the client's view of a
  lost request.  A join whose find phase dies is aborted and unwound.
* Ring scans truncate (``complete=False``) when a successor vanishes
  mid-walk instead of failing the whole query, mirroring BATON's broken
  adjacent-chain behaviour.
"""

from __future__ import annotations

from repro.chord.hashing import hash_key
from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.runtime import AsyncOverlayRuntime


class AsyncChordNetwork(AsyncOverlayRuntime):
    """Concurrent-operation facade over a :class:`ChordNetwork`."""

    overlay_name = "chord"
    capabilities = frozenset()

    # -- hop generators -------------------------------------------------------
    # Queries, data ops and membership come from the base class; the owner
    # walk is a hashed find_successor.

    def _owner_steps(self, start: Address, key: int, mtype: MsgType):
        return self.net.successor_steps(
            start, hash_key(key, self.net.m_bits), mtype
        )
