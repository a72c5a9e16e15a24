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
from repro.core.results import JoinResult, LeaveResult
from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.runtime import AsyncOverlayRuntime, OpFuture, OpSteps
from repro.sim.topology import Hop
from repro.util.errors import ReproError


class AsyncChordNetwork(AsyncOverlayRuntime):
    """Concurrent-operation facade over a :class:`ChordNetwork`."""

    overlay_name = "chord"
    capabilities = frozenset()

    # -- hop generators -------------------------------------------------------
    # Queries and data ops come from the base class; the owner walk is a
    # hashed find_successor.

    def _owner_steps(self, start: Address, key: int, mtype: MsgType):
        return self.net.successor_steps(
            start, hash_key(key, self.net.m_bits), mtype
        )

    def _join_steps(self, future: OpFuture, start: Address) -> OpSteps:
        net = self.net
        yield Hop(None, start)  # the join request reaches its entry node
        node = net.spawn_node()
        try:
            successor = yield from net.successor_steps(
                start, node.node_id, MsgType.JOIN_FIND
            )
            yield from net.join_update_steps(node, start, successor)
        except ReproError:
            # The find phase (or the pre-splice successor read) died under
            # churn; unwind the half-born node so the ring stays clean.
            net.abort_join(node)
            raise
        return JoinResult(
            address=node.address,
            parent=successor,
            find_trace=future.trace,
            update_trace=net.new_trace("chord.join.update"),
        )

    def _leave_steps(self, future: OpFuture, address: Address) -> OpSteps:
        net = self.net
        yield Hop(None, address)  # the departure intent is announced
        node = net.node(address)  # raises if the node already vanished
        if net.size == 1:
            del net.nodes[address]
            net.bus.unregister(address)
            return LeaveResult(
                departed=address,
                replacement=None,
                find_trace=future.trace,
                update_trace=net.new_trace("chord.leave.update"),
            )
        successor = node.successor  # known locally: no search needed
        yield from net.leave_update_steps(node)
        return LeaveResult(
            departed=address,
            replacement=successor,
            find_trace=future.trace,
            update_trace=net.new_trace("chord.leave.update"),
        )
