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
from repro.core.results import JoinResult, LeaveResult
from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.runtime import AsyncOverlayRuntime, OpFuture, OpSteps
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError, ProtocolError


class AsyncMultiwayNetwork(AsyncOverlayRuntime):
    """Concurrent-operation facade over a :class:`MultiwayNetwork`."""

    overlay_name = "multiway"
    capabilities = frozenset()

    @property
    def domain(self) -> Range:
        return self.net.config.domain

    # -- hop generators -------------------------------------------------------
    # Queries and data ops come from the base class; the owner walk is the
    # link-by-link route (updates may expand the root's coverage).

    def _owner_steps(self, start: Address, key: int, mtype: MsgType):
        if mtype in (MsgType.INSERT, MsgType.DELETE):
            return self.net.route_for_update_steps(start, key, mtype)
        return self.net.route_steps(start, key, mtype)

    def _join_steps(self, future: OpFuture, start: Address) -> OpSteps:
        net = self.net
        yield Hop(None, start)  # the join request reaches its entry node
        current = start
        for _attempt in range(16):
            try:
                parent_address = yield from net.join_find_steps(current)
            except PeerNotFoundError:
                # The walk's carrier vanished; re-enter somewhere live.
                current = net.random_peer_address()
                yield Hop(None, current)  # fresh client ingress
                continue
            # The acceptance check and the accept run in the same simulator
            # event (join_find_steps returns in the segment that verified
            # acceptability), so this re-check cannot lose a race — it only
            # guards the retry path's fresh entry.
            parent = net.nodes.get(parent_address)
            if parent is None:
                current = net.random_peer_address()
                yield Hop(None, current)
                continue
            if not net.can_accept_join(parent):
                current = parent_address
                yield Hop(current, current)  # local beat: keep walking
                continue
            child = net.accept_child(parent)
            return JoinResult(
                address=child.address,
                parent=parent_address,
                find_trace=future.trace,
                update_trace=net.new_trace("multiway.join.update"),
            )
        raise ProtocolError("multiway join kept losing acceptance races")

    def _leave_steps(self, future: OpFuture, address: Address) -> OpSteps:
        net = self.net
        yield Hop(None, address)  # the departure intent is announced
        for _attempt in range(8):
            departing = net.node(address)  # raises if the node already vanished
            if net.size == 1:
                del net.nodes[address]
                net.bus.unregister(address)
                net.root = None
                return self._leave_result(future, address, None)
            if departing.is_leaf:
                handover = len(departing.store)
                absorber = net.detach_leaf(departing)
                # The interval merge moves the leaf's whole store: a sized
                # bulk transfer on the leaf->absorber link (the structural
                # unhook above stays atomic).
                yield Hop(address, absorber, size=float(max(1, handover)))
                return self._leave_result(future, address, None)
            try:
                replacement_address = yield from net.replacement_steps(departing)
            except PeerNotFoundError:
                yield Hop(address, address)  # a consulted child vanished; re-walk
                continue
            if net.nodes.get(address) is not departing:
                # Another operation transplanted us mid-walk; the next
                # attempt re-reads the node (and fails if it is gone).
                yield Hop(address, address)
                continue
            if replacement_address is None or replacement_address == address:
                yield Hop(address, address)
                continue
            replacement = net.nodes.get(replacement_address)
            if replacement is None or not replacement.is_leaf:
                yield Hop(address, address)  # lost the race; walk again
                continue
            repl_handover = len(replacement.store)
            handover = len(departing.store)
            repl_absorber = net.detach_leaf(replacement)
            net.transplant(departing, replacement)
            # Price the two bulk transfers the merge + transplant moved:
            # the replacement leaf's store into its absorber, then the
            # departing node's store onto the replacement.
            yield Hop(
                replacement_address,
                repl_absorber,
                size=float(max(1, repl_handover)),
            )
            yield Hop(address, replacement_address, size=float(max(1, handover)))
            return self._leave_result(future, address, replacement_address)
        raise ProtocolError(f"multiway leave of address {address} kept losing races")

    def _leave_result(
        self, future: OpFuture, address: Address, replacement
    ) -> LeaveResult:
        return LeaveResult(
            departed=address,
            replacement=replacement,
            find_trace=future.trace,
            update_trace=self.net.new_trace("multiway.leave.update"),
        )
