"""Event-driven runtime: overlay operations as scheduled message exchanges.

The synchronous protocols execute each operation atomically — correct for
counting messages, but unable to express the scenarios the paper's §V-E
gestures at and a deployment lives in: many operations *in flight at once*,
churn racing queries, routing state going stale between a hop being chosen
and the next message being sent.

:class:`AsyncOverlayRuntime` closes that gap for any overlay implementing
the :mod:`repro.overlays` protocol.  It wraps a synchronous network and
runs every public operation — join, leave, exact search, range search,
insert, delete (plus fail, where supported) — as a *hop generator*: a
Python generator that performs one protocol step (one message exchange)
and then yields a :class:`~repro.sim.topology.Hop` declaring which pair of
peers the next message travels between.  Each op generator is the
client-ingress hop plus a ``yield from`` of the network's own step
generator for that op (:mod:`repro.util.stepper`; ``join_steps``,
``leave_steps``, ``search_exact_steps``, ``search_range_steps``,
``data_op_steps``) — the very one the synchronous facade drives — handed
the future's trace and the walks' give-up predicate, so no decision is
written twice (inbox drains, race re-walks and sized handover hops live in
those shared generators, inert under ``drive``).  The runtime
prices each hop per link through the run's :class:`~repro.sim.topology.Topology`
(``sample(src, dst, size=...)``) and schedules the resumption on the shared
:class:`~repro.sim.engine.Simulator`, so any number of operations
interleave at hop granularity while each individual step stays atomic.
Completion is exposed through :class:`OpFuture` (result, error, latency,
accumulated transit time, done-callbacks).

:class:`AsyncOverlayRuntime` itself wraps every overlay that adds no
runtime-only operations (Chord and the multiway tree: their concurrency
semantics are documented on their networks).  :class:`AsyncBatonNetwork`
adds BATON's: deferred routing-table update delivery, the ``reconcile()``
anti-entropy sweep, fail/repair, replica refresh and multicast/subscribe.

Fidelity notes:

* With operations run one at a time (submit, then drain), every runtime
  sends byte-for-byte the same message sequence as its synchronous network
  and reaches the same final structure under *any* topology — delays only
  stretch the clock between serialized steps.  This holds by construction
  (same generators) and the test suites pin it (constant and clustered
  topologies, join probing and the route cache on or off).
* Under interleaving, an operation's carrier peer can vanish between hops
  (its host left or crashed).  The walks' carrier-loss branches — dead code
  under the synchronous driver — then decide: a query *fails* (its future
  reports the error, which is how a real client experiences a lost
  request), a range walk truncates, a join re-enters through a fresh
  contact, a replacement walk reports a dead end and is re-walked.
  Queries that merely get boxed in by stale links give up and report the
  last peer reached: the walks ask ``_routing_degraded`` (the synchronous
  notion plus "other operations are in flight") whether that is allowed.
* Every operation is admitted by ``_submit`` and stepped by one
  ``_resume`` / ``_deliver`` pair; ``_submit`` also picks the channel its
  hops ride — judged at-least-once or reliable (DESIGN.md, "Delivery
  contract").
* An async BATON insert's *future* trace also accumulates any
  load-balancing traffic the insert triggers; its result reports it once,
  in ``balance_trace``, exactly as the synchronous API does.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, List, Optional, Set

from repro.core import cache as route_cache_protocol
from repro.core import failure as failure_protocol
from repro.core import search as search_protocol
from repro.core.network import BatonNetwork
from repro.core.ranges import Range
from repro.core.results import RepairResult
from repro.net.address import Address
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan, FaultStats
from repro.sim.latency import ConstantLatency
from repro.sim.topology import Hop, Topology
from repro.util.errors import CapabilityError, DeliveryError, ReproError

#: A hop generator yields one Hop per protocol step (which link the next
#: message crosses) and returns the operation's result.
OpSteps = Generator[Hop, None, object]

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"

#: ``_submit(entry=...)`` default: the operation enters at no peer
#: (membership and maintenance), as opposed to ``entry=None`` — "draw one".
_NO_ENTRY = object()


class OpFuture:
    """Completion handle for one in-flight operation."""

    __slots__ = (
        "op_id",
        "kind",
        "trace",
        "submitted_at",
        "completed_at",
        "status",
        "result",
        "error",
        "hops",
        "retries",
        "transit",
        "ingress",
        "entry",
        "_callbacks",
    )

    def __init__(self, op_id: int, kind: str, trace: Trace, submitted_at: float):
        self.op_id = op_id
        self.kind = kind
        self.trace = trace
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        self.status = PENDING
        self.result: object = None
        self.error: Optional[ReproError] = None
        self.hops = 0
        #: Retransmissions this operation's hops needed (always 0 on the
        #: exactly-once fast path; only the chaos runtime retries).
        self.retries = 0
        #: Total sampled link time this operation spent on the wire (the sum
        #: of its hops' per-link delays; equals `latency` while the runtime
        #: has no queueing, and diverges the day it does).
        self.transit = 0.0
        #: The share of ``transit`` spent on client legs (hops with no
        #: source peer — the client handing the request to its entry
        #: point).  Overlay routing metrics must exclude it: the
        #: latency-stretch denominator is the direct entry->owner link,
        #: which no client leg is part of.
        self.ingress = 0.0
        #: The peer the operation entered the overlay at (queries and data
        #: ops; None for membership changes).  The latency-stretch metric
        #: compares accumulated transit against the direct entry->owner link.
        self.entry: Optional[Address] = None
        self._callbacks: List[Callable[["OpFuture"], None]] = []

    @property
    def done(self) -> bool:
        return self.status != PENDING

    @property
    def succeeded(self) -> bool:
        return self.status == SUCCEEDED

    @property
    def latency(self) -> Optional[float]:
        """Simulated submit-to-completion time (None while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def add_done_callback(self, callback: Callable[["OpFuture"], None]) -> None:
        """Run ``callback(self)`` at completion (immediately if already done)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _complete(self, status: str, now: float) -> None:
        self.status = status
        self.completed_at = now
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OpFuture #{self.op_id} {self.kind} {self.status}>"


class _Advance:
    """One operation's resumption: the action every one of its hops schedules.

    One object and one label for the whole operation — allocating them per
    hop dominated the scheduler's own cost in N=10k profiles.  A slotted
    callable, not a closure: a closure that reschedules *itself* is in a
    reference cycle with its own cell, which kept every completed operation
    (future, trace, generator) alive until the cycle collector ran.  Nothing
    refers back to this object, so a completed operation is freed by
    reference counting (DESIGN.md, "Performance contract").
    """

    __slots__ = ("runtime", "future", "steps", "judged", "label")

    def __init__(
        self,
        runtime: "AsyncOverlayRuntime",
        future: OpFuture,
        steps: OpSteps,
        judged: bool,
        label: str,
    ):
        self.runtime = runtime
        self.future = future
        self.steps = steps
        self.judged = judged
        self.label = label

    def __call__(self, throw: Optional[ReproError] = None) -> None:
        """One atomic protocol step; reschedule or complete.

        ``throw`` is a hop that exhausted its retry budget coming back as a
        DeliveryError thrown *into* the generator, so protocol code can
        clean up partial state before the future fails.
        """
        runtime, future = self.runtime, self.future
        hop = runtime._resume(future, self.steps, throw)
        if hop is None:
            runtime._finish(future)
        elif self.judged:
            runtime._transmit(future, hop, self, self.label, 0)
        else:
            runtime._deliver(future, hop, self, self.label)


class AsyncOverlayRuntime:
    """Concurrent-operation facade over a synchronous overlay network.

    Every ``submit_*`` method starts an operation and returns an
    :class:`OpFuture` immediately; nothing executes until the simulator
    runs.  ``run()`` / ``run_until()`` / ``drain()`` advance the clock.

    All scheduling randomness comes from the topology's seeded rngs and
    the wrapped network's own rng, so a given (network seed, topology,
    submission sequence) replays the exact same event order — the
    ``event_log`` records it for comparison.

    Join, leave, both searches, insert and delete run the wrapped
    network's step generators, so any overlay satisfying the
    :class:`~repro.overlays.Overlay` protocol is driven with no code of
    its own here; a subclass exists only to add runtime-only operations
    (:class:`AsyncBatonNetwork`).  The network declares the overlay's name
    and ``capabilities``; :meth:`_submit` refuses —
    :class:`CapabilityError` — any operation whose capability it does not
    declare.  Construction goes through the registry
    (``overlays.get(name).build_async(...)`` / ``.wrap(net, ...)``).
    """

    def __init__(
        self,
        net,
        *,
        sim: Optional[Simulator] = None,
        topology: Optional[Topology] = None,
        record_events: bool = True,
        retain_ops: bool = True,
    ):
        self.net = net
        self.sim = sim if sim is not None else Simulator()
        self.topology: Topology = (
            topology if topology is not None else ConstantLatency(1.0)
        )
        #: Installed chaos layer, if the transport is a FaultPlan.  With
        #: None (every pre-chaos call site), operations take the
        #: exactly-once fast path below, bit-for-bit as before; with a
        #: plan, they go through the at-least-once transmit path
        #: (judge/timeout/retry — see :meth:`_transmit`).
        self.faults: Optional[FaultPlan] = (
            self.topology if isinstance(self.topology, FaultPlan) else None
        )
        self.ops: List[OpFuture] = []
        #: Whether to append (time, op, kind, phase, msgs) tuples to
        #: :attr:`event_log` for every submit/hop/completion.  Invaluable
        #: for replay-equality tests, pure overhead for big workload runs —
        #: the workload surfaces (experiments, benchmarks, CLI) construct
        #: runtimes with ``record_events=False`` (DESIGN.md, "Performance
        #: contract").
        self.record_events = record_events
        #: Whether completed futures stay reachable through :attr:`ops`.
        #: Streaming drivers turn this off so a long run's futures (and
        #: their traces) can be garbage-collected as they complete.
        self.retain_ops = retain_ops
        self.event_log: List[tuple] = []
        self.max_in_flight = 0
        self._in_flight = 0
        self._op_ids = itertools.count(1)
        self._pending_leaves: Set[Address] = set()

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def in_flight(self) -> int:
        """Operations submitted but not yet completed."""
        return self._in_flight

    @property
    def bus(self) -> MessageBus:
        return self.net.bus

    @property
    def size(self) -> int:
        return self.net.size

    @property
    def domain(self) -> Range:
        """The key interval workload generators should draw from."""
        return self.net.domain

    def supports(self, capability: str) -> bool:
        """Whether this overlay implements an optional capability."""
        return capability in self.net.capabilities

    @property
    def replication_enabled(self) -> bool:
        """Whether the wrapped network is actually mirroring data (the
        ``replication`` capability says it *can*; this says the run's
        config turned it on)."""
        return False

    def pending_repairs(self) -> List[Address]:
        """Crashed peers awaiting repair (empty where unsupported)."""
        return []

    def run(self, max_events: Optional[int] = None) -> int:
        """Advance the simulator; returns the number of events executed."""
        return self.sim.run(max_events)

    def run_until(self, time: float) -> int:
        return self.sim.run_until(time)

    def drain(self) -> int:
        """Run until every scheduled event (hence every operation) finishes."""
        return self.sim.run()

    def reconcile(self) -> int:
        """Anti-entropy sweep; returns the number of maintenance messages
        spent (overlays without a sweep return 0)."""
        return 0

    def repair_all(self) -> List[RepairResult]:
        """Repair outstanding abrupt failures, where the overlay supports it."""
        return []

    # -- submission API -------------------------------------------------------
    #
    # Each ``submit_*`` is its argument check plus one ``_submit`` call.

    def submit_search_exact(
        self, key: int, via: Optional[Address] = None
    ) -> OpFuture:
        return self._submit("search.exact", self._search_exact_steps, key, entry=via)

    def submit_search_range(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> OpFuture:
        if low >= high:
            raise ValueError(f"empty query range [{low}, {high})")
        return self._submit(
            "search.range", self._search_range_steps, low, high, entry=via
        )

    def submit_insert(self, key: int, via: Optional[Address] = None) -> OpFuture:
        return self._submit(
            "insert", self._data_op_steps, key, MsgType.INSERT, entry=via
        )

    def submit_delete(self, key: int, via: Optional[Address] = None) -> OpFuture:
        return self._submit(
            "delete", self._data_op_steps, key, MsgType.DELETE, entry=via
        )

    def submit_join(self, via: Optional[Address] = None) -> OpFuture:
        # The contact peer is an argument of the walk, not the future's
        # ``entry``: membership operations have no entry->owner stretch.
        start = via if via is not None else self.net.random_peer_address()
        return self._submit("join", self._join_steps, start)

    def submit_leave(self, address: Address) -> OpFuture:
        if address in self._pending_leaves:
            raise ValueError(f"a leave of address {address} is already in flight")
        self._pending_leaves.add(address)
        future = self._submit("leave", self._leave_steps, address)
        future.add_done_callback(
            lambda _fut: self._pending_leaves.discard(address)
        )
        return future

    def submit_multicast(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> OpFuture:
        """Deliver one message to every owner of ``[low, high)`` exactly once.

        Requires the ``multicast`` capability (DESIGN.md, "Dissemination
        contract"): hash-partitioned overlays scatter a key interval across
        unrelated peers and refuse rather than simulate a fan-out they
        cannot route.
        """
        if low >= high:
            raise ValueError(f"empty multicast range [{low}, {high})")
        return self._submit(
            "multicast", self._multicast_steps, low, high, entry=via, needs="multicast"
        )

    def submit_subscribe(
        self,
        low: int,
        high: int,
        subscriber: Optional[Address] = None,
    ) -> OpFuture:
        """Install a subscription for ``[low, high)`` at every range owner.

        Requires the ``subscribe`` capability; ``subscriber`` defaults to a
        random live peer (the interested party the owners will notify).
        """
        if low >= high:
            raise ValueError(f"empty subscription range [{low}, {high})")
        return self._submit(
            "subscribe",
            self._subscribe_steps,
            low,
            high,
            entry=subscriber,
            needs="subscribe",
        )

    def submit_fail(self, address: Address) -> OpFuture:
        """Schedule an abrupt crash of ``address`` one latency from now."""
        return self._submit("fail", self._fail_steps, address, needs="fail")

    def submit_repair(self, address: Address) -> OpFuture:
        """Submit the repair of a crashed peer as a priced operation.

        The structural surgery runs atomically in the operation's first
        protocol segment; with replication enabled, the replica pull that
        restores the dead peer's keys follows as sized hops, so the
        future's latency is the crash's *data recovery* time.
        """
        return self._submit("repair", self._repair_steps, address, needs="repair")

    def submit_replica_refresh(self) -> List[OpFuture]:
        """Submit one replica-refresh operation per live peer.

        All refreshes are in flight at once (each is an independent
        one-hop bulk transfer from a peer to its current adjacent), so a
        sweep costs one round of sized messages, not a serial walk.  Like
        the batched sweep below, the transfers ride the reliable channel
        (DESIGN.md, "Delivery contract").
        """
        return [
            self._submit(
                "replica.refresh",
                self._replica_refresh_steps,
                address,
                needs="replication",
                reliable=True,
            )
            for address in self.net.addresses()
        ]

    def submit_replica_refresh_sweep(self) -> OpFuture:
        """Submit one refresh round as a *single* batched operation.

        Semantically the same fan-out as :meth:`submit_replica_refresh` —
        every live peer's sized transfer to its current adjacent is in
        flight at once, each priced on its own link of the reliable
        channel — but the whole round shares one :class:`OpFuture`, one
        trace and one submit/done pair of event-log rows
        instead of allocating one of each per peer, which is the
        difference between "a maintenance sweep" and "10k bookkeeping
        objects per sweep" at full scale.  The future completes when the
        last transfer lands; its result is the number of refresh messages
        spent.
        """
        future = self._submit("replica.refresh.sweep", None, needs="replication")
        pending = 1
        messages = 0

        def join(spent: int) -> None:
            nonlocal pending, messages
            messages += spent
            pending -= 1
            if pending == 0:
                future.result = messages
                self._finish(future)

        def resume(steps: OpSteps) -> None:
            hop = self._resume(future, steps)
            if hop is not None:
                self._deliver(future, hop, lambda: resume(steps), future.kind)
            elif future.error is None:
                join(future.result or 0)
            else:
                # Refresh is best-effort maintenance: one peer's
                # failure (its holder vanished mid-transfer, say)
                # drops that refresh — the next sweep heals it — and
                # must not abort the round, mirroring how the
                # per-peer API fails just that peer's future.
                future.error = None
                join(0)

        # ``pending`` starts at 1: that sentinel keeps an all-synchronous
        # round (or one whose early transfers land while later ones are
        # still being submitted — impossible today, but cheap to guard)
        # from finishing twice; the last ``join`` releases it.
        for address in self.net.addresses():
            pending += 1
            resume(self._replica_refresh_steps(future, address))
        join(0)
        return future

    def leave_candidates(self) -> List[Address]:
        """Live addresses with no leave currently in flight."""
        return [
            address
            for address in self.net.addresses()
            if address not in self._pending_leaves
        ]

    # -- hop generators -------------------------------------------------------
    #
    # Each op is the client-ingress hop plus the network's own step
    # generator for it (the one its sync facade drives), handed the op's
    # trace and ``_routing_degraded``.  Subclasses implement the generators
    # of the optional operations they declare.

    def _search_exact_steps(
        self, future: OpFuture, start: Address, key: int
    ) -> OpSteps:
        yield Hop(None, start)  # the request reaches its entry peer
        return (
            yield from self.net.search_exact_steps(
                start, key, future.trace, self._routing_degraded
            )
        )

    def _search_range_steps(
        self, future: OpFuture, start: Address, low: int, high: int
    ) -> OpSteps:
        yield Hop(None, start)
        return (
            yield from self.net.search_range_steps(
                start, low, high, future.trace, self._routing_degraded
            )
        )

    def _data_op_steps(
        self, future: OpFuture, start: Address, key: int, mtype: MsgType
    ) -> OpSteps:
        yield Hop(None, start)
        return (
            yield from self.net.data_op_steps(
                start, key, mtype, future.trace, self._routing_degraded
            )
        )

    def _join_steps(self, future: OpFuture, start: Address) -> OpSteps:
        yield Hop(None, start)  # the join request reaches its entry peer
        return (
            yield from self.net.join_steps(
                start, future.trace, self._routing_degraded
            )
        )

    def _leave_steps(self, future: OpFuture, address: Address) -> OpSteps:
        yield Hop(None, address)  # the departure intent is announced
        return (
            yield from self.net.leave_steps(
                address, future.trace, self._routing_degraded
            )
        )

    def _routing_degraded(self) -> bool:
        """Whether stale links can legitimately strand an operation:
        other operations are in flight, so links observed at one hop may
        be stale by the next."""
        return self._in_flight > 1

    def _multicast_steps(
        self, future: OpFuture, start: Address, low: int, high: int
    ) -> OpSteps:
        raise NotImplementedError

    def _subscribe_steps(
        self, future: OpFuture, start: Address, low: int, high: int
    ) -> OpSteps:
        raise NotImplementedError

    def _fail_steps(self, future: OpFuture, address: Address) -> OpSteps:
        raise NotImplementedError

    def _repair_steps(self, future: OpFuture, address: Address) -> OpSteps:
        raise NotImplementedError

    def _replica_refresh_steps(self, future: OpFuture, address: Address) -> OpSteps:
        raise NotImplementedError

    # -- admission and stepping ----------------------------------------------

    def _submit(
        self,
        kind: str,
        steps_fn: Optional[Callable[..., OpSteps]],
        *args,
        entry: object = _NO_ENTRY,
        needs: Optional[str] = None,
        reliable: bool = False,
    ) -> OpFuture:
        """The one admission path: every ``submit_*`` ends here.

        An operation that ``needs`` a capability the overlay does not
        declare is refused before anything observable exists (no future,
        no rng draw, no log row).  Query, data and pub/sub operations pass
        ``entry=via`` and enter at a random live peer when it is None;
        membership and maintenance operations enter nowhere.
        ``steps_fn(future, [entry,] *args)`` builds the hop generator,
        whose first protocol step runs before this returns; with None the
        caller fans its own step streams out over the admitted future
        (the batched refresh sweep).
        """
        if needs is not None and needs not in self.net.capabilities:
            raise CapabilityError(
                f"the {self.net.overlay_name} overlay does not support "
                f"the {needs!r} capability ({kind} refused)"
            )
        future = OpFuture(
            op_id=next(self._op_ids),
            kind=kind,
            trace=Trace(label=kind),
            submitted_at=self.sim.now,
        )
        if entry is not _NO_ENTRY:
            if entry is None:
                entry = self.net.random_peer_address()
            future.entry = entry
            args = (entry, *args)
        if self.retain_ops:
            self.ops.append(future)
        self._in_flight += 1
        if self._in_flight > self.max_in_flight:
            self.max_in_flight = self._in_flight
        if self.record_events:
            self._log(future, "submit")
        if steps_fn is None:
            return future
        steps = steps_fn(future, *args)
        # The channel is chosen here, once per operation: with a FaultPlan
        # installed every hop is handed to ``_transmit`` (judge, timeout,
        # retry with backoff) — except the ``reliable`` connection-oriented
        # transfers, which like the plan-free fast path are priced by one
        # ``topology.sample`` (DESIGN.md, "Delivery contract").  With an
        # inert plan every attempt delivers first try at the inner
        # topology's sampled delay, making the run event-for-event
        # identical to the plan-free one (pinned in tests/test_chaos.py).
        judged = self.faults is not None and not reliable
        _Advance(self, future, steps, judged, f"{kind}#{future.op_id}")()
        return future

    def _resume(
        self,
        future: OpFuture,
        steps: OpSteps,
        throw: Optional[ReproError] = None,
    ) -> Optional[Hop]:
        """Resume ``steps`` for one protocol step under the future's trace.

        The only place a step generator is resumed.  Returns the
        :class:`Hop` it yielded, or None once the stream has ended — its
        return value then sits in ``future.result``, or the
        :class:`ReproError` that ended it in ``future.error``.
        """
        bus = self.net.bus
        bus.push_trace(future.trace)
        try:
            hop = steps.throw(throw) if throw is not None else next(steps)
        except StopIteration as stop:
            future.result = stop.value
            return None
        except ReproError as error:
            future.error = error
            return None
        finally:
            bus.pop_trace()
        if not isinstance(hop, Hop):
            raise TypeError(
                f"hop generators must yield Hop(src, dst), got {hop!r} "
                f"(transport costs are per-link now; see repro.sim.topology)"
            )
        return hop

    def _deliver(
        self,
        future: OpFuture,
        hop: Hop,
        advance: Callable[[], None],
        label: str,
        delay: Optional[float] = None,
    ) -> None:
        """Account for one delivered hop and schedule the resumption.

        The only place a hop is charged to a future and put on the clock.
        ``delay`` is the judged channel's verdict; without one the hop is
        priced on the reliable channel (``topology.sample``, which a
        :class:`FaultPlan` passes to its inner topology untouched).
        """
        if delay is None:
            delay = self.topology.sample(hop.src, hop.dst, size=hop.size)
        future.hops += 1
        future.transit += delay
        if hop.src is None:
            future.ingress += delay
        if self.record_events:
            self._log(future, "hop")
        self.sim.schedule(delay, advance, label)

    def _finish(self, future: OpFuture) -> None:
        """Complete an admitted operation: FAILED iff it carries an error."""
        failed = future.error is not None
        self._in_flight -= 1
        if self.record_events:
            self._log(future, "failed" if failed else "done")
        future._complete(FAILED if failed else SUCCEEDED, self.sim.now)

    def _transmit(
        self,
        future: OpFuture,
        hop: Hop,
        advance: Callable[..., None],
        label: str,
        attempt: int,
    ) -> None:
        """One at-least-once delivery attempt for ``hop``.

        ``attempt`` 0 is the first transmission; each undelivered attempt
        costs the sender a timeout, then the retransmission waits
        ``retry.wait(attempt+1)`` (exponential backoff), re-judged at send
        time so a healed partition lets later attempts through.  Budget
        exhaustion throws :class:`~repro.util.errors.DeliveryError` into
        the step generator — the op fails distinguishably, never hangs.
        Retransmissions and duplicate deliveries are wire-level copies of
        protocol messages the bus already counted once, so they live in
        :class:`~repro.sim.faults.FaultStats` (the amplification metric),
        not in the per-type message counters.
        """
        faults = self.faults
        delivered, delay, _duplicate = faults.judge(
            hop.src, hop.dst, self.sim.now, size=hop.size
        )
        if delivered:
            # A duplicate arrival re-executes an idempotent receiver step
            # as a no-op; it is counted (FaultStats.duplicates) but not
            # re-scheduled — the op advanced on the first arrival.
            self._deliver(future, hop, advance, label, delay)
            return
        stats = faults.stats
        stats.timeouts += 1
        policy = faults.retry
        if attempt >= policy.budget:
            stats.gave_up += 1
            advance(DeliveryError(hop.src, hop.dst, attempt + 1))
            return
        stats.retries += 1
        future.retries += 1
        self.sim.schedule(
            policy.wait(attempt + 1),
            lambda: self._transmit(future, hop, advance, label, attempt + 1),
            label,
        )

    @property
    def fault_stats(self) -> FaultStats:
        """The chaos layer's counters (all zeros without a FaultPlan)."""
        return self.faults.stats if self.faults is not None else FaultStats()

    def liveness_targets(self, address: Address) -> List[Address]:
        """Peers ``address`` heartbeats in a liveness-monitor round.

        The overlay's failure-detection neighbours (for BATON, the
        in-order adjacents: together they cover every peer, so a crash is
        always *somebody's* dead neighbour).  Empty where the overlay
        exposes no monitorable adjacency.
        """
        return []

    def _log(self, future: OpFuture, phase: str) -> None:
        self.event_log.append(
            (self.sim.now, future.op_id, future.kind, phase, future.trace.total)
        )


class AsyncBatonNetwork(AsyncOverlayRuntime):
    """Concurrent-operation facade over a :class:`BatonNetwork`.

    Beyond the shared runtime machinery — which runs BATON's join, leave,
    searches and writes like any overlay's — this adds the BATON-specific
    concurrency surface and extension ops (fail, repair, replica refresh,
    multicast, subscribe): routing-table refreshes ride the same clock (the
    wrapped network's :class:`~repro.core.network.UpdateChannel` is given a
    delivery sink that schedules each receiver-side application one sampled
    latency later, so queries issued inside an update window genuinely race
    stale links), peers drain their inbox before structural handshakes, and
    :meth:`reconcile` is the periodic anti-entropy sweep that restores exact
    invariants at quiescence.
    """

    def __init__(
        self,
        net: BatonNetwork,
        *,
        sim: Optional[Simulator] = None,
        topology: Optional[Topology] = None,
        record_events: bool = True,
        retain_ops: bool = True,
    ):
        super().__init__(
            net,
            sim=sim,
            topology=topology,
            record_events=record_events,
            retain_ops=retain_ops,
        )
        self._inflight_updates: dict[Address, List[tuple]] = {}
        self._last_update_arrival: dict[Address, float] = {}
        self.net.updates.set_sink(self._deliver_update, self._flush_updates_to)
        # The locality extension's protocol decisions (join probing,
        # replica diversity) read the run's topology through the network;
        # only its deterministic direct_delay/region_of surface is ever
        # consulted, so installing it perturbs nothing when the locality
        # knobs are off.
        self.net.topology = self.topology

    @property
    def replication_enabled(self) -> bool:
        return bool(self.net.config.replication)

    def pending_repairs(self) -> List[Address]:
        return sorted(self.net.ghosts)

    def liveness_targets(self, address: Address) -> List[Address]:
        peer = self.net.peers.get(address)
        if peer is None:
            return []
        targets = []
        if peer.left_adjacent is not None:
            targets.append(peer.left_adjacent.address)
        if peer.right_adjacent is not None:
            targets.append(peer.right_adjacent.address)
        return targets

    def reconcile(self) -> int:
        """One anti-entropy round: refresh every peer's links to ground truth.

        Concurrent operations read each other's link state mid-refresh, so
        at quiescence third-party snapshots (ranges, child flags, table
        entries) can be stale in ways the synchronous protocols never
        produce — a real deployment runs a periodic maintenance sweep for
        exactly this reason.  Like the restructuring link rebuild this
        substitutes the position map for the peer-to-peer exchange
        (the documented cost-model substitution; compare ``bulk_load``),
        but the traffic is no longer free: each refreshed peer is charged
        one RECONCILE digest message to a live neighbour — the modeled
        cost of the exchange (DESIGN.md, "Durability contract") — so
        maintenance traffic is a first-class, sweepable metric.  Returns
        the number of messages spent.
        """
        from repro.core import restructure as restructure_protocol

        view = restructure_protocol.MapView(
            self.net, include_ghosts=bool(self.net.ghosts)
        )
        validate_routes = route_cache_protocol.cache_enabled(self.net)
        messages = 0
        for peer in list(self.net.peers.values()):
            partner = self._reconcile_partner(peer)
            if partner is not None:
                self.net.count_message(peer.address, partner, MsgType.RECONCILE)
                messages += 1
            restructure_protocol.refresh_links_from_map(view, peer)
            if validate_routes:
                # The same sweep bounds hot-range cache staleness: dead
                # owners dropped, moved ranges corrected (counted as
                # invalidations; see repro.core.cache).
                route_cache_protocol.reconcile_peer(self.net, peer)
        return messages

    def _reconcile_partner(self, peer) -> Optional[Address]:
        """A live neighbour to exchange the reconcile digest with."""
        for info in (
            peer.parent,
            peer.left_adjacent,
            peer.right_adjacent,
            peer.left_child,
            peer.right_child,
        ):
            if info is not None and info.address in self.net.peers:
                return info.address
        return None

    def repair_all(self) -> List[RepairResult]:
        """Run the §III-C repair for every outstanding crash, priced.

        The synchronous retry-in-passes loop
        (:func:`repro.core.failure.repair_in_passes`), but each
        repair goes through :meth:`submit_repair` and the simulator, so
        replica pulls cross priced links as sized hops.  Drains the
        simulator between repairs; callers invoke this at quiescence.
        """

        def attempt(address: Address) -> Optional[RepairResult]:
            future = self.submit_repair(address)
            self.drain()
            return future.result if future.succeeded else None

        return failure_protocol.repair_in_passes(self.net, attempt)

    # -- update-sink plumbing -------------------------------------------------

    def _deliver_update(
        self, src: Address, dst: Address, deliver: Callable[[], None]
    ) -> None:
        """UpdateChannel sink: apply a table refresh one link delay later.

        The delay is drawn for the actual (src, dst) link, so a refresh
        crossing regions takes longer to land than one next door — queries
        near a remote peer race a wider staleness window.  Deliveries to
        the same receiver keep their send order (an ordered transport, as
        TCP gives a real deployment); without this, two refreshes about the
        same peer could apply newest-first and leave the receiver
        permanently stale.
        """
        pending = self._inflight_updates.setdefault(dst, [])
        entry: list = [None, deliver]

        def fire() -> None:
            try:
                pending.remove(entry)
            except ValueError:
                pass
            deliver()

        # Priced like any other single message (size 1.0, matching Hop's
        # default), so bandwidth-limited links delay refreshes and routed
        # traffic alike — the staleness window they race is consistent.
        arrival = self.sim.now + self.topology.sample(src, dst, size=1.0)
        arrival = max(arrival, self._last_update_arrival.get(dst, 0.0))
        self._last_update_arrival[dst] = arrival
        entry[0] = self.sim.schedule_at(arrival, fire, label="table-update")
        pending.append(entry)

    def _flush_updates_to(self, address: Address) -> None:
        """UpdateChannel drain hook: deliver every in-flight table refresh
        addressed to ``address`` now (see ``UpdateChannel.drain``, which the
        shared join and leave generators call before a handshake)."""
        for event, deliver in self._inflight_updates.pop(address, []):
            if self.sim.cancel(event):
                deliver()

    def _routing_degraded(self) -> bool:
        """Whether stale links can legitimately strand an operation.

        The synchronous notion (unrepaired failures, updates in flight)
        plus concurrency itself: with other operations in the air, links
        observed at one hop may be stale by the next.
        """
        return search_protocol.network_degraded(self.net) or self._in_flight > 1

    # -- hop generators -------------------------------------------------------
    #
    # BATON's extension ops, each a step generator from ``repro.core`` or
    # ``repro.pubsub`` behind the op's first hop.  The shared ops come from
    # the base class.

    def _multicast_steps(
        self, future: OpFuture, start: Address, low: int, high: int
    ) -> OpSteps:
        from repro.pubsub.multicast import multicast_steps

        yield Hop(None, start)  # the publish reaches its entry peer
        return (
            yield from multicast_steps(
                self.net, start, low, high, degraded=self._routing_degraded
            )
        )

    def _subscribe_steps(
        self, future: OpFuture, start: Address, low: int, high: int
    ) -> OpSteps:
        from repro.pubsub.subscribe import subscribe_steps

        yield Hop(None, start)  # the subscriber contacts the overlay
        return (
            yield from subscribe_steps(
                self.net, start, low, high, degraded=self._routing_degraded
            )
        )

    def _fail_steps(self, future: OpFuture, address: Address) -> OpSteps:
        yield Hop(None, address)  # the crash is observed one beat later
        if address in self.net.peers:
            self.net.fail(address)
            return address
        return None

    def _repair_steps(self, future: OpFuture, address: Address) -> OpSteps:
        net = self.net
        yield Hop(None, address)  # the failure report reaches the coordinator
        if address not in net.ghosts:
            return None  # already repaired (or never actually crashed)
        return (yield from failure_protocol.repair_steps(net, address, future.trace))

    def _replica_refresh_steps(self, future: OpFuture, address: Address) -> OpSteps:
        from repro.core import replication

        net = self.net
        if not net.config.replication:
            return 0
        peer = net.peers.get(address)
        if peer is None:
            return 0  # vanished between submission rounds
        return (yield from replication.refresh_peer_steps(net, peer))
