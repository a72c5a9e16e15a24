"""Event-driven runtime: overlay operations as scheduled message exchanges.

The synchronous protocols execute each operation atomically — correct for
counting messages, but unable to express the scenarios the paper's §V-E
gestures at and a deployment lives in: many operations *in flight at once*,
churn racing queries, routing state going stale between a hop being chosen
and the next message being sent.

:class:`AsyncOverlayRuntime` closes that gap for any overlay implementing
the :mod:`repro.overlays` protocol.  It wraps a synchronous network and
runs every public operation — join, leave, exact search, range search,
insert, delete, plus the optional fail, repair, replica refresh, multicast
and subscribe where the overlay declares them — as a *hop generator*: a
Python generator that performs one protocol step (one message exchange)
and then yields a :class:`~repro.sim.topology.Hop` declaring which pair of
peers the next message travels between.  Each op generator is the
client-ingress hop plus a ``yield from`` of the network's own step
generator for that op (:mod:`repro.util.stepper`; ``join_steps``,
``leave_steps``, ``search_exact_steps``, ``search_range_steps``,
``data_op_steps``, and BATON's ``fail_steps``, ``repair_steps``,
``multicast_steps``, ``subscribe_steps``) — the very one the synchronous
facade drives — handed the future's trace and the walks' give-up
predicate, so no decision is written twice (inbox drains, race re-walks
and handover hops live in those shared generators, inert under
``drive``).  The runtime
prices each hop per link through the run's :class:`~repro.sim.topology.Topology`
(``sample(src, dst)``) and schedules the resumption on the shared
:class:`~repro.sim.engine.Simulator`, so any number of operations
interleave at hop granularity while each individual step stays atomic.
Completion is exposed through :class:`OpFuture` (result, error, latency,
accumulated transit time, done-callbacks).

:class:`AsyncOverlayRuntime` wraps every overlay and holds no code of
any one of them: each network documents its own concurrency semantics,
and the one thing that rides the clock outside an operation — BATON's
routing-table refreshes — is scheduled by the network's
:class:`~repro.core.network.UpdateChannel`, which the runtime hands its
simulator and topology at construction (``net.attach``).

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
  last peer reached: the walks ask the network's own notion of degraded
  plus the runtime's ``_routing_degraded`` ("other operations are in
  flight") whether that is allowed.
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


def _ingress(first: Address, steps: OpSteps) -> OpSteps:
    """A client-submitted op: the hop that carries the request to ``first``
    (its entry peer, contact or target), then the network's own steps.

    ``steps`` is built at admission, which runs no protocol code: a step
    generator does nothing until it is first resumed, here after the hop.
    """
    yield tuple.__new__(Hop, (None, first))
    return (yield from steps)


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

    Every operation runs the wrapped network's step generator, so any
    :class:`~repro.net.overlay.OverlayNetwork` is driven with no code of
    its own here — optional operations and maintenance (``reconcile``,
    ``repair_all``, ``liveness_targets``) included, each reached only
    where the network declares the capability.  The network declares the
    overlay's name and ``capabilities``; :meth:`_submit` refuses —
    :class:`CapabilityError` — any operation whose capability it does not
    declare.  Construction is the network's own ``wrap`` —
    ``overlays.get(name).build(n, seed).wrap(...)`` or
    ``overlays.get(name).wrap(net, ...)``.
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
        net.attach(self.sim, self.topology)

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
        return self.supports("replication") and bool(self.net.config.replication)

    def pending_repairs(self) -> List[Address]:
        """Crashed peers awaiting repair (empty where unsupported)."""
        return sorted(self.net.ghosts) if self.supports("repair") else []

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
        return self.net.reconcile() if self.supports("reconcile") else 0

    def repair_all(self) -> List[RepairResult]:
        """Repair every outstanding crash, priced, where the overlay
        supports it: the network's retry-in-passes loop, each repair
        going through :meth:`submit_repair` and the simulator so replica
        pulls cross priced links as hops.  Drains the simulator
        between repairs; callers invoke this at quiescence."""
        if not self.supports("repair"):
            return []

        def attempt(address: Address) -> Optional[RepairResult]:
            future = self.submit_repair(address)
            self.drain()
            return future.result if future.succeeded else None

        return self.net.repair_all(attempt)

    # -- submission API -------------------------------------------------------
    #
    # Each ``submit_*`` is its argument check plus one ``_submit`` call.

    def submit_search_exact(
        self, key: int, via: Optional[Address] = None
    ) -> OpFuture:
        return self._submit("search.exact", "search_exact_steps", key, entry=via)

    def submit_search_range(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> OpFuture:
        if low >= high:
            raise ValueError(f"empty query range [{low}, {high})")
        return self._submit("search.range", "search_range_steps", low, high, entry=via)

    def submit_insert(self, key: int, via: Optional[Address] = None) -> OpFuture:
        return self._submit("insert", "data_op_steps", key, MsgType.INSERT, entry=via)

    def submit_delete(self, key: int, via: Optional[Address] = None) -> OpFuture:
        return self._submit("delete", "data_op_steps", key, MsgType.DELETE, entry=via)

    def submit_join(self, via: Optional[Address] = None) -> OpFuture:
        # The contact peer is an argument of the walk, not the future's
        # ``entry``: membership operations have no entry->owner stretch.
        start = via if via is not None else self.net.random_peer_address()
        return self._submit("join", "join_steps", start)

    def submit_leave(self, address: Address) -> OpFuture:
        if address in self._pending_leaves:
            raise ValueError(f"a leave of address {address} is already in flight")
        self._pending_leaves.add(address)
        future = self._submit("leave", "leave_steps", address)
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
            "multicast", "multicast_steps", low, high, entry=via, needs="multicast"
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
            "subscribe_steps",
            low,
            high,
            entry=subscriber,
            needs="subscribe",
        )

    def submit_fail(self, address: Address) -> OpFuture:
        """Schedule an abrupt crash of ``address`` one latency from now."""
        return self._submit("fail", "fail_steps", address, needs="fail")

    def submit_repair(self, address: Address) -> OpFuture:
        """Submit the repair of a crashed peer as a priced operation.

        The structural surgery runs atomically in the operation's first
        protocol segment; with replication enabled, the replica pull that
        restores the dead peer's keys follows as priced hops, so the
        future's latency is the crash's *data recovery* time.
        """
        return self._submit("repair", "repair_steps", address, needs="repair")

    def submit_replica_refresh(self) -> List[OpFuture]:
        """Submit one replica-refresh operation per live peer.

        All refreshes are in flight at once (each is an independent
        one-hop bulk transfer from a peer to its current adjacent), so a
        sweep costs one round of messages, not a serial walk.  Like
        the batched sweep below, the transfers ride the reliable channel
        (DESIGN.md, "Delivery contract").
        """
        return [
            self._submit(
                "replica.refresh",
                "replica_refresh_steps",
                address,
                needs="replication",
                reliable=True,
            )
            for address in self.net.addresses()
        ]

    def submit_replica_refresh_sweep(self) -> OpFuture:
        """Submit one refresh round as a *single* batched operation.

        Semantically the same fan-out as :meth:`submit_replica_refresh` —
        every live peer's transfer to its current adjacent is in
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
        # from finishing twice; the last ``join`` releases it.  One
        # predicate object serves the whole round.
        refresh, degraded = self.net.replica_refresh_steps, self._routing_degraded
        for address in self.net.addresses():
            pending += 1
            resume(refresh(address, future.trace, degraded))
        join(0)
        return future

    def leave_candidates(self) -> List[Address]:
        """Live addresses with no leave currently in flight."""
        return [
            address
            for address in self.net.addresses()
            if address not in self._pending_leaves
        ]

    def _routing_degraded(self) -> bool:
        """Whether stale links can legitimately strand an operation:
        other operations are in flight, so links observed at one hop may
        be stale by the next (the network adds its own notion — BATON's
        unrepaired crashes and in-flight refreshes — in ``may_give_up``)."""
        return self._in_flight > 1

    # -- admission and stepping ----------------------------------------------

    def _submit(
        self,
        kind: str,
        op: Optional[str],
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
        membership and maintenance operations enter nowhere.  ``op``
        names the network's step generator — the one its sync facade
        drives — called with ``([entry,] *args)``, the op's trace and
        :meth:`_routing_degraded`, and run behind the client-ingress hop
        (:func:`_ingress`); its first protocol step runs before this
        returns.  A ``reliable`` transfer (the replica refresh) is started
        by a peer itself: no ingress hop, and the reliable channel.  With
        ``op=None`` the caller fans its own step streams out over the
        admitted future (the batched refresh sweep).
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
        if op is None:
            return future
        steps = getattr(self.net, op)(*args, future.trace, self._routing_degraded)
        if not reliable:
            steps = _ingress(args[0], steps)
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
            delay = self.topology.sample(hop.src, hop.dst)
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
        delivered, delay, _duplicate = faults.judge(hop.src, hop.dst, self.sim.now)
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
        cannot fail.
        """
        return self.net.liveness_targets(address) if self.supports("fail") else []

    def _log(self, future: OpFuture, phase: str) -> None:
        self.event_log.append(
            (self.sim.now, future.op_id, future.kind, phase, future.trace.total)
        )
