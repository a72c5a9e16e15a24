"""The ``Overlay`` protocol: the surface every overlay network shares.

BATON, Chord and the multiway tree are three answers to the same question —
how should N peers partition a key space and route to it? — and the
experiments ask them identical questions.  This module names the contract
they all satisfy, so harnesses, workloads and the async runtime can be
written once against it (see DESIGN.md for the full contract, including
the message-accounting honesty rules implementations must follow).

Required surface (structural, checked by the conformance suite):

* ``overlay_name`` / ``capabilities`` / ``domain`` — registry name,
  optional capabilities (below) and the key interval workloads draw from;
* ``build(n, seed=0, config=None, keys=None)`` — classmethod constructor,
  inherited from :class:`~repro.net.overlay.OverlayNetwork`: its growth
  loop (``grow``) calls ``bootstrap()``, hands the first peer ``keys``
  through ``store_of(address).extend`` and joins the rest, so a newcomer
  grows around its data unless it overrides ``build`` (Chord places by
  hash);
* ``size`` / ``addresses()`` / ``random_peer_address()`` — population;
* five step generators (:mod:`repro.util.stepper`) — ``join_steps``,
  ``leave_steps``, ``search_exact_steps``, ``search_range_steps`` and
  ``data_op_steps`` (insert or delete by ``mtype``) — each operation
  written once, handed the op's ``trace`` (which it only reads; join and
  leave cut it into ``find_trace`` / ``update_trace``) and returning the
  unified result.  ``degraded`` is None when driven synchronously; the
  async runtime passes its give-up predicate and delegates to them behind
  the client-ingress hop, so a new overlay writes no runtime code;
* ``join`` / ``leave`` / ``search_exact`` / ``search_range`` / ``insert``
  / ``delete`` — the sync facade inherited from
  :class:`~repro.net.overlay.OverlayNetwork`, each
  ``with bus.trace(...) as trace: return drive(<op>_steps(..., trace))``;
* ``bulk_load(keys)`` — untimed initial placement;
* ``attach(sim, topology)`` — the hook the async runtime calls once when
  it wraps the network (a no-op inherited from ``OverlayNetwork`` unless
  state rides the clock, as BATON's table refreshes do).

Optional capabilities — abrupt ``fail``/``repair``, load ``balance``,
``reconcile`` anti-entropy, ``replication``, and the dissemination pair
``multicast``/``subscribe`` — are declared on the network class and
advertised on the registry entry
(:class:`~repro.overlays.registry.OverlayEntry`) and on the async runtime
(:meth:`~repro.sim.runtime.AsyncOverlayRuntime.supports`) rather than
stubbed with no-ops, so comparisons never silently measure a missing
feature.  A declared capability brings its network surface, which the
runtime reaches only behind the declaration: ``fail_steps`` and
``liveness_targets`` (``fail``); ``repair_steps``, ``repair_all(attempt)``
and ``ghosts`` (``repair``); ``reconcile()``; ``replica_refresh_steps``
and ``config.replication`` (``replication``); ``multicast_steps``;
``subscribe_steps``.  The extension step generators take ``(target, ...,
trace, degraded=None)`` like the five above — BATON's live on
:class:`~repro.core.network.BatonNetwork`, delegating to
:mod:`repro.core.failure`, :mod:`repro.core.replication` and
:mod:`repro.pubsub`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence, runtime_checkable

from repro.core.results import (
    DataOpResult,
    JoinResult,
    LeaveResult,
    RangeSearchResult,
    SearchResult,
)
from repro.core.ranges import Range
from repro.core.storage import LocalStore
from repro.net.address import Address
from repro.net.bus import MessageBus, Trace
from repro.net.message import MsgType
from repro.util.stepper import MessageSteps

#: Names an overlay may advertise in its ``capabilities`` set.
FAIL = "fail"
REPAIR = "repair"
BALANCE = "balance"
RECONCILE = "reconcile"
REPLICATION = "replication"
MULTICAST = "multicast"
SUBSCRIBE = "subscribe"

ALL_CAPABILITIES = frozenset(
    {FAIL, REPAIR, BALANCE, RECONCILE, REPLICATION, MULTICAST, SUBSCRIBE}
)


@runtime_checkable
class Overlay(Protocol):
    """Structural type for a synchronous overlay network.

    ``isinstance(net, Overlay)`` checks attribute presence only (the
    standard :func:`typing.runtime_checkable` semantics); behavioural
    conformance — result types, the ``complete`` flag, message accounting —
    is pinned by ``tests/test_overlay_protocol.py``.
    """

    bus: MessageBus
    overlay_name: str
    capabilities: frozenset

    @property
    def domain(self) -> Range: ...

    @property
    def size(self) -> int: ...

    def addresses(self) -> List[Address]: ...

    def bootstrap(self) -> Address: ...

    def store_of(self, address: Address) -> LocalStore: ...

    def random_peer_address(self) -> Address: ...

    def join(self, via: Optional[Address] = None) -> JoinResult: ...

    def leave(self, address: Address) -> LeaveResult: ...

    def join_steps(
        self,
        start: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps: ...

    def leave_steps(
        self,
        address: Address,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps: ...

    def search_exact_steps(
        self,
        start: Address,
        key: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps: ...

    def search_range_steps(
        self,
        start: Address,
        low: int,
        high: int,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps: ...

    def data_op_steps(
        self,
        start: Address,
        key: int,
        mtype: MsgType,
        trace: Trace,
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps: ...

    def search_exact(
        self, key: int, via: Optional[Address] = None
    ) -> SearchResult: ...

    def search_range(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> RangeSearchResult: ...

    def insert(self, key: int, via: Optional[Address] = None) -> DataOpResult: ...

    def delete(self, key: int, via: Optional[Address] = None) -> DataOpResult: ...

    def bulk_load(self, keys: Sequence[int]) -> int: ...
