"""The ``Overlay`` protocol: the surface every overlay network shares.

BATON, Chord and the multiway tree are three answers to the same question —
how should N peers partition a key space and route to it? — and the
experiments ask them identical questions.  This module names the contract
they all satisfy, so harnesses, workloads and the async runtime can be
written once against it (see DESIGN.md for the full contract, including
the message-accounting honesty rules implementations must follow).

Required surface (structural, checked by the conformance suite):

* ``build(n, seed=0, config=None)`` — classmethod constructor;
* ``size`` / ``addresses()`` / ``random_peer_address()`` — population;
* ``join_steps(start, trace, degraded=None)`` /
  ``leave_steps(address, trace, degraded=None)`` — membership, written
  once as step generators (:mod:`repro.util.stepper`) returning
  :class:`~repro.core.results.JoinResult` / ``LeaveResult``, each cutting
  the op's ``trace`` into ``find_trace`` and ``update_trace`` at its
  commit.  ``degraded`` is None when driven synchronously; the async
  runtime passes its give-up predicate and delegates to them (``yield
  from``) behind the client-ingress hop, so a new overlay writes no
  runtime membership code;
* ``join(via=None)`` / ``leave(address)`` — the sync facade, each
  ``with bus.trace(...) as trace: return drive(<op>_steps(..., trace))``;
* ``search_exact`` / ``search_range`` / ``insert`` / ``delete`` — data
  operations returning the unified result types (range answers carry the
  ``complete`` truncation flag);
* ``bulk_load(keys)`` — untimed initial placement.

Optional capabilities — abrupt ``fail``/``repair``, load ``balance``,
``reconcile`` anti-entropy, ``replication``, and the dissemination pair
``multicast``/``subscribe`` — are advertised on the registry entry
(:class:`~repro.overlays.registry.OverlayEntry`) and on the async runtime
(:meth:`~repro.sim.runtime.AsyncOverlayRuntime.supports`) rather than
stubbed with no-ops, so comparisons never silently measure a missing
feature.
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
from repro.net.address import Address
from repro.net.bus import MessageBus, Trace
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

    @property
    def size(self) -> int: ...

    def addresses(self) -> List[Address]: ...

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

    def search_exact(
        self, key: int, via: Optional[Address] = None
    ) -> SearchResult: ...

    def search_range(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> RangeSearchResult: ...

    def insert(self, key: int, via: Optional[Address] = None) -> DataOpResult: ...

    def delete(self, key: int, via: Optional[Address] = None) -> DataOpResult: ...

    def bulk_load(self, keys: Sequence[int]) -> int: ...
