"""The overlay interface: the one surface every overlay network shares.

BATON, Chord and the multiway tree are three answers to the same question
— how should N peers partition a key space and route to it? — and the
experiments ask them identical questions.  :class:`OverlayNetwork` is that
question's one declaration (DESIGN.md, "The overlay interface"): the
members each overlay must write are abstract, so a newcomer that forgets
one fails with ``TypeError`` when it is built, and everything written once
for every overlay lives here.

Each overlay writes its operations once, as step generators
(:mod:`repro.util.stepper`) handed the op's trace: ``join_steps``,
``leave_steps``, ``search_exact_steps``, ``search_range_steps`` and
``data_op_steps``.  The event runtime resumes them hop by hop
(:class:`repro.sim.runtime.AsyncOverlayRuntime`, built by :meth:`wrap`);
the six synchronous operations below drive them to completion under a
fresh bus trace.  So is the one growth loop, :meth:`OverlayNetwork.grow`,
which every overlay's ``build`` runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.net.address import Address
from repro.net.bus import Trace
from repro.net.message import MsgType
from repro.util.stepper import MessageSteps, drive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ranges import Range
    from repro.core.results import (
        DataOpResult,
        JoinResult,
        LeaveResult,
        RangeSearchResult,
        SearchResult,
    )
    from repro.core.storage import LocalStore
    from repro.sim.runtime import AsyncOverlayRuntime

#: Names an overlay may advertise in its ``capabilities`` set.
FAIL = "fail"
REPAIR = "repair"
BALANCE = "balance"
RECONCILE = "reconcile"
REPLICATION = "replication"
MULTICAST = "multicast"
SUBSCRIBE = "subscribe"
LOCALITY = "locality"

ALL_CAPABILITIES = frozenset(
    {FAIL, REPAIR, BALANCE, RECONCILE, REPLICATION, MULTICAST, SUBSCRIBE, LOCALITY}
)


class OverlayNetwork(ABC):
    """Base of every overlay network: what the registry and the runtime
    read off the class, the sync facade and the growth loop.

    Subclasses provide a ``(config=None, seed=0)`` constructor, a ``bus``
    (:class:`~repro.net.bus.MessageBus`) and every abstract member below;
    ``via=None`` enters at a random live peer.  Step generators take
    ``(start, ..., trace, degraded=None)``: they only read ``trace`` (join
    and leave cut it into ``find_trace`` / ``update_trace``) and return the
    unified result; ``degraded`` is None when driven synchronously and the
    runtime's give-up predicate otherwise.

    Optional capabilities (:data:`ALL_CAPABILITIES`) are declared in
    ``capabilities`` rather than stubbed with no-ops, so a comparison never
    silently measures a missing feature; the runtime refuses an undeclared
    one with :class:`~repro.util.errors.CapabilityError`.  A declared
    capability brings its surface, which the runtime reaches only behind
    the declaration: ``fail_steps`` and ``liveness_targets`` (``fail``);
    ``repair_steps``, ``repair_all(attempt)`` and ``ghosts`` (``repair``);
    ``reconcile()``; ``replica_refresh_steps`` and ``config.replication``
    (``replication``); ``multicast_steps``; ``subscribe_steps``.
    """

    #: Registry name of the overlay.
    overlay_name: ClassVar[str] = "?"
    #: Optional operations this overlay supports, a subset of
    #: :data:`ALL_CAPABILITIES`.
    capabilities: ClassVar[frozenset] = frozenset()

    # -- the surface each overlay writes ---------------------------------------

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of live peers."""

    @property
    @abstractmethod
    def domain(self) -> "Range":
        """The key interval workloads draw from."""

    @abstractmethod
    def bootstrap(self) -> Address:
        """Create the first peer and return its address."""

    @abstractmethod
    def store_of(self, address: Address) -> "LocalStore":
        """The key store of the live peer at ``address``."""

    @abstractmethod
    def addresses(self) -> List[Address]:
        """Every live peer's address."""

    @abstractmethod
    def random_peer_address(self) -> Address:
        """A uniformly random live peer (query and join entry points)."""

    @abstractmethod
    def bulk_load(self, keys: Sequence[int]) -> int:
        """Place ``keys`` at their owners without messages (untimed);
        returns how many were placed."""

    @abstractmethod
    def join_steps(
        self,
        start: Address,
        trace: "Trace",
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Add one peer, contacting ``start``."""

    @abstractmethod
    def leave_steps(
        self,
        address: Address,
        trace: "Trace",
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Gracefully remove the peer at ``address``."""

    @abstractmethod
    def search_exact_steps(
        self,
        start: Address,
        key: int,
        trace: "Trace",
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Route an exact-match query for ``key`` from ``start``."""

    @abstractmethod
    def search_range_steps(
        self,
        start: Address,
        low: int,
        high: int,
        trace: "Trace",
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Collect the keys in ``[low, high)``, flagging a truncated
        answer with ``complete=False``."""

    @abstractmethod
    def data_op_steps(
        self,
        start: Address,
        key: int,
        mtype: MsgType,
        trace: "Trace",
        degraded: Optional[Callable[[], bool]] = None,
    ) -> MessageSteps:
        """Route ``key`` to its owner and insert or delete it (``mtype``)."""

    # -- written once for every overlay ----------------------------------------

    @classmethod
    def build(
        cls,
        n_peers: int,
        seed: int = 0,
        config: Optional[object] = None,
        keys: Optional[Iterable[int]] = None,
    ):
        """A fresh network of ``n_peers`` grown around ``keys`` (:meth:`grow`)."""
        if n_peers < 1:
            raise ValueError("need at least one peer")
        net = cls(config=config, seed=seed)
        net.grow(n_peers, keys)
        return net

    def grow(self, n_peers: int, keys: Optional[Iterable[int]] = None) -> None:
        """The growth loop: bootstrap, load ``keys``, then join the rest.

        The paper loads its 1000·N values "in batches" while the network
        forms (§V), so the first peer holds the whole dataset and every
        join's median split halves actual content — ranges equalize by
        load.  An overlay with another placement regime overrides
        ``build`` (Chord hashes, so it grows empty and places afterwards).
        """
        first = self.bootstrap()
        if keys is not None:
            self.store_of(first).extend(keys)
        for _ in range(n_peers - 1):
            self.join()

    def wrap(self, **runtime_kwargs) -> "AsyncOverlayRuntime":
        """This network in the event runtime, for concurrent traffic
        (``sim=``, ``topology=``, ``record_events=``, ``retain_ops=``).

        A plain method, so ``overlays.get(name).wrap(net, ...)`` is the
        same call as ``net.wrap(...)``."""
        # Imported here: repro.sim.runtime imports repro.core, which
        # imports this module.
        from repro.sim.runtime import AsyncOverlayRuntime

        return AsyncOverlayRuntime(self, **runtime_kwargs)

    def attach(self, sim, topology) -> None:
        """Hook the event runtime calls once when it wraps this network,
        handing over its simulator and topology; a no-op for overlays
        whose state does not ride the clock (BATON's scheduled table
        refreshes do)."""

    def _traced(self, label: str, steps_of: Callable[..., MessageSteps], *args):
        """Drive ``steps_of(*args, trace)`` to completion under a fresh
        trace.  Plain push/pop in a try/finally, as the runtime's
        ``_resume`` does: a generator-based ``with`` block costs frames on
        every sync op."""
        trace = Trace(label)
        bus = self.bus
        bus.push_trace(trace)
        try:
            return drive(steps_of(*args, trace))
        finally:
            bus.pop_trace()

    def join(self, via: Optional[Address] = None) -> "JoinResult":
        """Add one peer, contacting ``via``."""
        start = via if via is not None else self.random_peer_address()
        return self._traced("join", self.join_steps, start)

    def leave(self, address: Address) -> "LeaveResult":
        """Gracefully remove the peer at ``address``."""
        return self._traced("leave", self.leave_steps, address)

    def search_exact(self, key: int, via: Optional[Address] = None) -> "SearchResult":
        """Route an exact-match query for ``key`` from ``via``."""
        start = via if via is not None else self.random_peer_address()
        return self._traced("search.exact", self.search_exact_steps, start, key)

    def search_range(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> "RangeSearchResult":
        """Collect the keys in ``[low, high)``, entering at ``via``."""
        if low >= high:
            raise ValueError(f"empty query range [{low}, {high})")
        start = via if via is not None else self.random_peer_address()
        return self._traced(
            "search.range", self.search_range_steps, start, low, high
        )

    def insert(self, key: int, via: Optional[Address] = None) -> "DataOpResult":
        """Route ``key`` to its owner and store it there."""
        start = via if via is not None else self.random_peer_address()
        return self._traced(
            "insert", self.data_op_steps, start, key, MsgType.INSERT
        )

    def delete(self, key: int, via: Optional[Address] = None) -> "DataOpResult":
        """Route to the owner of ``key`` and remove one occurrence of it."""
        start = via if via is not None else self.random_peer_address()
        return self._traced(
            "delete", self.data_op_steps, start, key, MsgType.DELETE
        )
