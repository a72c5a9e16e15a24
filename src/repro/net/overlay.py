"""The synchronous facade every overlay network inherits.

Each overlay writes its operations once, as step generators
(:mod:`repro.util.stepper`) handed the op's trace: ``join_steps``,
``leave_steps``, ``search_exact_steps``, ``search_range_steps`` and
``data_op_steps``.  The event runtime resumes them hop by hop
(:class:`repro.sim.runtime.AsyncOverlayRuntime`); the six synchronous
operations below, written here once for every overlay, drive them to
completion under a fresh bus trace.  So is the one growth loop,
:meth:`OverlayNetwork.grow`, which every overlay's ``build`` runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterable, Optional

from repro.net.address import Address
from repro.net.message import MsgType
from repro.util.stepper import drive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import (
        DataOpResult,
        JoinResult,
        LeaveResult,
        RangeSearchResult,
        SearchResult,
    )


class OverlayNetwork:
    """Base of every overlay network: what the registry and the runtime
    read off the class, plus the sync facade.

    Subclasses provide a ``(config=None, seed=0)`` constructor, ``bus``,
    ``bootstrap()``, ``store_of(address)``, ``random_peer_address()``,
    ``domain`` (the key interval workloads draw from) and the five step
    generators; ``via=None`` enters at a random live peer.
    """

    #: Registry name of the overlay.
    overlay_name: ClassVar[str] = "?"
    #: Optional operations this overlay supports (DESIGN.md, "The
    #: ``Overlay`` protocol").
    capabilities: ClassVar[frozenset] = frozenset()

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

    def attach(self, sim, topology) -> None:
        """Hook the event runtime calls once when it wraps this network,
        handing over its simulator and topology; a no-op for overlays
        whose state does not ride the clock (BATON's scheduled table
        refreshes do)."""

    def join(self, via: Optional[Address] = None) -> "JoinResult":
        """Add one peer, contacting ``via``."""
        start = via if via is not None else self.random_peer_address()
        with self.bus.trace("join") as trace:
            return drive(self.join_steps(start, trace))

    def leave(self, address: Address) -> "LeaveResult":
        """Gracefully remove the peer at ``address``."""
        with self.bus.trace("leave") as trace:
            return drive(self.leave_steps(address, trace))

    def search_exact(self, key: int, via: Optional[Address] = None) -> "SearchResult":
        """Route an exact-match query for ``key`` from ``via``."""
        start = via if via is not None else self.random_peer_address()
        with self.bus.trace("search.exact") as trace:
            return drive(self.search_exact_steps(start, key, trace))

    def search_range(
        self, low: int, high: int, via: Optional[Address] = None
    ) -> "RangeSearchResult":
        """Collect the keys in ``[low, high)``, entering at ``via``."""
        if low >= high:
            raise ValueError(f"empty query range [{low}, {high})")
        start = via if via is not None else self.random_peer_address()
        with self.bus.trace("search.range") as trace:
            return drive(self.search_range_steps(start, low, high, trace))

    def insert(self, key: int, via: Optional[Address] = None) -> "DataOpResult":
        """Route ``key`` to its owner and store it there."""
        start = via if via is not None else self.random_peer_address()
        with self.bus.trace("insert") as trace:
            return drive(self.data_op_steps(start, key, MsgType.INSERT, trace))

    def delete(self, key: int, via: Optional[Address] = None) -> "DataOpResult":
        """Route to the owner of ``key`` and remove one occurrence of it."""
        start = via if via is not None else self.random_peer_address()
        with self.bus.trace("delete") as trace:
            return drive(self.data_op_steps(start, key, MsgType.DELETE, trace))
