"""The synchronous facade every overlay network inherits.

Each overlay writes its operations once, as step generators
(:mod:`repro.util.stepper`) handed the op's trace: ``join_steps``,
``leave_steps``, ``search_exact_steps``, ``search_range_steps`` and
``data_op_steps``.  The event runtime resumes them hop by hop
(:class:`repro.sim.runtime.AsyncOverlayRuntime`); the six synchronous
operations below, written here once for every overlay, drive them to
completion under a fresh bus trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Optional

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

    Subclasses provide ``bus``, ``random_peer_address()``, ``domain`` (the
    key interval workloads draw from) and the five step generators;
    ``via=None`` enters at a random live peer.
    """

    #: Registry name of the overlay.
    overlay_name: ClassVar[str] = "?"
    #: Optional operations this overlay supports (DESIGN.md, "The
    #: ``Overlay`` protocol").
    capabilities: ClassVar[frozenset] = frozenset()

    def attach(self, sim, topology) -> None:
        """Hook the event runtime calls once when it wraps this network,
        handing over its simulator and topology; a no-op for overlays
        whose state does not ride the clock (BATON's deferred table
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
