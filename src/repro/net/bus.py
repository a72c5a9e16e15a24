"""The message bus: delivery bookkeeping and traffic accounting.

The bus is the single funnel through which every inter-peer hop passes —
:meth:`MessageBus.send` ``(src, dst, mtype)``, one call and one frame per
message, no message object.  It does three jobs:

* **Liveness** — peers register on join and unregister on departure; failure
  experiments mark peers dead.  Sending to a dead or unknown address raises
  :class:`~repro.util.errors.PeerNotFoundError` *after* the attempt is
  counted, because the paper counts the wasted message too (the sender paid
  for it and must now route around the failure).
* **Global accounting** — totals by :class:`MsgType`, per receiving peer, and
  per tree level (for Figure 8(f)'s access-load-by-level plot; the overlay
  installs a resolver mapping an address to its current level).
* **Per-operation traces** — experiments wrap each operation in
  :meth:`MessageBus.trace`; all messages sent while a trace is open are
  attributed to it, so "average messages per exact-match query" is just the
  mean of trace totals.

``send`` is the only code that writes a :class:`TrafficStats` or a
:class:`Trace` counter (DESIGN.md, "Performance contract": per-hop path).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.net.address import Address
from repro.net.message import MsgType
from repro.util.errors import PeerNotFoundError


@dataclass
class Trace:
    """Message accounting for a single logical operation."""

    label: str
    total: int = 0
    by_type: Counter = field(default_factory=Counter)
    path: list[Address] = field(default_factory=list)

    def count(self, *mtypes: MsgType) -> int:
        """Total messages of the given categories (all if none given)."""
        if not mtypes:
            return self.total
        return sum(self.by_type[mtype] for mtype in mtypes)

    def frozen(self, label: str) -> "Trace":
        """A copy of the trace as it stands now; later traffic misses it."""
        return Trace(label, self.total, Counter(self.by_type), list(self.path))

    def since(self, mark: "Trace", label: str) -> "Trace":
        """The traffic recorded after ``mark``, a :meth:`frozen` copy of
        this trace (how one op's trace splits into find and update)."""
        return Trace(
            label,
            self.total - mark.total,
            self.by_type - mark.by_type,
            self.path[len(mark.path):],
        )


@dataclass
class TrafficStats:
    """Cumulative global traffic counters."""

    total: int = 0
    by_type: Counter = field(default_factory=Counter)
    per_peer: Counter = field(default_factory=Counter)
    per_level_by_type: Counter = field(default_factory=Counter)

    def level_load(self, mtype: MsgType) -> dict[int, int]:
        """Messages of one category received, grouped by tree level."""
        loads: dict[int, int] = {}
        for (level, kind), count in self.per_level_by_type.items():
            if kind is mtype:
                loads[level] = loads.get(level, 0) + count
        return loads


class MessageBus:
    """Registers peers, validates liveness and counts every message."""

    def __init__(self) -> None:
        self._alive: set[Address] = set()
        self.stats = TrafficStats()
        self._trace_stack: list[Trace] = []
        self._level_resolver: Optional[Callable[[Address], Optional[int]]] = None

    # -- liveness ---------------------------------------------------------

    def register(self, address: Address) -> None:
        """Declare a peer live (called when it joins the network)."""
        self._alive.add(address)

    def unregister(self, address: Address) -> None:
        """Remove a peer (graceful departure or permanent failure)."""
        self._alive.discard(address)

    # -- accounting hooks -------------------------------------------------

    def set_level_resolver(
        self, resolver: Optional[Callable[[Address], Optional[int]]]
    ) -> None:
        """Install a callback mapping an address to its current tree level.

        The overlay network owns the mapping; the bus only uses it to bucket
        per-level load for Figure 8(f).
        """
        self._level_resolver = resolver

    # -- sending ----------------------------------------------------------

    def send(self, src: Address, dst: Address, mtype: MsgType) -> None:
        """Account for one message and validate that the target is live.

        Raises :class:`PeerNotFoundError` if the destination is dead or
        unknown — *after* every counter and every open trace has the
        message: an attempt to contact a failed peer still crossed the
        network.
        """
        stats = self.stats
        stats.total += 1
        stats.by_type[mtype] += 1
        stats.per_peer[dst] += 1
        resolver = self._level_resolver
        level = resolver(dst) if resolver is not None else None
        if level is not None:
            stats.per_level_by_type[(level, mtype)] += 1
        for trace in self._trace_stack:
            trace.total += 1
            trace.by_type[mtype] += 1
            trace.path.append(dst)
        if dst not in self._alive:
            raise PeerNotFoundError(dst)

    # -- traces -----------------------------------------------------------

    @contextmanager
    def trace(self, label: str) -> Iterator[Trace]:
        """Open a per-operation trace; nested traces each see the traffic."""
        trace = Trace(label=label)
        self._trace_stack.append(trace)
        try:
            yield trace
        finally:
            self._trace_stack.pop()

    def push_trace(self, trace: Trace) -> None:
        """Attribute traffic to an *existing* trace until :meth:`pop_trace`.

        The event-driven runtime executes one operation as many separate
        simulator events; :meth:`trace`'s with-block scoping cannot span
        them, so each event step re-opens the operation's own trace, which
        accumulates across steps.  Plain calls rather than a context
        manager: at one push per simulator event the generator machinery
        of a ``with`` block is measurable overhead (the caller pops in a
        try/finally).
        """
        self._trace_stack.append(trace)

    def pop_trace(self) -> None:
        """Undo the matching :meth:`push_trace`."""
        self._trace_stack.pop()
