"""The message bus: delivery bookkeeping and traffic accounting.

The bus is the single funnel through which every inter-peer hop passes —
:meth:`MessageBus.send` ``(src, dst, mtype)``, one call and one frame per
message, no message object.  It does three jobs:

* **Liveness** — the bus keeps no membership of its own: it reads the
  network's one live map (``OverlayNetwork.peers``), so a peer is reachable
  exactly while it is in that map.  Sending to a departed, crashed or
  unknown address raises :class:`~repro.util.errors.PeerNotFoundError`
  *after* the attempt is counted, because the paper counts the wasted
  message too (the sender paid for it and must now route around the
  failure).
* **Global accounting** — the total and the totals by :class:`MsgType`,
  nothing per peer or per level: a reader that wants a finer split (Figure
  8(f)'s load by tree level) wraps ``send`` on its own network for as long
  as it measures, the seam the honesty audit and the benchmark tracer use.
* **Per-operation traces** — each operation runs under its own trace
  (:meth:`MessageBus.push_trace` / :meth:`MessageBus.pop_trace`, or the
  :meth:`MessageBus.trace` block); all messages sent while a trace is open
  are attributed to it, so "average messages per exact-match query" is just
  the mean of trace totals.

``send`` is the only code that writes a :class:`TrafficStats` or a
:class:`Trace` counter (DESIGN.md, "Performance contract": per-hop path).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Container, Iterator, Optional

from repro.net.address import Address
from repro.net.message import MsgType
from repro.util.errors import PeerNotFoundError


@dataclass(slots=True, init=False)
class Trace:
    """Message accounting for a single logical operation.

    Every op opens one, so it is slotted and its empty counter is made by
    ``Counter.__new__``, without ``Counter.__init__``'s Python frames.
    """

    label: str
    total: int
    by_type: Counter
    path: list[Address]

    def __init__(
        self,
        label: str,
        total: int = 0,
        by_type: Optional[Counter] = None,
        path: Optional[list[Address]] = None,
    ) -> None:
        self.label = label
        self.total = total
        self.by_type = Counter.__new__(Counter) if by_type is None else by_type
        self.path = [] if path is None else path

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


class MessageBus:
    """Validates liveness against the network's live map and counts every
    message.

    ``alive`` is read, never written: any container of the live addresses
    (the network's ``peers`` map; a plain set in unit tests).
    """

    def __init__(self, alive: Container[Address]) -> None:
        self._live = alive
        self.stats = TrafficStats()
        self._trace_stack: list[Trace] = []

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
        for trace in self._trace_stack:
            trace.total += 1
            trace.by_type[mtype] += 1
            trace.path.append(dst)
        if dst not in self._live:
            raise PeerNotFoundError(dst)

    # -- traces -----------------------------------------------------------

    @contextmanager
    def trace(self, label: str) -> Iterator[Trace]:
        """Open a per-operation trace; nested traces each see the traffic."""
        trace = Trace(label)
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
