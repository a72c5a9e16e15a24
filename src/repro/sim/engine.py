"""Event queue and clock for discrete-event simulation.

The engine is the innermost loop of every concurrent experiment: at
N=10k peers a single churn-and-query run executes millions of events, so
the heap entry and the cancellation path are written for throughput (see
DESIGN.md, "Performance contract"):

* **Slotted handles, not dataclasses.**  :class:`Event` is a plain
  ``__slots__`` class ordered by ``(time, seq)`` — the exact total order
  the previous frozen-dataclass implementation used, so event execution
  order is bit-for-bit unchanged (pinned by the equivalence property
  test in ``tests/test_sim.py``).
* **O(1) handle-based cancellation.**  Cancelling tombstones the handle
  in place (``action = None``) instead of recording its sequence number
  in a side set; schedule/pop never touch a membership structure.  Dead
  entries are skipped lazily at the head of the heap and compacted away
  when they come to dominate, so long churn runs don't hold cancelled
  events — or their closed-over state — forever.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.util.collector import paused


class Event:
    """A scheduled callback, and the handle used to cancel it.

    Ordering is (time, sequence) so simultaneous events run in scheduling
    order, which keeps runs deterministic.  A cancelled (or executed)
    event has ``action`` tombstoned to ``None``.
    """

    __slots__ = ("time", "seq", "action", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Optional[Callable[[], None]],
        label: str = "",
    ):
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.action is None else "live"
        return f"<Event t={self.time} seq={self.seq} {state} {self.label!r}>"


class Simulator:
    """A minimal but complete discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: ..., label="join")
        sim.run()          # or sim.run_until(10.0)
        sim.now            # current simulated time
    """

    def __init__(self) -> None:
        #: Heap of (time, seq, handle) tuples: the (time, seq) prefix gives
        #: total order with C-level tuple comparisons — no Python ``__lt__``
        #: per sift step, which is measurable at millions of events.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        #: Cancelled entries still sitting in the heap (tombstones).
        self._dead = 0
        self.executed_count = 0
        self.cancelled_count = 0
        #: High-water mark of the heap length, for memory profiling.
        self.peak_queue_len = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of events not yet executed (cancelled events excluded)."""
        return len(self._queue) - self._dead

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        event = Event(time, seq, action, label)
        heapq.heappush(self._queue, (time, seq, event))
        if len(self._queue) > self.peak_queue_len:
            self.peak_queue_len = len(self._queue)
        return event

    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` at an absolute simulated time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action, label)
        heapq.heappush(self._queue, (time, seq, event))
        if len(self._queue) > self.peak_queue_len:
            self.peak_queue_len = len(self._queue)
        return event

    #: Below this queue size, compaction isn't worth the rebuild.
    _COMPACT_MIN_QUEUE = 16

    def cancel(self, event: Event) -> bool:
        """Withdraw a scheduled event; its action will never run.

        Returns False when the event already executed or was already
        cancelled.  Cancellation tombstones the handle in place — O(1),
        no membership lookups — and dead entries are dropped lazily as
        the queue pops past them, except when they come to dominate: once
        they exceed half the heap it is compacted (amortized O(1) per
        cancel), so long churn runs don't hold dead events, and their
        closed-over state, forever.
        """
        if event.action is None:
            return False
        event.action = None
        self._dead += 1
        self.cancelled_count += 1
        if (
            len(self._queue) >= self._COMPACT_MIN_QUEUE
            and 2 * self._dead > len(self._queue)
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Events order totally by (time, seq), so a heapified subset pops in
        exactly the order lazy skipping would have produced — no observable
        behaviour change, just reclaimed memory.
        """
        self._queue = [entry for entry in self._queue if entry[2].action is not None]
        heapq.heapify(self._queue)
        self._dead = 0

    def step(self) -> Optional[Event]:
        """Execute the next event; return it, or None if the queue is empty.

        One pop per event: cancelled entries are dropped in the same loop
        that finds the live one.  ``queue`` is not read again once the
        action has run — the action may cancel enough to trigger
        :meth:`_compact`, which rebinds ``self._queue``.
        """
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
            action = event.action
            if action is None:
                self._dead -= 1
                continue
            self._now = event.time
            self.executed_count += 1
            event.action = None  # executed: release the closure, refuse cancel
            action()
            return event
        return None

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``); return #executed.

        Every event is dispatched through :meth:`step`, so a subclass that
        overrides it (the benchmark's tracer) sees each one.  The loop runs
        with the cycle collector paused (:func:`repro.util.collector.paused`):
        a completed op is freed by reference counting.
        """
        executed = 0
        with paused():
            while max_events is None or executed < max_events:
                if self.step() is None:
                    break
                executed += 1
        return executed

    def run_until(self, time: float) -> int:
        """Run every event with timestamp <= ``time``; return #executed.

        Dispatches through :meth:`step` like :meth:`run`; the horizon test
        needs the head's timestamp first, so cancelled heads are dropped
        here before it is read.  Afterwards the clock reads exactly
        ``time``: executing the last in-window event sets it to that
        event's (earlier or equal) timestamp, and the final assignment
        advances it the rest of the way so follow-up ``schedule`` calls
        measure delays from the requested stopping point.  Collector
        paused, as in :meth:`run`.
        """
        executed = 0
        with paused():
            while True:
                queue = self._queue  # re-read: an action may have compacted it
                while queue and queue[0][2].action is None:
                    heapq.heappop(queue)
                    self._dead -= 1
                if not queue or queue[0][0] > time:
                    break
                self.step()
                executed += 1
        if self._now < time:
            self._now = time
        return executed
