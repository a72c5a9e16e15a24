"""Seam tracing from outside the program: spans at boundaries that already exist.

Nothing under ``src/`` knows about this file.  The traced repeat hands the
runtime objects it already accepts through public parameters —

* a :class:`TracingSimulator` (``wrap(sim=...)``) that times ``schedule()``
  and ``step()`` and wraps each scheduled action, bucketed by its label;
* a :class:`TracedTopology` (``wrap(topology=...)``, *inside* any
  ``FaultPlan``) that times ``sample()``;
* instance-level wrappers (:func:`trace_method`) around ``net.bus.send``
  and ``FaultPlan.judge``

— and a shared :class:`Tracer` turns the enter/exit calls into spans.
A span's *self time* is its duration minus the part its child spans cover,
so the layer self-times add up to the time covered by root spans; whatever
the timed window spent outside any span is reported as unattributed.

What this cannot separate: ``sim.runtime.step`` self time is the runtime's
``_advance`` *plus* the core/pubsub step generators it resumes (no seam
between them is visible from outside), and an arrival's self time includes
the submitted operation's first protocol step, which the runtime executes
synchronously inside ``submit_*``.  An in-program timer is a later issue.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.topology import Topology

STEP = "sim.engine.step"
SCHEDULE = "sim.engine.schedule"
SAMPLE = "sim.topology.sample"
JUDGE = "sim.faults.judge"
SEND = "net.bus.send"
ARRIVAL = "workloads.concurrent.arrival"
MAINTENANCE = "sim.runtime.maintenance"
OP_STEP = "sim.runtime.step"
SPAN_NAMES = (STEP, SCHEDULE, SAMPLE, JUDGE, SEND, ARRIVAL, MAINTENANCE, OP_STEP)


def bucket_of(label: str) -> str:
    """The layer a scheduled action belongs to, from its event label."""
    if label.startswith("arrival."):
        return ARRIVAL
    if label == "maintenance" or label.startswith("repair-"):
        return MAINTENANCE
    return OP_STEP


class Tracer:
    """Span stack with self-time aggregation and a bounded raw sample.

    Recording is off until :meth:`start`; the wrappers stay installed for
    the whole traced repeat but only the timed window between ``start``
    and ``stop`` produces spans.
    """

    def __init__(self, sample_limit: int = 4000, sample_stride: int = 997):
        self.on = False
        self.clock = time.perf_counter
        #: Open spans: [name, raw index, child time, start].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
        #: Time covered by root spans (equals the sum of all self times).
        self.root_s = 0.0
        self.window_s = 0.0
        self._window_start = 0.0
        #: Raw spans [name, start, end, parent index or -1, op label] of
        #: every ``sample_stride``-th root span and its descendants.
        self.raw: List[list] = []
        self._sample_limit = sample_limit
        self._sample_stride = sample_stride
        self._roots = 0
        self._sampling = False
        self._label = ""

    def start(self) -> None:
        self.on = True
        self._window_start = self.clock()

    def stop(self) -> None:
        self.window_s += self.clock() - self._window_start
        self.on = False
        if self._stack:
            raise RuntimeError(f"tracer stopped with open spans: {self._stack}")

    def enter(self, name: str, label: Optional[str] = None) -> None:
        stack = self._stack
        if not stack:
            self._roots += 1
            self._sampling = (
                self._roots % self._sample_stride == 1
                and len(self.raw) < self._sample_limit
            )
        raw_index = self._sample(name, label) if self._sampling else -1
        stack.append([name, raw_index, 0.0, self.clock()])

    def _sample(self, name: str, label: Optional[str]) -> int:
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        if not stack:
            self._label = ""
        if label is not None:
            # The action names the operation; the engine step that popped
            # it (its parent span) belongs to the same one.
            self._label = label
            if parent >= 0:
                self.raw[parent][4] = label
        self.raw.append([name, 0.0, 0.0, parent, self._label])
        return len(self.raw) - 1

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack
        name, raw_index, child_s, start = stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        else:
            self.root_s += duration
        if raw_index >= 0:
            span = self.raw[raw_index]
            span[1] = start - self._window_start
            span[2] = end - self._window_start

    @property
    def unattributed_s(self) -> float:
        """Window time outside every span (loop glue, report folding and
        the part of the tracer's own cost that falls between spans)."""
        return self.window_s - self.root_s

    def as_dict(self) -> dict:
        return {
            "window_s": self.window_s,
            "root_s": self.root_s,
            "unattributed_s": self.unattributed_s,
            "self_s": self.self_s,
            "calls": self.calls,
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.raw,
        }


class _TracedAction:
    """A scheduled callback that runs inside its layer's span."""

    __slots__ = ("tracer", "action", "bucket", "label")

    def __init__(self, tracer: Tracer, action: Callable[[], None], label: str):
        self.tracer = tracer
        self.action = action
        self.bucket = bucket_of(label)
        self.label = label

    def __call__(self) -> None:
        tracer = self.tracer
        if not tracer.on:
            return self.action()
        tracer.enter(self.bucket, self.label)
        try:
            self.action()
        finally:
            tracer.exit()


class TracingSimulator(Simulator):
    """The engine with spans around ``schedule``/``schedule_at``/``step``."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def schedule(self, delay, action, label=""):
        return self._spanned(super().schedule, delay, action, label)

    def schedule_at(self, time, action, label=""):
        return self._spanned(super().schedule_at, time, action, label)

    def _spanned(self, schedule, when, action, label):
        tracer = self.tracer
        action = _TracedAction(tracer, action, label)
        if not tracer.on:
            return schedule(when, action, label)
        tracer.enter(SCHEDULE)
        try:
            return schedule(when, action, label)
        finally:
            tracer.exit()

    def step(self):
        tracer = self.tracer
        if not tracer.on:
            return super().step()
        tracer.enter(STEP)
        try:
            return super().step()
        finally:
            tracer.exit()


class TracedTopology(Topology):
    """Delegating transport that times ``sample()``.

    Everything else — ``direct_delay``, ``region_of``, placements — is
    forwarded untouched, so the topology consumes exactly the draws it
    would have unwrapped and the modelled run is unchanged.
    """

    def __init__(self, inner: Topology, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def sample(self, src, dst, *, size: float = 0.0) -> float:
        tracer = self.tracer
        if not tracer.on:
            return self.inner.sample(src, dst, size=size)
        tracer.enter(SAMPLE)
        try:
            return self.inner.sample(src, dst, size=size)
        finally:
            tracer.exit()

    def link_delay(self, src, dst) -> float:
        return self.inner.link_delay(src, dst)

    def link_bandwidth(self, src, dst):
        return self.inner.link_bandwidth(src, dst)

    def direct_delay(self, src, dst) -> float:
        return self.inner.direct_delay(src, dst)

    def __getattr__(self, name: str):
        # Only reached for attributes this class does not define
        # (region_of, placement, ...): answer exactly as the inner would.
        return getattr(self.inner, name)


def trace_method(owner: object, method: str, tracer: Tracer, span: str) -> None:
    """Shadow ``owner.method`` with an instance attribute that opens ``span``."""
    inner = getattr(owner, method)

    def traced(*args, **kwargs):
        if not tracer.on:
            return inner(*args, **kwargs)
        tracer.enter(span)
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.exit()

    setattr(owner, method, traced)
