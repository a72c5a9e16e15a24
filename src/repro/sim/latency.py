"""Scalar latency models: degenerate single-region topologies.

Figure 8(i) needs a notion of "how long does a routing-table update take to
reach everyone" versus "how often do queries arrive meanwhile".  Absolute
units are arbitrary (the paper reports message counts, not seconds); what
matters is the ratio between update-propagation delay and churn intensity.

Since the transport seam became topology-aware (:mod:`repro.sim.topology`),
these models are :class:`~repro.sim.topology.Topology` subclasses whose
delay simply ignores which link a message crosses — every pair of peers is
one region away.  Subclasses implement the link-blind
:meth:`LatencyModel.draw` (what ``sample`` returns) and
:meth:`LatencyModel.expected_delay` (what ``direct_delay`` returns).
"""

from __future__ import annotations

import abc

from repro.sim.topology import Topology
from repro.util.rng import SeededRng


class LatencyModel(Topology):
    """A link-blind delay distribution — a degenerate single-region topology.

    Subclasses implement :meth:`draw`; ``sample(src, dst)`` returns one
    draw regardless of the link, so ``None`` endpoints need no
    normalizing.
    """

    @abc.abstractmethod
    def draw(self) -> float:
        """Return one delay, in arbitrary simulated time units (>= 0)."""

    def expected_delay(self) -> float:
        """The distribution's mean — :meth:`direct_delay` for every link."""
        raise NotImplementedError

    def sample(self, src, dst, *, size: float = 0.0) -> float:
        # Link-blind: a sample is exactly one draw.
        return self.draw()

    def direct_delay(self, src, dst) -> float:
        # Deterministic by contract (metrics must not consume the stream).
        return self.expected_delay()


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0):
        if delay < 0:
            raise ValueError("latency cannot be negative")
        self.delay = delay

    def draw(self) -> float:
        return self.delay

    def expected_delay(self) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from [low, high)."""

    def __init__(self, low: float, high: float, rng: SeededRng):
        if low < 0 or high < low:
            raise ValueError(f"invalid latency bounds [{low}, {high})")
        self.low = low
        self.high = high
        self._rng = rng

    def draw(self) -> float:
        return self._rng.uniform(self.low, self.high)

    def expected_delay(self) -> float:
        return (self.low + self.high) / 2.0


class ExponentialLatency(LatencyModel):
    """Memoryless delays with the given mean."""

    def __init__(self, mean: float, rng: SeededRng):
        if mean <= 0:
            raise ValueError("mean latency must be positive")
        self.mean = mean
        self._rng = rng

    def draw(self) -> float:
        return self._rng.expovariate(1.0 / self.mean)

    def expected_delay(self) -> float:
        return self.mean
