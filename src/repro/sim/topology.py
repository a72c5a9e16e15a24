"""Topology-aware transport: per-link delay and bandwidth.

The paper's cost model counts hops as if every link were equal, but BATON's
sideways routing tables only earn their keep on real networks where links
have heterogeneous cost — a hop that skips across subtrees is worth more
when it also skips an ocean.  This module is the transport seam that lets
the experiments ask that question: every peer address is assigned a
*placement* (a region, a coordinate), and each message's transit time is
drawn **per link** via :meth:`Topology.sample`, optionally including a
message-size/bandwidth serialization term.

The contract (see DESIGN.md, "Transport contract"):

* Protocol walks declare every hop as a :class:`Hop` — which pair of peers
  the message travels between, and how big it is.  ``src=None`` marks a
  client-ingress hop (the request entering the overlay from outside);
  ``src == dst`` marks a local beat, charged as the cheapest link and
  never free.
* ``sample(src, dst, size=...)`` is the **only** transport entry point; the
  old arg-less scalar draw is gone.  Scalar models
  (:class:`~repro.sim.latency.LatencyModel`) survive as degenerate
  single-region topologies whose delay ignores the link.
* ``size`` is an honest payload measure: only hops that genuinely carry
  bulk data are sized — a departing node's key handover, a replica
  refresh or repair-time replica pull (DESIGN.md, "Durability contract")
  — and topologies without a bandwidth term ignore it rather than invent
  one.  Routing chatter is never sized to make a topology look busier.
* Placements derive deterministically from ``(topology seed, address)``, so
  a peer's location never depends on the order links are first used, and
  two topologies built from the same seed produce identical delays for
  identical call sequences.

Maintenance traffic crosses these links like everything else: table
refreshes, reconcile digests and replication upkeep are all priced per
link, which is what makes the staleness-vs-maintenance-traffic trade-off
(`experiments/durability.py`) measurable instead of asserted.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.net.address import Address
from repro.util.rng import SeededRng, derive_seed


class Hop(NamedTuple):
    """One message transit between two peers.

    Step generators yield one ``Hop`` per network hop; the runtime turns it
    into a scheduled delay via :meth:`Topology.sample`.  ``src=None`` marks
    a client-ingress hop (the request entering the overlay at ``dst``);
    ``src == dst`` marks a local beat (a peer re-examining fresh state, no
    wire crossed — topologies charge it the cheapest link).  ``size`` is an
    abstract message size in payload units; topologies with bandwidth add
    ``size / bandwidth`` serialization time on top of propagation delay.
    """

    src: Optional[Address]
    dst: Optional[Address]
    size: float = 1.0


class Topology(abc.ABC):
    """Per-link transport model: what a message between two peers costs.

    Concrete topologies implement :meth:`link_delay` (propagation) and may
    override :meth:`link_bandwidth` (serialization).  Callers use only
    :meth:`sample`.
    """

    def sample(
        self, src: Optional[Address], dst: Optional[Address], *, size: float = 0.0
    ) -> float:
        """One sampled transit time for a ``size``-unit message src -> dst.

        ``None`` endpoints are normalized: a client-ingress hop
        (``src=None``) is charged as if the client were co-located with its
        entry peer, and a fully anonymous hop (both ``None``) costs one
        baseline local link.
        """
        if src is None:
            src = dst
        if dst is None:
            dst = src
        delay = self.link_delay(src, dst)
        if size > 0:
            bandwidth = self.link_bandwidth(src, dst)
            if bandwidth is not None:
                delay += size / bandwidth
        return delay

    @abc.abstractmethod
    def link_delay(self, src: Optional[Address], dst: Optional[Address]) -> float:
        """Propagation delay for one message on the (src, dst) link (>= 0)."""

    def link_bandwidth(
        self, src: Optional[Address], dst: Optional[Address]
    ) -> Optional[float]:
        """Payload units per time unit on this link; None = unconstrained."""
        return None

    def direct_delay(
        self, src: Optional[Address], dst: Optional[Address]
    ) -> float:
        """The *expected* one-message cost of the direct (src, dst) link.

        This is the denominator of the latency-stretch metric (an
        operation's accumulated transit divided by what one direct hop to
        the owner would have cost): deterministic — it must never consume
        the jitter stream, or computing a metric would perturb the run it
        measures — and un-jittered, so stretch 1.0 means "as good as a
        direct link on average".  Stochastic topologies override this with
        a closed-form expectation; the base implementation is only correct
        for deterministic ``link_delay``.
        """
        if src is None:
            src = dst
        if dst is None:
            dst = src
        return self.link_delay(src, dst)


class PlacementTopology(Topology):
    """Base for topologies that assign every address a placement.

    Placements are derived from ``(seed, address)`` by hashing —
    **not** from the order addresses are first seen — so the same peer
    lands in the same place whichever overlay or operation touches it
    first, and replays are exact.  ``None`` (the client side of an ingress
    hop, already normalized away by :meth:`Topology.sample`) gets its own
    stable placement under the label ``"client"``.

    Per-sample jitter comes from a single seeded stream, so two topologies
    built from the same seed produce identical delays for identical call
    sequences — the determinism the runtime's replay guarantees lean on.
    """

    def __init__(self, seed: int = 0, *, jitter: float = 0.2):
        if jitter < 0:
            raise ValueError("jitter cannot be negative")
        self.seed = seed
        self.jitter = jitter
        self._placements: Dict[object, object] = {}
        self._jitter_rng = SeededRng(derive_seed(seed, "jitter"))
        #: Bound draw, so the per-sample hot path skips attribute lookups.
        self._jitter_draw = self._jitter_rng.random

    def placement(self, address: Optional[Address]):
        """The (deterministic) placement of ``address``."""
        key = int(address) if address is not None else "client"
        placed = self._placements.get(key)
        if placed is None:
            placed = self._place(SeededRng(derive_seed(self.seed, "place", key)))
            self._placements[key] = placed
        return placed

    @abc.abstractmethod
    def _place(self, rng: SeededRng):
        """Draw one placement from an address-specific rng."""

    def _jittered(self, base: float) -> float:
        """Multiply ``base`` by (1 + jitter * U[0,1))."""
        if self.jitter == 0:
            return base
        return base * (1.0 + self.jitter * self._jitter_draw())


class ClusteredTopology(PlacementTopology):
    """A multi-region WAN: cheap intra-region links, expensive inter-region.

    Every address is pinned to one of ``regions`` regions.  Intra-region
    links cost ``intra_delay``; inter-region links cost ``inter_delay``
    scaled by a per-*ordered*-pair factor in ``[1 - asymmetry,
    1 + asymmetry]`` drawn once per direction — so the A->B and B->A routes
    genuinely differ, as real WAN paths do.  Every sample is then jittered
    multiplicatively.  Optional ``intra_bandwidth`` / ``inter_bandwidth``
    add a ``size / bandwidth`` term for sized messages.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        regions: int = 4,
        intra_delay: float = 0.5,
        inter_delay: float = 5.0,
        jitter: float = 0.2,
        asymmetry: float = 0.1,
        intra_bandwidth: Optional[float] = None,
        inter_bandwidth: Optional[float] = None,
    ):
        if regions < 1:
            raise ValueError("need at least one region")
        if intra_delay < 0 or inter_delay < 0:
            raise ValueError("delays cannot be negative")
        if not 0.0 <= asymmetry < 1.0:
            raise ValueError("asymmetry must be in [0, 1)")
        for name, value in (
            ("intra_bandwidth", intra_bandwidth),
            ("inter_bandwidth", inter_bandwidth),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        super().__init__(seed, jitter=jitter)
        self.regions = regions
        self.intra_delay = intra_delay
        self.inter_delay = inter_delay
        self.asymmetry = asymmetry
        self.intra_bandwidth = intra_bandwidth
        self.inter_bandwidth = inter_bandwidth
        self._pair_factors: Dict[Tuple[int, int], float] = {}
        # Per-ordered-pair cost matrices, materialized eagerly (factors are
        # seeded per pair, so eager vs. lazy draws are identical).  The hot
        # :meth:`sample` below is then region lookups + list indexing — no
        # dict or method dispatch per call, which matters when every hop of
        # an N=10k run prices a link.
        self._pair_base: List[List[float]] = [
            [
                intra_delay if i == j else inter_delay * self._pair_factor(i, j)
                for j in range(regions)
            ]
            for i in range(regions)
        ]
        self._pair_bandwidth: List[List[Optional[float]]] = [
            [
                intra_bandwidth if i == j else inter_bandwidth
                for j in range(regions)
            ]
            for i in range(regions)
        ]

    def region_of(self, address: Optional[Address]) -> int:
        return self.placement(address)

    def _place(self, rng: SeededRng) -> int:
        return rng.randint(0, self.regions - 1)

    def _pair_factor(self, src_region: int, dst_region: int) -> float:
        key = (src_region, dst_region)
        factor = self._pair_factors.get(key)
        if factor is None:
            rng = SeededRng(derive_seed(self.seed, "pair", src_region, dst_region))
            factor = 1.0 + self.asymmetry * (2.0 * rng.random() - 1.0)
            self._pair_factors[key] = factor
        return factor

    def sample(
        self, src: Optional[Address], dst: Optional[Address], *, size: float = 0.0
    ) -> float:
        # Inlined fast path of Topology.sample + link_delay: one draw per
        # call (identical to the generic path, so replays are unchanged),
        # zero per-call Position/dict churn.
        if src is None:
            src = dst if dst is not None else "client"
        if dst is None:
            dst = src
        placements = self._placements
        src_region = placements.get(src, -1)
        if src_region < 0:
            src_region = self.placement(src if src != "client" else None)
        dst_region = placements.get(dst, -1)
        if dst_region < 0:
            dst_region = self.placement(dst if dst != "client" else None)
        delay = self._pair_base[src_region][dst_region]
        if self.jitter:
            delay *= 1.0 + self.jitter * self._jitter_draw()
        if size > 0:
            bandwidth = self._pair_bandwidth[src_region][dst_region]
            if bandwidth is not None:
                delay += size / bandwidth
        return delay

    def link_delay(self, src, dst) -> float:
        src_region = self.placement(src)
        dst_region = self.placement(dst)
        return self._jittered(self._pair_base[src_region][dst_region])

    def link_bandwidth(self, src, dst) -> Optional[float]:
        return self._pair_bandwidth[self.placement(src)][self.placement(dst)]

    def direct_delay(self, src, dst) -> float:
        """Un-jittered expected cost of the direct link (stretch metric)."""
        return self._pair_base[self.placement(src)][self.placement(dst)]


class CoordinateTopology(PlacementTopology):
    """Peers at seeded points in the unit square; delay grows with distance.

    A flat geographic spread (PlanetLab-style): each address gets uniform
    coordinates, and a link costs ``base_delay + unit_delay * euclidean``,
    jittered.  An optional flat ``bandwidth`` adds the serialization term.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        base_delay: float = 0.2,
        unit_delay: float = 2.0,
        jitter: float = 0.1,
        bandwidth: Optional[float] = None,
    ):
        if base_delay < 0 or unit_delay < 0:
            raise ValueError("delays cannot be negative")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        super().__init__(seed, jitter=jitter)
        self.base_delay = base_delay
        self.unit_delay = unit_delay
        self.bandwidth = bandwidth

    def _place(self, rng: SeededRng) -> Tuple[float, float]:
        return (rng.random(), rng.random())

    def link_delay(self, src, dst) -> float:
        x1, y1 = self.placement(src)
        x2, y2 = self.placement(dst)
        distance = math.hypot(x1 - x2, y1 - y2)
        return self._jittered(self.base_delay + self.unit_delay * distance)

    def link_bandwidth(self, src, dst) -> Optional[float]:
        return self.bandwidth

    def direct_delay(self, src, dst) -> float:
        """Un-jittered distance-proportional cost (stretch metric)."""
        x1, y1 = self.placement(src)
        x2, y2 = self.placement(dst)
        return self.base_delay + self.unit_delay * math.hypot(x1 - x2, y1 - y2)


#: Names `make_topology` accepts (the CLI's --topology choices).
TOPOLOGY_CHOICES = ("constant", "uniform", "exponential", "clustered", "coordinate")


def available_topologies() -> List[str]:
    """Topology factory names, in presentation order."""
    return list(TOPOLOGY_CHOICES)


def make_topology(name: str, seed: int = 0, **params) -> Topology:
    """Build a topology by name with seeded sub-streams.

    The scalar names (``constant`` / ``uniform`` / ``exponential``) return
    the degenerate single-region models; ``clustered`` and ``coordinate``
    return placement topologies.  ``params`` are forwarded to the
    constructor (e.g. ``inter_delay=10.0`` for ``clustered``).
    """
    from repro.sim.latency import (
        ConstantLatency,
        ExponentialLatency,
        UniformLatency,
    )

    if name == "constant":
        return ConstantLatency(params.pop("delay", 1.0), **params)
    rng = SeededRng(derive_seed(seed, "topology", name))
    if name == "uniform":
        return UniformLatency(
            params.pop("low", 0.5), params.pop("high", 1.5), rng, **params
        )
    if name == "exponential":
        return ExponentialLatency(params.pop("mean", 1.0), rng, **params)
    if name == "clustered":
        return ClusteredTopology(seed, **params)
    if name == "coordinate":
        return CoordinateTopology(seed, **params)
    known = ", ".join(TOPOLOGY_CHOICES)
    raise ValueError(f"unknown topology {name!r}; available: {known}")
