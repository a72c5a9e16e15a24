"""Topology-aware transport: per-link delay.

The paper's cost model counts hops as if every link were equal, but BATON's
sideways routing tables only earn their keep on real networks where links
have heterogeneous cost — a hop that skips across subtrees is worth more
when it also skips an ocean.  This module is the transport seam that lets
the experiments ask that question: every peer address is pinned to a
region, and each message's transit time is drawn **per link** via
:meth:`Topology.sample`.

The contract (see DESIGN.md, "Transport contract"):

* Protocol walks declare every hop as a :class:`Hop` — which pair of peers
  the message travels between, nothing more.  ``src=None`` marks a
  client-ingress hop (the request entering the overlay from outside);
  ``src == dst`` marks a local beat, charged as the cheapest link and
  never free.
* A topology is two methods: ``sample(src, dst)``, the one transport
  entry point, and ``direct_delay(src, dst)``, the
  deterministic expected cost the stretch metric and topology-aware joins
  read.  Scalar models (:class:`~repro.sim.latency.LatencyModel`) are
  degenerate single-region topologies whose delay ignores the link.
* A message costs its link, whatever it carries: the paper's metric is
  messages passed, with no notion of payload or bandwidth, so a bulk key
  handover is one hop like a routing step.  ``sample`` still accepts an
  ignored ``size`` keyword, only because the benchmark's tracing wrapper
  forwards one to the topology it wraps.
* Regions derive deterministically from ``(topology seed, address)``, so
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
from typing import Dict, List, NamedTuple, Optional

from repro.net.address import Address
from repro.util.rng import SeededRng, derive_seed


class Hop(NamedTuple):
    """One message transit between two peers.

    Step generators yield one ``Hop`` per network hop; the runtime turns it
    into a scheduled delay via :meth:`Topology.sample`.  ``src=None`` marks
    a client-ingress hop (the request entering the overlay at ``dst``);
    ``src == dst`` marks a local beat (a peer re-examining fresh state, no
    wire crossed — topologies charge it the cheapest link).  The per-hop
    walks build theirs as ``tuple.__new__(Hop, (src, dst))``, which skips
    NamedTuple's Python-level ``__new__``.
    """

    src: Optional[Address]
    dst: Optional[Address]


class Topology(abc.ABC):
    """Per-link transport model: what a message between two peers costs.

    Two methods, and both normalize ``None`` endpoints alike: a
    client-ingress hop (``src=None``) is charged as if the client were
    co-located with its entry peer, and a fully anonymous hop (both
    ``None``) costs one baseline local link.
    """

    @abc.abstractmethod
    def sample(
        self, src: Optional[Address], dst: Optional[Address], *, size: float = 0.0
    ) -> float:
        """One sampled transit time for a message src -> dst.

        ``size`` is ignored: no topology prices payload.  It stays in the
        signature only for wrappers that still forward it.
        """

    @abc.abstractmethod
    def direct_delay(
        self, src: Optional[Address], dst: Optional[Address]
    ) -> float:
        """The *expected* one-message cost of the direct (src, dst) link.

        This is the denominator of the latency-stretch metric (an
        operation's accumulated transit divided by what one direct hop to
        the owner would have cost): deterministic — it must never consume
        the jitter stream, or computing a metric would perturb the run it
        measures — and un-jittered, so stretch 1.0 means "as good as a
        direct link on average".
        """


class ClusteredTopology(Topology):
    """A multi-region WAN: cheap intra-region links, expensive inter-region.

    Every address is pinned to one of ``regions`` regions by hashing
    ``(seed, address)`` — **not** by the order addresses are first seen —
    so the same peer lands in the same region whichever overlay or
    operation touches it first, and replays are exact.  ``None`` (the
    client side of an anonymous hop) gets its own stable region under the
    label ``"client"``.

    Intra-region links cost ``intra_delay``; inter-region links cost
    ``inter_delay`` scaled by a per-*ordered*-pair factor in ``[1 -
    asymmetry, 1 + asymmetry]`` drawn once per direction — so the A->B and
    B->A routes genuinely differ, as real WAN paths do.  Every sample is
    then jittered multiplicatively by ``1 + jitter * U[0,1)`` from one
    seeded stream, so two topologies built from the same seed produce
    identical delays for identical call sequences.
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
    ):
        if regions < 1:
            raise ValueError("need at least one region")
        if intra_delay < 0 or inter_delay < 0:
            raise ValueError("delays cannot be negative")
        if jitter < 0:
            raise ValueError("jitter cannot be negative")
        if not 0.0 <= asymmetry < 1.0:
            raise ValueError("asymmetry must be in [0, 1)")
        self.seed = seed
        self.regions = regions
        self.intra_delay = intra_delay
        self.inter_delay = inter_delay
        self.jitter = jitter
        self.asymmetry = asymmetry
        #: Address (or ``"client"``) -> region, filled on first use.
        self._regions: Dict[object, int] = {}
        #: Bound draw, so the per-sample hot path skips attribute lookups.
        self._jitter_draw = SeededRng(derive_seed(seed, "jitter")).random
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

    def region_of(self, address: Optional[Address]) -> int:
        """The (deterministic) region of ``address``."""
        key = int(address) if address is not None else "client"
        region = self._regions.get(key)
        if region is None:
            rng = SeededRng(derive_seed(self.seed, "place", key))
            region = rng.randint(0, self.regions - 1)
            self._regions[key] = region
        return region

    def _pair_factor(self, src_region: int, dst_region: int) -> float:
        rng = SeededRng(derive_seed(self.seed, "pair", src_region, dst_region))
        return 1.0 + self.asymmetry * (2.0 * rng.random() - 1.0)

    def sample(
        self, src: Optional[Address], dst: Optional[Address], *, size: float = 0.0
    ) -> float:
        if src is None:
            src = dst
        if dst is None:
            dst = src
        regions = self._regions
        src_region = regions.get(src, -1)
        if src_region < 0:
            src_region = self.region_of(src)
        dst_region = regions.get(dst, -1)
        if dst_region < 0:
            dst_region = self.region_of(dst)
        delay = self._pair_base[src_region][dst_region]
        if self.jitter:
            delay *= 1.0 + self.jitter * self._jitter_draw()
        return delay

    def direct_delay(
        self, src: Optional[Address], dst: Optional[Address]
    ) -> float:
        """Un-jittered expected cost of the direct link (stretch metric)."""
        if src is None:
            src = dst
        if dst is None:
            dst = src
        return self._pair_base[self.region_of(src)][self.region_of(dst)]


#: Names `make_topology` accepts (the CLI's --topology choices).
TOPOLOGY_CHOICES = ("constant", "uniform", "exponential", "clustered")


def available_topologies() -> List[str]:
    """Topology factory names, in presentation order."""
    return list(TOPOLOGY_CHOICES)


def make_topology(name: str, seed: int = 0, **params) -> Topology:
    """Build a topology by name with seeded sub-streams.

    The scalar names (``constant`` / ``uniform`` / ``exponential``) return
    the degenerate single-region models; ``clustered`` returns the
    multi-region WAN.  ``params`` are forwarded to the constructor (e.g.
    ``inter_delay=10.0`` for ``clustered``).
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
    known = ", ".join(TOPOLOGY_CHOICES)
    raise ValueError(f"unknown topology {name!r}; available: {known}")
