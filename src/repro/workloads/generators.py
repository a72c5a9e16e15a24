"""Key and query generators (uniform and Zipfian, per §V)."""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

from repro.core.ranges import Range
from repro.util.rng import SeededRng


class UniformKeys:
    """Uniform keys over the domain — the paper's default data."""

    def __init__(self, domain: Range | None = None, seed: int = 0):
        self.domain = domain or Range.full_domain()
        self._rng = SeededRng(seed)

    def draw(self) -> int:
        return self._rng.randint(self.domain.low, self.domain.high - 1)

    def take(self, count: int) -> List[int]:
        """``count`` keys: the same stream as ``count`` :meth:`draw` calls."""
        return self._rng.randints(self.domain.low, self.domain.high - 1, count)


class ZipfianKeys:
    """Zipfian keys at parameter θ (the paper uses θ = 1.0).

    Rank ``r`` is drawn with probability proportional to ``1/r^θ`` over
    ``n_ranks`` ranks (inverse-CDF over the precomputed harmonic table),
    then mapped onto the domain so low ranks cluster at the low end —
    a contiguous hot range, which is what stresses an order-preserving
    partition and triggers §IV-D load balancing.
    """

    def __init__(
        self,
        theta: float = 1.0,
        n_ranks: int = 10_000,
        domain: Range | None = None,
        seed: int = 0,
    ):
        if theta <= 0:
            raise ValueError("theta must be positive")
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.theta = theta
        self.n_ranks = n_ranks
        self.domain = domain or Range.full_domain()
        self._rng = SeededRng(seed)
        self._cdf = self._build_cdf()
        self._stride = max(1, self.domain.width // n_ranks)

    def _build_cdf(self) -> List[float]:
        weights = [1.0 / (rank**self.theta) for rank in range(1, self.n_ranks + 1)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0
        return cdf

    def draw_rank(self) -> int:
        """One Zipf rank in [1, n_ranks].

        One uniform draw plus one binary search over the precomputed CDF —
        no per-draw list rebuilds, so a draw is O(log n_ranks).
        """
        return bisect_left(self._cdf, self._rng.random()) + 1

    def draw(self) -> int:
        """One key: the rank's bucket plus uniform jitter inside it."""
        rank = self.draw_rank()
        base = self.domain.low + (rank - 1) * self._stride
        jitter = self._rng.randint(0, self._stride - 1)
        return min(base + jitter, self.domain.high - 1)

    def take(self, count: int) -> List[int]:
        return [self.draw() for _ in range(count)]


def uniform_keys(count: int, seed: int = 0, domain: Range | None = None) -> List[int]:
    """``count`` uniform keys (convenience wrapper)."""
    return UniformKeys(domain=domain, seed=seed).take(count)


def zipfian_keys(
    count: int,
    theta: float = 1.0,
    seed: int = 0,
    domain: Range | None = None,
    n_ranks: int = 10_000,
) -> List[int]:
    """``count`` Zipfian keys (convenience wrapper)."""
    return ZipfianKeys(theta=theta, n_ranks=n_ranks, domain=domain, seed=seed).take(
        count
    )


def exact_queries(
    loaded_keys: Sequence[int], count: int, seed: int = 0, hit_ratio: float = 1.0
) -> List[int]:
    """Exact-query keys: mostly present keys, optionally some misses."""
    rng = SeededRng(seed)
    domain = Range.full_domain()
    queries: List[int] = []
    for _ in range(count):
        if loaded_keys and rng.random() < hit_ratio:
            queries.append(rng.choice(loaded_keys))
        else:
            queries.append(rng.randint(domain.low, domain.high - 1))
    return queries


def range_queries(
    count: int,
    selectivity: float = 0.001,
    seed: int = 0,
    domain: Range | None = None,
) -> List[Tuple[int, int]]:
    """Range-query intervals covering ``selectivity`` of the domain each."""
    if not 0 < selectivity <= 1:
        raise ValueError("selectivity must be in (0, 1]")
    rng = SeededRng(seed)
    domain = domain or Range.full_domain()
    span = max(1, int(domain.width * selectivity))
    queries: List[Tuple[int, int]] = []
    for _ in range(count):
        low = rng.randint(domain.low, max(domain.low, domain.high - span - 1))
        queries.append((low, low + span))
    return queries
