"""Shared experiment plumbing: scales, network builders, result tables."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import overlays
from repro.chord.network import ChordNetwork
from repro.core.network import (
    BatonConfig,
    BatonNetwork,
    LoadBalanceConfig,
    LocalityConfig,
)
from repro.experiments import snapshot
from repro.multiway.network import MultiwayNetwork
from repro.workloads.generators import uniform_keys


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment runs.

    The paper sweeps N from 1000 to 10000 peers with 1000·N loaded keys and
    1000 queries of each kind, averaged over 10 membership sequences.  The
    default scale keeps the same doublings at laptop size; the full scale
    (``REPRO_FULL_SCALE=1``) restores the paper's parameters.
    """

    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    data_per_node: int
    n_queries: int
    n_trials: int  # membership events measured per (size, seed)

    @property
    def label(self) -> str:
        return f"sizes={list(self.sizes)} seeds={len(self.seeds)}"


def quick_scale() -> ExperimentScale:
    """Tiny scale for smoke tests and CI."""
    return ExperimentScale(
        sizes=(60, 120), seeds=(0,), data_per_node=10, n_queries=30, n_trials=10
    )


def default_scale() -> ExperimentScale:
    """Laptop scale by default; the paper's scale under REPRO_FULL_SCALE=1."""
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return ExperimentScale(
            sizes=(1000, 2500, 5000, 10000),
            seeds=tuple(range(10)),
            data_per_node=1000,
            n_queries=1000,
            n_trials=100,
        )
    return ExperimentScale(
        sizes=(250, 500, 1000, 2000),
        seeds=(0, 1, 2),
        data_per_node=50,
        n_queries=200,
        n_trials=40,
    )


@dataclass
class ExperimentResult:
    """A measured series plus the paper's qualitative expectation."""

    figure: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    expectation: str = ""
    notes: List[str] = field(default_factory=list)
    #: ``(rendered line, holds)`` per judged band (``Band.check``).
    bands: List[Tuple[str, bool]] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str, where: Optional[Dict[str, object]] = None) -> List:
        """Extract one column, optionally filtered by other column values."""
        out = []
        for row in self.rows:
            if where and any(row.get(k) != v for k, v in where.items()):
                continue
            out.append(row[name])
        return out

    def canonical_text(self) -> str:
        """A deterministic rendering for identity comparison.

        Every measured value renders at full precision (``to_text``
        rounds floats for display — too lossy to pin byte-identity on).
        """
        lines = [f"### {self.figure}: {self.title}"]
        lines.append("columns: " + ", ".join(self.columns))
        for row in self.rows:
            lines.append(" | ".join(repr(row.get(col)) for col in self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.extend(line for line, _ in self.bands)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Render as an aligned text table with header and expectation."""
        lines = [f"=== {self.figure}: {self.title} ==="]
        if self.expectation:
            lines.append(f"expected shape: {self.expectation}")
        widths = {
            col: max(
                len(col), *(len(_fmt(row.get(col))) for row in self.rows), 1
            )
            if self.rows
            else len(col)
            for col in self.columns
        }
        header = "  ".join(col.ljust(widths[col]) for col in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in self.columns)
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.extend(line for line, _ in self.bands)
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for empty input (an experiment with no events)."""
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# Network builders
# ---------------------------------------------------------------------------


def loaded_keys(n_peers: int, data_per_node: int, seed: int) -> List[int]:
    """The uniform dataset a builder loads for a given (size, seed) cell.

    Drivers regenerate the same list to aim queries at present keys.
    """
    return uniform_keys(n_peers * data_per_node, seed=seed + 7)


def build_network(
    overlay: str,
    n_peers: int,
    seed: int,
    data_per_node: int = 0,
    *,
    config: Optional[object] = None,
    bulk: bool = False,
):
    """A network of any registered overlay grown around its loaded dataset.

    Runs the overlay's own ``build(..., keys=)`` — the growth loop every
    overlay inherits, or the override it declares — so every experiment
    cell constructs a newcomer under the same regime as its tests do.

    Protocol-grown builds are routed through the snapshot cache when it
    is enabled: the fingerprint covers every input that shapes the built
    state (the dataset is derived from ``(n_peers, data_per_node,
    seed)``, so those three cover ``keys``).  ``bulk=True`` (direct
    construction; refused by networks without that path) skips the cache
    on purpose — direct construction already costs about what a restore
    does, so a snapshot would only burn disk (DESIGN.md, "Parallelism
    contract").
    """
    overlay_cls = overlays.get(overlay)

    def build(**direct):
        keys = loaded_keys(n_peers, data_per_node, seed) if data_per_node else None
        return overlay_cls.build(
            n_peers, seed=seed, config=config, keys=keys, **direct
        )

    if bulk:
        return build(bulk=True)
    parts = {
        "builder": overlay,
        "n_peers": n_peers,
        "seed": seed,
        "data_per_node": data_per_node,
        "config": snapshot.describe(config),
    }
    return snapshot.cached(parts, build)


def build_baton(
    n_peers: int,
    seed: int,
    data_per_node: int,
    balance_enabled: bool = False,
    capacity: Optional[int] = None,
    replication: bool = False,
    bulk: bool = False,
    locality: Optional[LocalityConfig] = None,
) -> BatonNetwork:
    """A BATON overlay grown around its data under the experiments' config.

    §IV-D balancing is off unless asked for and capacity is
    ``max(4·data_per_node, 16)``.  ``bulk=True`` skips the simulated
    joins and computes the same loaded, balanced end state directly
    (:mod:`repro.core.bulk_build`) — the only way to reach N=100k in
    seconds, and the default on scale surfaces.
    """
    config = BatonConfig(
        balance=LoadBalanceConfig(
            capacity=capacity or max(4 * data_per_node, 16),
            enabled=balance_enabled,
        ),
        replication=replication,
        locality=locality or LocalityConfig(),
    )
    return build_network(
        "baton", n_peers, seed, data_per_node, config=config, bulk=bulk
    )


def build_baton_equalized(
    n_peers: int, seed: int, data_per_node: int
) -> BatonNetwork:
    """A BATON overlay whose data arrived through routed, balanced inserts.

    Construction alone leaves interior nodes with fat ranges (the root keeps
    about a quarter of its subtree's span after its two splits); what
    flattens the distribution in the paper's experiments is §IV-D load
    balancing running while the 1000·N values stream in.  This builder
    reproduces that regime: capacity 2× the fair share, every insert routed.
    The access-load experiment (Figure 8(f)) depends on it.
    """
    parts = {
        "builder": "baton-equalized",
        "n_peers": n_peers,
        "seed": seed,
        "data_per_node": data_per_node,
    }
    return snapshot.cached(
        parts, lambda: _build_baton_equalized(n_peers, seed, data_per_node)
    )


def _build_baton_equalized(
    n_peers: int, seed: int, data_per_node: int
) -> BatonNetwork:
    capacity = max(8, 2 * data_per_node)
    net = build_baton(
        n_peers, seed, data_per_node=0, balance_enabled=True, capacity=capacity
    )
    for key in loaded_keys(n_peers, data_per_node, seed):
        net.insert(key)
    return net


def build_chord(n_peers: int, seed: int, data_per_node: int) -> ChordNetwork:
    """A Chord ring preloaded with the same uniform data."""
    return build_network("chord", n_peers, seed, data_per_node)


def build_multiway(n_peers: int, seed: int, data_per_node: int) -> MultiwayNetwork:
    """A multiway tree grown around its data (same rationale as BATON)."""
    return build_network("multiway", n_peers, seed, data_per_node)


def build_loaded(
    overlay: str,
    n_peers: int,
    seed: int,
    data_per_node: int,
    bulk: bool = False,
):
    """A loaded network of any registered overlay, by name.

    BATON builds under its experiment config (:func:`build_baton`); every
    other overlay under its default one.  ``bulk=True`` selects direct
    construction, which only networks with such a path accept.
    """
    if overlay == "baton":
        return build_baton(n_peers, seed, data_per_node, bulk=bulk)
    return build_network(overlay, n_peers, seed, data_per_node, bulk=bulk)
