"""Process-pool cell scheduler with deterministic reassembly.

Every experiment driver enumerates **cells** — pure, picklable
``(fn, kwargs)`` units, one per grid point ``(config, size, seed)`` —
and a scheduler owns execution order.  Sequential execution is the
degenerate schedule (``jobs=1``); ``jobs>1`` fans cells out over a
``ProcessPoolExecutor``.  Results are reassembled **by submission
index**, never by completion order, so the assembled output is
byte-identical whatever the job count (the determinism half of
DESIGN.md's "Parallelism contract"; ``tests/test_parallel.py`` pins it).

Cell rules (what makes a function safe to pool):

* module-level (picklable by qualified name), primitives/dataclasses in
  ``kwargs``, a picklable return value;
* self-seeded — every random stream derived from the cell's own
  parameters (``derive_seed``), never from shared process state;
* no mutation of globals the assembler reads.

Workers inherit the parent's snapshot-cache settings through the pool
initializer (:func:`repro.experiments.snapshot.apply_config`), so a
cell's cached build behaves identically in-process and pooled.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments import harness, snapshot


@dataclass(frozen=True)
class Cell:
    """One pure unit of experiment work: ``fn(**kwargs)``.

    ``group`` labels which driver the cell belongs to (the suite runner
    slices results back out by group).
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    group: str = ""

    def run(self) -> Any:
        return self.fn(**self.kwargs)


def cell(fn: Callable[..., Any], group: str = "", **kwargs: Any) -> Cell:
    """Convenience constructor: ``cell(fn, n_peers=100, seed=0)``."""
    return Cell(fn=fn, kwargs=kwargs, group=group)


def default_jobs() -> int:
    """The job count when a CLI flag is absent: ``REPRO_JOBS`` or 1."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """``--quick``, ``--jobs`` and the snapshot-cache toggle: the flags
    every experiment entry point (``runall`` and the CLI subcommands)
    shares.  Output is identical at every ``--jobs`` value."""
    parser.add_argument("--quick", action="store_true", help="smoke-test scale")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the cell fan-out "
        "(default: REPRO_JOBS or 1; output is identical at any value)",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--snapshot-cache",
        dest="snapshot_cache",
        action="store_true",
        default=True,
        help="reuse built-network snapshots keyed by build config "
        "(default; protocol-grown builds only)",
    )
    cache.add_argument(
        "--no-snapshot-cache",
        dest="snapshot_cache",
        action="store_false",
        help="always build networks from scratch",
    )


def apply_experiment_flags(args: argparse.Namespace):
    """Act on :func:`add_experiment_flags`: returns ``(scale, jobs)``."""
    snapshot.configure(enabled=args.snapshot_cache)
    scale = harness.quick_scale() if args.quick else harness.default_scale()
    return scale, args.jobs if args.jobs is not None else default_jobs()


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _worker_init(snapshot_config: Optional[dict]) -> None:
    snapshot.apply_config(snapshot_config)


def _run_cell(c: Cell) -> Any:
    return c.run()


def run_cells(cells: Sequence[Cell], jobs: int = 1) -> List[Any]:
    """Execute every cell; results in cell order regardless of ``jobs``.

    ``jobs<=1`` runs everything inline.  Otherwise the cells are
    submitted in order to a ``ProcessPoolExecutor`` and collected by
    index.  A cell that raises propagates — a broken grid point should
    fail the run, not silently hole the table.

    ``jobs`` is an upper bound on concurrency, not a worker count: the
    pool never runs more workers than the machine has schedulable cores
    (:func:`available_cpus`), because cells are CPU-bound simulations —
    oversubscribed workers only add context-switch and IPC tax (~20% of
    suite wall-clock measured at ``--jobs 4`` on one core).
    """
    cells = list(cells)
    jobs = max(1, int(jobs))
    if jobs == 1 or len(cells) < 2:
        return [c.run() for c in cells]

    # fork keeps worker start cheap and inherits loaded modules; fall
    # back to the platform default where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(cells), available_cpus()),
        mp_context=ctx,
        initializer=_worker_init,
        initargs=(snapshot.exported_config(),),
    ) as pool:
        futures = [pool.submit(_run_cell, c) for c in cells]
        return [future.result() for future in futures]


def run_grouped(
    cells: Sequence[Cell], jobs: int = 1
) -> Dict[str, List[Any]]:
    """Run one flat plan, slice results back per ``group`` label.

    The suite runner concatenates every driver's cells into a single
    plan so the pool stays saturated across driver boundaries, then
    hands each driver its own slice (in that driver's enumeration
    order) for assembly.
    """
    outputs = run_cells(cells, jobs=jobs)
    grouped: Dict[str, List[Any]] = {}
    for c, output in zip(cells, outputs):
        grouped.setdefault(c.group, []).append(output)
    return grouped
