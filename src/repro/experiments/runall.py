"""Run every Figure-8 experiment and print (or save) the results.

Usage::

    python -m repro.experiments.runall            # laptop scale
    REPRO_FULL_SCALE=1 python -m repro.experiments.runall
    python -m repro.experiments.runall --quick    # smoke scale
    python -m repro.experiments.runall --jobs 4   # process-pool fan-out

Every driver is a :class:`~repro.experiments.grid.Grid` spec; ``run_all``
concatenates the cells of every grid in :data:`REGISTRY` into one flat
plan, hands it to the scheduler once — so a single pool serves the whole
suite and late, expensive cells backfill idle workers — and then
assembles each table from its group's outputs and judges the grid's
bands on it (the run exits 1 if any fails).  Output is byte-identical
at every ``--jobs`` value: results are collected by submission index,
never by completion order.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro.experiments import (
    chaos,
    concurrent_dynamics,
    durability,
    fig8a_join_leave_find,
    fig8b_table_updates,
    fig8c_insert_delete,
    fig8d_exact_query,
    fig8e_range_query,
    fig8f_access_load,
    fig8g_load_balancing,
    fig8h_shift_sizes,
    fig8i_dynamics,
    harness,
    hetero_links,
    locality,
    multicast,
)
from repro.experiments.grid import Grid
from repro.experiments.harness import ExperimentResult, ExperimentScale
from repro.experiments.parallel import (
    Cell,
    add_experiment_flags,
    apply_experiment_flags,
    run_grouped,
)

#: The suite, in report order.  Grids that share a ``name`` (8a/8b over
#: the membership trials, 8g/8h over the balancing streams) share cells.
REGISTRY: Tuple[Grid, ...] = (
    fig8a_join_leave_find.GRID,
    fig8b_table_updates.GRID,
    fig8c_insert_delete.GRID,
    fig8d_exact_query.GRID,
    fig8e_range_query.GRID,
    fig8f_access_load.GRID,
    fig8g_load_balancing.GRID,
    fig8h_shift_sizes.GRID,
    fig8i_dynamics.GRID,
    concurrent_dynamics.GRID,
    concurrent_dynamics.COMPARISON,
    hetero_links.GRID,
    # What the hot-range cache and topology-aware joins win back on the
    # same clustered WAN.
    locality.GRID,
    durability.GRID,
    # Correlated disaster (region outage, partition, flash crowd, lossy
    # links) across every capable overlay.
    chaos.GRID,
    # Range multicast vs unicast vs flood, WAN-priced, plus the lossy
    # pub/sub cell (exactly-once application).
    multicast.GRID,
)


def run_all(
    scale: Optional[ExperimentScale] = None, quick: bool = False, jobs: int = 1
) -> List[ExperimentResult]:
    """Execute every registered grid through one shared pool.

    ``quick`` also narrows each grid to its axes' quick values; an
    explicit ``scale`` alone keeps the full axes.
    """
    if scale is None:
        scale = harness.quick_scale() if quick else harness.default_scale()
    plan: List[Cell] = []
    planned = set()
    for grid in REGISTRY:
        if grid.name not in planned:
            planned.add(grid.name)
            plan += grid.cells(scale, **(grid.quick if quick else {}))
    outputs = run_grouped(plan, jobs=jobs)
    results = []
    for grid in REGISTRY:
        result = grid.assemble(
            scale, outputs[grid.name], **(grid.quick if quick else {})
        )
        result.bands = [band.check(result) for band in grid.bands]
        results.append(result)
    return results


def canonical_report(results: List[ExperimentResult]) -> str:
    """The suite's canonical form: every value at full precision.

    This is the artifact CI diffs between the sequential and pooled runs —
    byte equality here is the deterministic-reassembly contract.
    """
    return "\n".join(result.canonical_text() for result in results)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The suite's flags — shared with ``python -m repro experiments``."""
    add_experiment_flags(parser)
    parser.add_argument("--out", default=None, help="also write results to a file")
    parser.add_argument(
        "--canonical-out",
        default=None,
        help="write the canonical (full-precision) report to this path "
        "for byte-for-byte comparison across --jobs values",
    )


def run(args: argparse.Namespace) -> int:
    """Run the suite as ``args`` (from :func:`add_arguments`) describes."""
    scale, jobs = apply_experiment_flags(args)
    started = time.time()
    results = run_all(scale, quick=args.quick, jobs=jobs)
    body = "\n\n".join(result.to_text() for result in results)
    elapsed = time.time() - started
    footer = f"\n\nall experiments completed in {elapsed:.1f}s"
    print(body + footer)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(body + footer + "\n")
    if args.canonical_out:
        with open(args.canonical_out, "w") as handle:
            handle.write(canonical_report(results))
    failed = [
        f"{result.figure}: {line}"
        for result in results
        for line, holds in result.bands
        if not holds
    ]
    if failed:
        print(f"\n{len(failed)} band(s) FAILED:", *failed, sep="\n", file=sys.stderr)
        return 1
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
