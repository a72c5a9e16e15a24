"""Benchmark configuration.

``bench_figures.py`` regenerates Figure 8 one panel per benchmark: the
benchmark body *is* the experiment driver, so ``pytest benchmarks/ --benchmark-only``
both times the reproduction and prints the measured series the paper plots
(via the ``extra_info`` attached to every benchmark).

Scale: benchmark runs use a reduced sweep so the suite completes in minutes;
set ``REPRO_FULL_SCALE=1`` for the paper's 1000–10000-peer sweep.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.harness import ExperimentScale


def bench_scale() -> ExperimentScale:
    """The scale benchmarks run at (smaller than the experiment default)."""
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return ExperimentScale(
            sizes=(1000, 2500, 5000, 10000),
            seeds=tuple(range(10)),
            data_per_node=1000,
            n_queries=1000,
            n_trials=100,
        )
    return ExperimentScale(
        sizes=(128, 256, 512),
        seeds=(0,),
        data_per_node=20,
        n_queries=60,
        n_trials=20,
    )


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return bench_scale()


def attach_series(benchmark, result) -> None:
    """Expose the measured series in the benchmark report."""
    benchmark.extra_info["figure"] = result.figure
    benchmark.extra_info["expectation"] = result.expectation
    benchmark.extra_info["rows"] = [
        {k: v for k, v in row.items()} for row in result.rows
    ]
