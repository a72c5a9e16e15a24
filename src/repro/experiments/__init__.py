"""Experiment drivers reproducing every panel of Figure 8 (§V).

Each driver module is one :class:`~repro.experiments.grid.Grid` spec —
``GRID.run(scale) -> ExperimentResult``, and ``python -m`` on the module
prints the measured series next to the paper's expected shape;
:mod:`repro.experiments.runall` executes the registry of them.  Scales are
controlled by :class:`~repro.experiments.harness.ExperimentScale` — the
default is laptop-sized, ``REPRO_FULL_SCALE=1`` restores the paper's
1000–10000-peer sweeps (see DESIGN.md's substitution table).
"""

from repro.experiments.harness import (
    ExperimentResult,
    ExperimentScale,
    default_scale,
    quick_scale,
)

__all__ = [
    "ExperimentResult",
    "ExperimentScale",
    "default_scale",
    "quick_scale",
]
