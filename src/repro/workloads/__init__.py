"""Workload generators for the §V experiments.

The paper loads 1000·N values drawn from [1, 10^9), runs 1000 exact and
1000 range queries per configuration, and tests skew with a Zipfian
distribution at parameter 1.0.  These generators reproduce those inputs —
seeded, so every experiment replays byte-for-byte.
"""

from repro.workloads.generators import (
    UniformKeys,
    ZipfianKeys,
    exact_queries,
    range_queries,
    uniform_keys,
    zipfian_keys,
)
from repro.workloads.concurrent import (
    ConcurrentConfig,
    ConcurrentReport,
    WorkloadRun,
    percentile,
    poisson,
    run_concurrent_workload,
)
from repro.workloads.chaos import (
    SCENARIO_NAMES,
    ChaosScenario,
    FlashCrowd,
    LossyLinks,
    PartitionHeal,
    RegionOutage,
    build_scenario,
)

__all__ = [
    "UniformKeys",
    "ZipfianKeys",
    "uniform_keys",
    "zipfian_keys",
    "exact_queries",
    "range_queries",
    "ConcurrentConfig",
    "ConcurrentReport",
    "WorkloadRun",
    "percentile",
    "poisson",
    "run_concurrent_workload",
    "SCENARIO_NAMES",
    "ChaosScenario",
    "FlashCrowd",
    "LossyLinks",
    "PartitionHeal",
    "RegionOutage",
    "build_scenario",
]
