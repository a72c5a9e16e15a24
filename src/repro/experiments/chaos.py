"""Chaos suite: the four correlated-disaster scenarios across overlays.

Each cell runs one :mod:`repro.workloads.chaos` scenario on one overlay
over a :class:`~repro.sim.topology.ClusteredTopology` (wrapped in the
scenario's :class:`~repro.sim.faults.FaultPlan` where it has one), with
light background churn/insert traffic and the standard query stream, and
reports the four chaos metrics:

* ``avail_during`` — fraction of queries submitted inside the fault
  window that were fully answered;
* ``recover_t`` — heal/strike point to the first sustained streak of
  successful probes (-1: never within the run);
* ``amplification`` — wire traffic over protocol messages
  (retransmissions + duplicate deliveries make it exceed 1);
* ``retries`` / ``timeouts`` / ``gave_up`` — the at-least-once runtime's
  reaction counters (summed over seeds).

Overlays are filtered by capability honestly: the region-outage scenario
needs ``fail`` + ``repair`` (BATON only today); the others run on every
registered overlay, so the table is a three-way comparison under
adversity.  ``unresolved`` must read 0 in every row — an op that
exhausts its retry budget fails its future, it never hangs — and the
suite asserts it.

Expected shape: lossy links keep availability above 90% at the default
loss rate (the retry budget absorbs ~5% per-hop loss easily) at a few
percent amplification; the partition dents availability only for ops
spanning the cut and heals within a probe interval or two of the
reconcile storm; the region outage is the hardest cell — availability
drops while the monitor accumulates suspicion, and recovery tracks
detection latency (monitor interval x threshold) plus repair time; the
flash crowd stresses routing freshness rather than the channel, so its
interesting column is availability under join-churn racing a hot-range
spike.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import overlays
from repro.experiments.grid import (
    Axis,
    Band,
    Grid,
    all_overlays,
    first_size,
    mean_of,
    total,
    where,
)
from repro.experiments.harness import ExperimentScale, build_network, loaded_keys
from repro.sim.topology import ClusteredTopology
from repro.util.rng import derive_seed
from repro.workloads.chaos import SCENARIO_NAMES, build_scenario
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "zero unresolved ops everywhere (budget exhaustion fails, never hangs); "
    "lossy links hold >0.9 availability at the default loss rate with a few "
    "percent amplification; partition availability dips only for cross-cut "
    "ops and recovery follows the heal-time reconcile storm; region-outage "
    "recovery tracks monitor detection latency plus repair; the flash crowd "
    "separates overlays by routing freshness under join churn"
)

QUERY_RATE = 4.0
CHURN_RATE = 0.2
INSERT_RATE = 0.2
REGIONS = 4


def chaos_cell(
    overlay: str,
    scenario_name: str,
    n_peers: int,
    seed: int,
    duration: float,
    data_per_node: int,
) -> Dict[str, float]:
    """One (overlay, scenario, seed) run, reduced to the chaos metrics."""
    scenario = build_scenario(scenario_name, duration=duration, n_peers=n_peers)
    inner = ClusteredTopology(
        seed=derive_seed(seed, "chaos-topology"), regions=REGIONS
    )
    topology = scenario.fault_plan(inner, seed) or inner
    anet = overlays.get(overlay).wrap(
        build_network(overlay, n_peers, seed),
        topology=topology,
        record_events=False,
        retain_ops=False,
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    anet.net.bulk_load(keys)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=CHURN_RATE,
        query_rate=QUERY_RATE,
        insert_rate=INSERT_RATE,
        range_fraction=0.2,
        min_peers=8,
    )
    report = run_concurrent_workload(
        anet,
        keys,
        config,
        seed=derive_seed(seed, "chaos-driver"),
        scenario=scenario,
    )
    if report.unresolved_ops:
        raise AssertionError(
            f"{report.unresolved_ops} op(s) left hanging in "
            f"{scenario_name}/{overlay} seed {seed} — every OpFuture must "
            f"resolve (the at-least-once contract)"
        )
    return {
        "avail_during": report.availability_during,
        "recover_t": report.recover_time,
        "amplification": report.message_amplification,
        "drops": report.drops,
        "dups": report.duplicates,
        "refusals": report.partition_refusals,
        "retries": report.retries,
        "timeouts": report.timeouts,
        "gave_up": report.ops_gave_up,
        "unresolved": report.unresolved_ops,
        "repairs": report.repairs_applied,
        "success": report.query_success_rate,
    }


def _duration(scale: ExperimentScale) -> float:
    return max(24.0, scale.n_queries / QUERY_RATE)


def _capability_filter(scale: ExperimentScale, env, point) -> Optional[str]:
    """Skip (with a note) the overlays a scenario's requirements exclude."""
    probe = build_scenario(
        point["scenario_name"],
        duration=_duration(scale),
        n_peers=env["n_peers"][0],
    )
    if probe.requires <= overlays.get(point["overlay"]).capabilities:
        return None
    return (
        f"{point['scenario_name']} skipped on {point['overlay']} (needs "
        f"{'+'.join(sorted(probe.requires))})"
    )


#: One row per (scenario, overlay), averaged over the scale's seeds.
GRID = Grid(
    name="chaos",
    figure="Chaos",
    title=lambda scale, env: (
        f"Availability and recovery under correlated disaster "
        f"(N={env['n_peers'][0]}, clustered topology, {REGIONS} regions, "
        f"window {_duration(scale):.0f} units)"
    ),
    expectation=EXPECTATION,
    axes=(
        # Quick mode keeps one cheap channel scenario and one correlated one.
        Axis(
            "scenario_name",
            SCENARIO_NAMES,
            quick=("lossy_links", "partition_heal"),
            column="scenario",
        ),
        Axis("overlay", all_overlays),
        Axis("n_peers", first_size, column=None),
    ),
    cell=chaos_cell,
    scale_kwargs=("data_per_node",),
    derive=lambda scale, env: {"duration": _duration(scale)},
    skip=_capability_filter,
    reduce={
        "avail_during": where("avail_during", lambda a: a is not None),
        "recover_t": where(
            "recover_t", lambda t: t is not None and t >= 0, empty=-1.0
        ),
        "amplification": mean_of("amplification"),
        "drops": total("drops"),
        "dups": total("dups"),
        "refusals": total("refusals"),
        "retries": total("retries"),
        "timeouts": total("timeouts"),
        "gave_up": total("gave_up"),
        "unresolved": total("unresolved"),
        "repairs": total("repairs"),
        "success": mean_of("success"),
    },
    # DESIGN.md, "Delivery contract": an op fails, it never hangs.
    bands=(Band("sum unresolved", lambda r: sum(r.column("unresolved")), "==", 0),),
)

if __name__ == "__main__":
    GRID.main()
