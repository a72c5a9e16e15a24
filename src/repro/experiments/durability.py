"""Durability under concurrent churn: keys lost vs. maintenance spent.

The paper's fault-tolerance story (§IV) restores *routing* after a failure
but treats the dead peer's data as out of scope; the adjacent-replica
extension (:mod:`repro.core.replication`, DESIGN.md "Durability contract")
closes that gap.  D3-Tree (Sourla et al.) argues durability under churn
should be *measured*, not asserted — so this experiment crashes peers while
queries and inserts are in flight and counts what actually survives.

For each (churn intensity, maintenance interval) cell, a replicated BATON
network runs the concurrent workload with every departure an abrupt crash;
crashes are detected and repaired in-window (``repair_delay``), the
maintenance sweep reconciles links *and* re-anchors replicas, and every
maintenance message crosses a priced link, so the overhead column is real
traffic, not bookkeeping.  Reported per cell:

* ``keys_lost`` — keys present after loading (plus applied inserts) that
  no live peer stores once the run drains and repairs finish;
* ``recovery_p50`` / ``recovery_max`` — crash-to-repaired latency of
  in-window repairs, including the detection delay and the
  replica-pull hops;
* ``reconcile_msgs`` / ``replica_msgs`` — the maintenance traffic spent to
  earn that durability.

Expected shape: with replication off, every crash loses its store
(``keys_lost`` grows with churn).  With replication on, serialized crashes
lose nothing; under concurrency a small residue survives only when crashes
race the refresh interval (a mirror dies with its holder before
re-anchoring, or a stale mirror is filtered at restore), so ``keys_lost``
falls as the maintenance interval shrinks — while ``replica_msgs`` rises.
That staleness-vs-maintenance-traffic trade-off is the measurement.

The ``mode`` column separates failure regimes.  ``independent`` rows crash
peers one at a time (Poisson churn, oracle detection after
``repair_delay``).  The ``region_outage`` row is the correlated case: every
peer in one :class:`~repro.sim.topology.ClusteredTopology` region dies at
once and the only detection path is the heartbeat liveness monitor — no
oracle — so its recovery columns report the probe-measured outage (strike
to the first sustained streak of answered queries, detection latency
included) rather than per-crash repair latency.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro import overlays
from repro.core.network import LocalityConfig
from repro.experiments.grid import (
    Axis,
    Band,
    Grid,
    const,
    first_size,
    mean_of,
    only,
    peak,
    total,
    where,
)
from repro.experiments.harness import ExperimentScale, build_baton, loaded_keys
from repro.sim.latency import ExponentialLatency
from repro.sim.topology import ClusteredTopology
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.chaos import RegionOutage
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "replication=off loses every crashed peer's keys; replication=on loses "
    "zero keys when crashes are repaired without racing churn and only a "
    "small residue under concurrency (crashes racing the refresh window); "
    "shrinking the maintenance interval trades replica/reconcile messages "
    "for fewer lost keys and lower recovery latency; the correlated "
    "region_outage row survives on replication plus monitor-driven repair "
    "alone, paying its recovery time in heartbeat detection latency; the "
    "region_outage+diverse row anchors mirrors across regions so the "
    "outage never takes both copies — adjacent-placement losses vanish"
)

CHURN_RATES = (0.5, 2.0)
MAINTENANCE_INTERVALS = (0.0, 4.0, 16.0)
QUERY_RATE = 4.0
INSERT_RATE = 0.5
REPAIR_DELAY = 2.0
FAIL_FRACTION = 1.0
OUTAGE_REGIONS = 4


def _stored_multiset(net) -> Counter:
    counter: Counter = Counter()
    for peer in net.peers.values():
        counter.update(peer.store)
    return counter


def _one_run(
    n_peers: int,
    seed: int,
    data_per_node: int,
    churn_rate: float,
    maintenance_interval: float,
    duration: float,
    replication: bool,
) -> dict:
    net = build_baton(n_peers, seed, data_per_node, replication=replication)
    if replication:
        net.refresh_replicas()  # anchor every mirror before the storm
    rng = SeededRng(derive_seed(seed, "durability"))
    anet = overlays.get("baton").wrap(
        net,
        topology=ExponentialLatency(mean=1.0, rng=rng.child("latency")),
        record_events=False,
        retain_ops=False,
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    before = _stored_multiset(net)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=churn_rate,
        query_rate=QUERY_RATE,
        insert_rate=INSERT_RATE,
        fail_fraction=FAIL_FRACTION,
        repair_delay=REPAIR_DELAY,
        maintenance_interval=maintenance_interval,
        min_peers=max(8, n_peers // 2),
    )
    report = run_concurrent_workload(
        anet, keys, config, seed=derive_seed(seed, "durability-driver")
    )
    expected = before + Counter(report.insert_keys_applied)
    keys_lost = sum((expected - _stored_multiset(net)).values())
    return {
        "crashes": report.fails_applied,
        "repairs": report.repairs_applied,
        "keys_lost": keys_lost,
        "keys_recovered": report.keys_recovered,
        "recovery_p50": report.recovery_latency_p50,
        "recovery_max": report.recovery_latency_max,
        "reconcile_msgs": report.reconcile_messages,
        "replica_msgs": report.replica_messages,
        "success": report.query_success_rate,
    }


def _correlated_run(
    n_peers: int,
    seed: int,
    data_per_node: int,
    maintenance_interval: float,
    replica_diversity: bool = False,
    insert_rate: float = INSERT_RATE,
) -> dict:
    """One region dies at once; only the liveness monitor notices.

    No background churn, so every lost key is attributable to the outage;
    no ``repair_delay`` oracle, so every in-window repair was earned by
    heartbeat suspicion.  ``recover`` is the scenario's probe-measured
    strike-to-service time (-1: never within the run).

    ``replica_diversity`` turns on region-diverse placement (locality
    extension): mirrors anchor across regions, so the outage can never
    take an owner and its replica together.  The anchoring refresh runs
    *after* the topology is installed — placement needs ``region_of``.
    """
    net = build_baton(
        n_peers,
        seed,
        data_per_node,
        replication=True,
        locality=LocalityConfig(replica_diversity=replica_diversity),
    )
    topology = ClusteredTopology(
        seed=derive_seed(seed, "durability-regions"), regions=OUTAGE_REGIONS
    )
    anet = overlays.get("baton").wrap(
        net, topology=topology, record_events=False, retain_ops=False
    )
    net.refresh_replicas()  # anchor every mirror before the storm
    duration = 30.0  # long enough for strike + detection + probe streak
    scenario = RegionOutage(
        strike_at=duration * 0.25, window_len=duration * 0.5
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    before = _stored_multiset(net)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=0.0,
        query_rate=QUERY_RATE,
        insert_rate=insert_rate,
        maintenance_interval=maintenance_interval,
        min_peers=8,
    )
    report = run_concurrent_workload(
        anet,
        keys,
        config,
        seed=derive_seed(seed, "durability-outage"),
        scenario=scenario,
    )
    expected = before + Counter(report.insert_keys_applied)
    keys_lost = sum((expected - _stored_multiset(net)).values())
    return {
        "interval": maintenance_interval,
        "crashes": report.fails_applied,
        "repairs": report.repairs_applied,
        "keys_lost": keys_lost,
        "keys_recovered": report.keys_recovered,
        "recover": (
            report.recover_time if report.recover_time is not None else -1.0
        ),
        "reconcile_msgs": report.reconcile_messages,
        "replica_msgs": report.replica_messages,
        "success": report.query_success_rate,
    }


_COUNTS = {
    "crashes": total("crashes"),
    "repairs": total("repairs"),
    "keys_lost": total("keys_lost"),
    "keys_recovered": total("keys_recovered"),
    "reconcile_msgs": total("reconcile_msgs"),
    "replica_msgs": total("replica_msgs"),
    "success": mean_of("success"),
}


def _recovered(recover_time: float) -> bool:
    return recover_time >= 0


def _correlated_kwargs(scale: ExperimentScale, env) -> dict:
    """The outage rows reuse the main grid's N and its first live interval."""
    return {
        "n_peers": env["n_peers"][0],
        "data_per_node": scale.data_per_node,
        "maintenance_interval": next(
            (i for i in env["maintenance_interval"] if i > 0),
            MAINTENANCE_INTERVALS[1],
        ),
    }


_CORRELATED = Grid(
    name="durability",
    cell=_correlated_run,
    axes=(
        Axis(
            "replica_diversity",
            (False, True),
            column="mode",
            label=lambda d: "region_outage+diverse" if d else "region_outage",
        ),
    ),
    derive=_correlated_kwargs,
    reduce={
        "replication": const(1),
        "churn_rate": const(0.0),
        "interval": only("interval"),
        # Over the seeds whose outage recovered within the run; -1 if none.
        "recovery_p50": where("recover", _recovered, empty=-1.0),
        "recovery_max": where("recover", _recovered, max, empty=-1.0),
        **_COUNTS,
    },
)

def _bare_baseline_once(scale: ExperimentScale, env, point) -> Optional[str]:
    """The replication-off baseline has no mirrors to refresh, so it runs
    at the grid's first interval only (0.0, no sweeps, in every shipped
    grid); its other points are dropped silently."""
    first_interval = env["maintenance_interval"][0]
    if point["replication"] or point["maintenance_interval"] == first_interval:
        return None
    return ""


def _independent(result, replication: int) -> list:
    return [
        row
        for row in result.rows
        if row["mode"] == "independent" and row["replication"] == replication
    ]


def _replication_excess(result) -> float:
    """Keys lost by every replicated interval together, over what the bare
    network lost, at the worst churn rate (like against like: the outage
    rows have no bare twin)."""
    excess = {row["churn_rate"]: -row["keys_lost"] for row in _independent(result, 0)}
    for row in _independent(result, 1):
        excess[row["churn_rate"]] += row["keys_lost"]
    return max(excess.values())


#: One row per (replication, churn rate, maintenance interval), then the
#: two correlated-outage rows.
GRID = Grid(
    name="durability",
    figure="Durability",
    title=lambda scale, env: (
        f"Keys lost vs. maintenance traffic under crash churn "
        f"(N={env['n_peers'][0]}, fail fraction {FAIL_FRACTION}, "
        f"repair delay {REPAIR_DELAY})"
    ),
    columns=(
        "mode",
        "replication",
        "churn_rate",
        "interval",
        "crashes",
        "repairs",
        "keys_lost",
        "keys_recovered",
        "recovery_p50",
        "recovery_max",
        "reconcile_msgs",
        "replica_msgs",
        "success",
    ),
    expectation=EXPECTATION,
    axes=(
        Axis("replication", (True, False), label=int),
        Axis("churn_rate", CHURN_RATES, quick=(1.0,)),
        Axis(
            "maintenance_interval",
            MAINTENANCE_INTERVALS,
            quick=(0.0, 6.0),
            column="interval",
        ),
        Axis("n_peers", first_size, column=None),
    ),
    cell=_one_run,
    scale_kwargs=("data_per_node",),
    derive=lambda scale, env: {"duration": scale.n_queries / QUERY_RATE},
    skip=_bare_baseline_once,
    reduce={
        "mode": const("independent"),
        "recovery_p50": mean_of("recovery_p50"),
        "recovery_max": peak("recovery_max"),
        **_COUNTS,
    },
    tail=_CORRELATED,
    bands=(
        Band(
            "sum replicated keys_lost - bare keys_lost, worst churn rate",
            _replication_excess,
            "<=",
            0,
        ),
        Band(
            "min bare keys_lost",
            lambda r: min(row["keys_lost"] for row in _independent(r, 0)),
            ">",
            0,
        ),
        Band(
            "sum replicated keys_recovered",
            lambda r: sum(row["keys_recovered"] for row in _independent(r, 1)),
            ">",
            0,
        ),
        # Maintenance traffic is priced and counted, never free.
        Band(
            "min replica_msgs with replication on",
            lambda r: min(r.column("replica_msgs", {"replication": 1})),
            ">",
            0,
        ),
        Band(
            "max replica_msgs with replication off",
            lambda r: max(r.column("replica_msgs", {"replication": 0})),
            "==",
            0,
        ),
        Band("min reconcile_msgs", lambda r: min(r.column("reconcile_msgs")), ">", 0),
        # Only the heartbeat monitor can find the dead region.
        Band(
            "region_outage repairs",
            lambda r: r.column("repairs", {"mode": "region_outage"})[0],
            ">",
            0,
        ),
    ),
)

if __name__ == "__main__":
    GRID.main()
