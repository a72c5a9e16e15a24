"""Dissemination showdown: range multicast vs unicast vs flood.

The pub/sub extension (DESIGN.md, "Dissemination contract") claims the
tree multicast delivers one message to every owner of a key interval in
|owners| + O(log N) messages — one route to the interval plus one
delegation per additional owner — where per-owner unicast pays a full
O(log N) route per owner and link-flooding pays ~2·|links| regardless of
the interval.  This experiment measures all three on the same bulk-built
BATON overlays and prices every hop on a WAN
:class:`~repro.sim.topology.ClusteredTopology` (the deterministic
per-link ``direct_delay``), so the table shows both message optimality
(``tree_msgs / owners`` → 1) and the wide-area fan-out cost.

The ``lossy`` cell reruns the pub/sub traffic (publishes, subscription
installs, insert notifications) through the event-driven runtime under a
:class:`~repro.sim.faults.FaultPlan` that drops and duplicates 5% of
hops: retransmissions and wire duplicates show up in ``amplification``
and ``wire_dups``, while the per-message dissemination ids keep the
number of *double applications* at zero — duplicate arrivals land in
``dup_suppressed`` instead (the exactly-once-application half of the
contract).

Overlays are filtered by capability honestly: Chord scatters a key
interval across unrelated peers and the multiway baseline has no
sideways tables to delegate through; neither advertises ``multicast`` /
``subscribe``, so their cells are skip notes, not fabricated numbers.
"""

from __future__ import annotations

import math
from typing import List

from repro import overlays
from repro.experiments.grid import (
    Axis,
    Band,
    Grid,
    const,
    first_size,
    mean_of,
    only,
    peak,
)
from repro.experiments.harness import (
    ExperimentResult,
    ExperimentScale,
    build_baton,
    build_network,
    loaded_keys,
)
from repro.pubsub import flood_steps, multicast_steps, range_owners, unicast_steps
from repro.sim.faults import FaultPlan
from repro.sim.topology import ClusteredTopology
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "tree multicast matches or beats unicast on total messages (it ties "
    "only in the degenerate one-owner cell, where both are a bare route) "
    "and beats flood everywhere; optimality -> 1 as the interval widens; "
    "depth stays O(log N); the lossy cell shows amplification > 1 "
    "with zero double applications — every duplicate arrival is "
    "suppressed by the dissemination ids"
)

#: Interval widths as fractions of the key domain.
SPANS = (0.02, 0.10)
REGIONS = 4
#: Lossy-cell channel: drop and duplicate this fraction of hops.
LOSS_RATE = 0.05
DUP_RATE = 0.05
PUBLISH_RATE = 1.0
SUBSCRIBE_RATE = 0.5
INSERT_RATE = 2.0
QUERY_RATE = 2.0
CHURN_RATE = 0.2


def showdown_sizes(scale: ExperimentScale) -> tuple[int, ...]:
    """Quick scale stays tiny; otherwise the paper's end points."""
    if scale.sizes[-1] <= 200:
        return (scale.sizes[-1],)
    return (1000, 10_000)


def _showdown_cell(n_peers: int, span_fraction: float, seed: int) -> dict:
    """One (size, span, seed) comparison on a quiescent network."""
    net = build_baton(n_peers, seed, data_per_node=0, bulk=True)
    domain = net.config.domain
    span = max(2, int(domain.width * span_fraction))
    rng = SeededRng(derive_seed(seed, "multicast-span", n_peers))
    low = rng.randint(domain.low, domain.high - span - 1)
    high = low + span
    wan = ClusteredTopology(
        seed=derive_seed(seed, "multicast-wan"), regions=REGIONS
    )
    owners = {peer.address for peer in range_owners(net, low, high)}

    start = net.random_peer_address()
    tree, wan_tree = _priced_drive(
        multicast_steps(net, start, low, high), wan
    )
    uni, wan_uni = _priced_drive(unicast_steps(net, start, low, high), wan)
    flood, wan_flood = _priced_drive(flood_steps(net, start, low, high), wan)
    for res, label in ((tree, "tree"), (uni, "unicast"), (flood, "flood")):
        if set(res.delivered) != owners:
            raise AssertionError(
                f"{label} dissemination missed owners at N={n_peers} "
                f"seed {seed}: {len(res.delivered)}/{len(owners)}"
            )
    return {
        "owners": len(owners),
        "tree_msgs": tree.messages,
        "uni_msgs": uni.messages,
        "flood_msgs": flood.messages,
        "optimality": tree.messages / max(1, len(owners)),
        "depth": tree.depth,
        "wan_tree": wan_tree,
        "wan_uni": wan_uni,
        "wan_flood": wan_flood,
    }


def _priced_drive(steps, topology) -> tuple:
    """Drive a sync step generator, pricing each real hop on ``topology``.

    Client-ingress hops (``src is None``) are free — the WAN columns
    compare overlay traffic, and no strategy differs on the ingress leg.
    """
    total = 0.0
    while True:
        try:
            hop = next(steps)
        except StopIteration as stop:
            return stop.value, total
        if hop.src is not None:
            total += topology.direct_delay(hop.src, hop.dst) * hop.size


def _lossy_cell(
    n_peers: int, seed: int, data_per_node: int, n_queries: int
) -> dict:
    """Pub/sub traffic through the chaos runtime on a lossy channel."""
    duration = max(16.0, n_queries / 8.0)
    inner = ClusteredTopology(
        seed=derive_seed(seed, "multicast-lossy-topology"), regions=REGIONS
    )
    plan = FaultPlan(
        inner,
        seed=derive_seed(seed, "multicast-lossy-plan"),
        drop_rate=LOSS_RATE,
        duplicate_rate=DUP_RATE,
    )
    anet = overlays.get("baton").wrap(
        build_network("baton", n_peers, seed),
        topology=plan,
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
        publish_rate=PUBLISH_RATE,
        subscribe_rate=SUBSCRIBE_RATE,
    )
    report = run_concurrent_workload(
        anet, keys, config, seed=derive_seed(seed, "multicast-lossy-driver")
    )
    if report.unresolved_ops:
        raise AssertionError(
            f"{report.unresolved_ops} op(s) left hanging in the lossy cell"
        )
    return {
        "span_pct": f"{ConcurrentConfig().pubsub_span / anet.domain.width:.0%}",
        "depth": report.multicast_depth_max,
        "notifs": report.notifications,
        "dup_suppressed": report.pubsub_duplicates_suppressed,
        "wire_dups": report.duplicates,
        "amplification": report.message_amplification,
    }


COLUMNS = (
    "cell",
    "overlay",
    "n_peers",
    "span_pct",
    "owners",
    "tree_msgs",
    "uni_msgs",
    "flood_msgs",
    "optimality",
    "depth",
    "wan_tree",
    "wan_uni",
    "wan_flood",
    "notifs",
    "dup_suppressed",
    "wire_dups",
    "amplification",
)
#: What the lossy cell measures; its row leaves the showdown's message
#: and WAN-cost columns blank, and the showdown rows these (bar ``depth``).
LOSSY_COLUMNS = ("notifs", "dup_suppressed", "wire_dups", "amplification")
SHOWDOWN_COLUMNS = (
    "owners",
    "tree_msgs",
    "uni_msgs",
    "flood_msgs",
    "optimality",
    "wan_tree",
    "wan_uni",
    "wan_flood",
)


def _capability_notes(scale: ExperimentScale, env) -> List[str]:
    return [
        f"{name} skipped (does not advertise multicast+subscribe; "
        "hash partitioning / missing sideways tables cannot route "
        "a range fan-out)"
        for name in overlays.available()
        if not {"multicast", "subscribe"} <= overlays.get(name).capabilities
    ]


def _route_slack(result: ExperimentResult) -> float:
    """The worst showdown row's ``tree_msgs`` over |owners| + 2⌈log2 N⌉ + 2:
    the fan-out is |owners| - 1 and the route prefix O(log N)."""
    return max(
        row["tree_msgs"]
        - (row["owners"] + 2 * math.ceil(math.log2(row["n_peers"])) + 2)
        for row in result.rows
        if row["cell"] == "showdown"
    )


#: The lossy-channel cell: one run (first seed), one row, after the grid.
_LOSSY = Grid(
    name="multicast",
    cell=_lossy_cell,
    axes=(Axis("n_peers", first_size),),
    scale_kwargs=("data_per_node", "n_queries"),
    seeds=lambda scale: scale.seeds[:1],
    reduce={
        "cell": const("lossy"),
        "overlay": const("baton"),
        **dict.fromkeys(SHOWDOWN_COLUMNS, const("")),
        **{
            column: only(column)
            for column in ("span_pct", "depth", *LOSSY_COLUMNS)
        },
    },
    notes=(
        "lossy cell: FaultPlan drops/duplicates 5% of hops; every "
        "duplicate arrival was suppressed by the dissemination ids — "
        "zero notifications or multicasts applied twice",
    ),
)

#: The showdown grid plus the lossy-channel cell, in row order.
GRID = Grid(
    name="multicast",
    figure="Multicast",
    title=(
        "Range dissemination: tree multicast vs per-owner unicast vs "
        f"flood (WAN pricing: clustered topology, {REGIONS} regions)"
    ),
    columns=COLUMNS,
    expectation=EXPECTATION,
    axes=(
        Axis("n_peers", showdown_sizes),
        Axis(
            "span_fraction",
            SPANS,
            column="span_pct",
            label=lambda fraction: f"{fraction:.0%}",
        ),
    ),
    cell=_showdown_cell,
    reduce={
        "cell": const("showdown"),
        "overlay": const("baton"),
        **{column: mean_of(column) for column in SHOWDOWN_COLUMNS},
        "depth": peak("depth"),
        **dict.fromkeys(LOSSY_COLUMNS, const("")),
    },
    notes=_capability_notes,
    tail=_LOSSY,
    # DESIGN.md, "Dissemination contract": |owners| + O(log N) messages.
    bands=(
        Band(
            "tree_msgs - (owners + 2 ceil(log2 N) + 2), worst row",
            _route_slack,
            "<=",
            0,
        ),
    ),
)

if __name__ == "__main__":
    GRID.main()
