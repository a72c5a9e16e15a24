"""Command-line interface: quick demos and inspection.

Usage::

    python -m repro demo --peers 50 --keys 500
    python -m repro tree --peers 31
    python -m repro ranges --peers 20 --keys 400
    python -m repro experiments --quick
    python -m repro concurrent --peers 200 --churn-rate 1.0 --duration 60
    python -m repro concurrent --overlay chord --peers 200
    python -m repro concurrent --overlay all --peers 100 --duration 30
    python -m repro concurrent --overlay all --topology clustered
    python -m repro concurrent --replication --fail-fraction 0.5 --repair-delay 2
    python -m repro durability --quick
    python -m repro chaos --quick                  # all four scenarios
    python -m repro chaos --scenario lossy_links --overlay baton
    python -m repro multicast --quick              # dissemination showdown
    python -m repro locality --quick               # route cache x aware join
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import BatonNetwork, check_invariants, tree_height
from repro.core import viz
from repro.workloads.generators import uniform_keys

#: Defaults for the clustered-only flags; changing either with a different
#: --topology is rejected rather than silently ignored.
CLUSTERED_REGIONS_DEFAULT = 4
CLUSTERED_INTER_DELAY_DEFAULT = 5.0


def _build(args: argparse.Namespace) -> BatonNetwork:
    net = BatonNetwork.build(args.peers, seed=args.seed)
    if args.keys:
        net.bulk_load(uniform_keys(args.keys, seed=args.seed + 1))
    return net


def cmd_demo(args: argparse.Namespace) -> int:
    net = _build(args)
    print(f"{net.size} peers, height {tree_height(net)}")
    probes = uniform_keys(5, seed=args.seed + 2)
    for key in probes:
        result = net.search_exact(key)
        state = "hit" if result.found else "miss"
        print(f"  search {key}: {state} at addr={result.owner} "
              f"({result.trace.total} msgs)")
    span = net.search_range(10**8, 2 * 10**8)
    print(f"  range [1e8, 2e8): {len(span.keys)} keys from "
          f"{span.nodes_visited} peers ({span.trace.total} msgs)")
    check_invariants(net)
    print("invariants: OK")
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    net = _build(args)
    print(viz.render_tree(net, max_level=args.max_level))
    print()
    print(viz.level_histogram(net))
    return 0


def cmd_ranges(args: argparse.Namespace) -> int:
    net = _build(args)
    print(viz.render_range_map(net))
    return 0


def cmd_peer(args: argparse.Namespace) -> int:
    net = _build(args)
    address = args.address if args.address is not None else net.random_peer_address()
    print(viz.render_peer(net, address))
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    """Run one experiment grid (durability, chaos, multicast, locality).

    ``args.module`` names the driver module whose ``GRID`` runs;
    ``args.axes`` maps the subcommand's flags to the grid's axes ("all" or
    an unset flag keeps the axis default).
    """
    import importlib

    from repro.experiments.parallel import apply_experiment_flags

    grid = importlib.import_module(f"repro.experiments.{args.module}").GRID
    scale, jobs = apply_experiment_flags(args)
    overrides = {
        axis: value
        for flag, axis in args.axes.items()
        if (value := getattr(args, flag)) and value != "all"
    }
    print(grid.run(scale, jobs=jobs, **overrides).to_text())
    return 0


def cmd_concurrent(args: argparse.Namespace) -> int:
    """Drive interleaved churn + queries on the event-driven runtime."""
    from repro import overlays
    from repro.workloads.concurrent import ConcurrentConfig

    try:
        config = ConcurrentConfig(
            duration=args.duration,
            churn_rate=args.churn_rate,
            query_rate=args.query_rate,
            insert_rate=args.insert_rate,
            join_fraction=args.join_fraction,
            fail_fraction=args.fail_fraction,
            range_fraction=args.range_fraction,
            maintenance_interval=args.maintenance_interval,
            repair_delay=args.repair_delay,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.topology != "clustered" and (
        args.regions != CLUSTERED_REGIONS_DEFAULT
        or args.inter_delay != CLUSTERED_INTER_DELAY_DEFAULT
    ):
        print(
            "error: --regions/--inter-delay only apply to --topology clustered",
            file=sys.stderr,
        )
        return 2
    names = overlays.available() if args.overlay == "all" else [args.overlay]
    if args.replication:
        # Capabilities are honest (DESIGN.md): refuse rather than run a
        # comparison where only some contenders silently replicate.
        unsupported = [
            name
            for name in names
            if "replication" not in overlays.get(name).capabilities
        ]
        if unsupported:
            print(
                f"error: --replication is not supported by "
                f"{', '.join(unsupported)} (only overlays advertising the "
                f"capability can replicate)",
                file=sys.stderr,
            )
            return 2
    if args.cache or args.join_probes or args.replica_diversity:
        unsupported = [
            name
            for name in names
            if "locality" not in overlays.get(name).capabilities
        ]
        if unsupported:
            print(
                f"error: --cache/--join-probes/--replica-diversity are not "
                f"supported by {', '.join(unsupported)} (only overlays "
                f"advertising the locality capability)",
                file=sys.stderr,
            )
            return 2
    if args.replica_diversity and not args.replication:
        print(
            "error: --replica-diversity needs --replication "
            "(there is no mirror to place without it)",
            file=sys.stderr,
        )
        return 2
    if args.replica_diversity and args.topology != "clustered":
        print(
            "error: --replica-diversity needs --topology clustered "
            "(diversity is defined over regions)",
            file=sys.stderr,
        )
        return 2
    if args.join_probes < 0:
        print("error: --join-probes must be >= 0", file=sys.stderr)
        return 2
    for name in names:
        _run_concurrent_overlay(name, args, config)
    return 0


def _run_concurrent_overlay(name: str, args: argparse.Namespace, config) -> None:
    """One overlay's concurrent run, reported to stdout."""
    from repro import overlays
    from repro.sim.topology import make_topology
    from repro.workloads.concurrent import run_concurrent_workload

    topology_params = {}
    if args.topology == "clustered":
        topology_params = {
            "regions": args.regions,
            "inter_delay": args.inter_delay,
        }
    topology = make_topology(args.topology, seed=args.seed, **topology_params)
    net_config = None
    if args.replication or args.cache or args.join_probes or args.replica_diversity:
        from repro.core.cache import DEFAULT_CACHE_SIZE
        from repro.core.network import BatonConfig, LocalityConfig

        net_config = BatonConfig(
            replication=args.replication,
            locality=LocalityConfig(
                join_probes=args.join_probes,
                replica_diversity=args.replica_diversity,
                cache_size=DEFAULT_CACHE_SIZE if args.cache else 0,
            ),
        )
    anet = overlays.get(name).build(args.peers, args.seed, config=net_config).wrap(
        topology=topology, record_events=False, retain_ops=False
    )
    keys = uniform_keys(args.keys or 10 * args.peers, seed=args.seed + 1)
    anet.net.bulk_load(keys)
    if args.replication:
        anet.net.refresh_replicas()  # anchor mirrors before traffic starts
    report = run_concurrent_workload(anet, keys, config, seed=args.seed + 2)
    print(
        f"{name}: {args.peers} peers, event-driven runtime, "
        f"{args.topology} topology, seed {args.seed}"
    )
    for line in report.summary_lines():
        print(f"  {line}")
    if name != "baton":
        return
    from repro.core.invariants import collect_violations

    violations = collect_violations(anet.net)
    if violations:
        # Heavy churn can leave a rare residual Theorem-1 imbalance (a leaf
        # departed on a safe-departure check whose correction was lost to a
        # stale link); the next join heals it.  Report, don't crash.
        print(f"invariants: {len(violations)} residual violation(s) after repair/reconcile")
        for violation in violations:
            print(f"  - {violation}")
    else:
        print("invariants: OK (after post-run repair/reconcile)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--peers", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--keys", type=int, default=0)

    demo = sub.add_parser("demo", help="build a network and run sample queries")
    common(demo)
    demo.set_defaults(func=cmd_demo)

    tree = sub.add_parser("tree", help="print the overlay as an ASCII tree")
    common(tree)
    tree.add_argument("--max-level", type=int, default=None)
    tree.set_defaults(func=cmd_tree)

    ranges = sub.add_parser("ranges", help="print the range partition map")
    common(ranges)
    ranges.set_defaults(func=cmd_ranges)

    peer = sub.add_parser("peer", help="dump one peer's full state")
    common(peer)
    peer.add_argument("--address", type=int, default=None)
    peer.set_defaults(func=cmd_peer)

    from repro.experiments import runall
    from repro.experiments.parallel import add_experiment_flags

    experiments = sub.add_parser("experiments", help="run the Figure-8 suite")
    runall.add_arguments(experiments)
    experiments.set_defaults(func=runall.run)

    durability = sub.add_parser(
        "durability",
        help="keys lost vs. maintenance traffic under crash churn "
        "(replication on vs. off)",
    )
    durability.add_argument(
        "--peers", type=int, default=None, help="override the population"
    )
    add_experiment_flags(durability)
    durability.set_defaults(
        func=cmd_grid, module="durability", axes={"peers": "n_peers"}
    )

    from repro import overlays
    from repro.workloads.chaos import SCENARIO_NAMES

    chaos = sub.add_parser(
        "chaos",
        help="correlated-disaster scenarios (region outage, partition, "
        "flash crowd, lossy links) with availability/recovery metrics",
    )
    chaos.add_argument(
        "--scenario",
        default="all",
        choices=list(SCENARIO_NAMES) + ["all"],
        help="which scenario to run ('all' runs the full suite)",
    )
    chaos.add_argument(
        "--overlay",
        default="all",
        choices=overlays.available() + ["all"],
        help="which overlay to stress (scenarios needing capabilities the "
        "overlay lacks are skipped with a note)",
    )
    chaos.add_argument(
        "--peers", type=int, default=None, help="override the population"
    )
    add_experiment_flags(chaos)
    chaos.set_defaults(
        func=cmd_grid,
        module="chaos",
        axes={"scenario": "scenario_name", "overlay": "overlay", "peers": "n_peers"},
    )

    multicast = sub.add_parser(
        "multicast",
        help="range-dissemination showdown: tree multicast vs per-owner "
        "unicast vs flood, WAN-priced, plus the lossy pub/sub cell",
    )
    add_experiment_flags(multicast)
    multicast.set_defaults(func=cmd_grid, module="multicast", axes={})

    locality = sub.add_parser(
        "locality",
        help="locality grid: hot-range route cache x topology-aware join "
        "on a clustered WAN (stretch, hit rate, probing surcharge)",
    )
    locality.add_argument(
        "--peers", type=int, default=None, help="override the grid's N"
    )
    add_experiment_flags(locality)
    locality.set_defaults(
        func=cmd_grid, module="locality", axes={"peers": "n_peers"}
    )

    from repro import overlays

    concurrent = sub.add_parser(
        "concurrent", help="interleaved churn + queries on the event runtime"
    )
    common(concurrent)
    concurrent.add_argument(
        "--overlay",
        default="baton",
        choices=overlays.available() + ["all"],
        help="which overlay to drive ('all' runs the full comparison)",
    )
    from repro.sim.topology import available_topologies

    concurrent.add_argument("--duration", type=float, default=60.0)
    concurrent.add_argument("--churn-rate", type=float, default=1.0)
    concurrent.add_argument("--query-rate", type=float, default=8.0)
    concurrent.add_argument("--insert-rate", type=float, default=0.0)
    concurrent.add_argument("--join-fraction", type=float, default=0.5)
    concurrent.add_argument("--fail-fraction", type=float, default=0.0)
    concurrent.add_argument("--range-fraction", type=float, default=0.2)
    concurrent.add_argument(
        "--topology",
        default="exponential",
        choices=available_topologies(),
        help="per-link transport model (scalar models are single-region)",
    )
    concurrent.add_argument(
        "--regions",
        type=int,
        default=CLUSTERED_REGIONS_DEFAULT,
        help="region count for --topology clustered",
    )
    concurrent.add_argument(
        "--inter-delay",
        type=float,
        default=CLUSTERED_INTER_DELAY_DEFAULT,
        help="inter-region base delay for --topology clustered",
    )
    concurrent.add_argument(
        "--maintenance-interval",
        type=float,
        default=0.0,
        help="run an in-window reconcile sweep every this many time units "
        "(0 disables; overlays without the capability never sweep; with "
        "--replication each sweep also re-anchors every peer's replica)",
    )
    concurrent.add_argument(
        "--replication",
        action="store_true",
        help="mirror each peer's store at its adjacent and restore it on "
        "repair (only overlays advertising the replication capability)",
    )
    concurrent.add_argument(
        "--repair-delay",
        type=float,
        default=0.0,
        help="detect and repair each crash this many time units after it "
        "lands (0 repairs only after the run drains)",
    )
    concurrent.add_argument(
        "--cache",
        action="store_true",
        help="give every peer a bounded hot-range route cache (locality "
        "extension; hits/misses/invalidations land in the report)",
    )
    concurrent.add_argument(
        "--join-probes",
        type=int,
        default=0,
        help="topology-aware join: each joiner prices this many candidate "
        "entry points and attaches where its neighbourhood link cost is "
        "lowest (0 or 1 = the paper's Algorithm 1)",
    )
    concurrent.add_argument(
        "--replica-diversity",
        action="store_true",
        help="anchor each peer's mirror in a different region than its "
        "owner (needs --replication and --topology clustered)",
    )
    concurrent.set_defaults(func=cmd_concurrent)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
