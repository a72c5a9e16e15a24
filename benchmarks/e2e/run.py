"""End-to-end benchmark: four workloads, eight end-to-end metrics, a layer split.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                      # all four workloads, K=7
    python3 benchmarks/e2e/run.py --trace --out a.json # + traced repeat, trace.json
    python3 benchmarks/e2e/run.py --workload query_flat --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --compare a.json b.json
    python3 benchmarks/e2e/run.py --smoke --trace      # N=256, K=1 (tier-1 smoke)

Every workload runs in its own fresh, hermetic subprocess (fixed
``PYTHONHASHSEED``, no ``REPRO_*`` variables, snapshot cache off), so
``peak_rss_mb`` belongs to the workload that used it and no cached build
leaks into ``setup_s``.  With ``--workload`` the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A failed correctness check exits non-zero and names the
check.  README.md explains the workloads, the metrics and ``trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

import metrics  # noqa: E402  (sibling module; the script's directory is on sys.path)

#: Repeats in suite mode (``--repeats`` overrides; ``--seconds`` replaces
#: the count with a time budget, never fewer than MIN_REPEATS).
DEFAULT_REPEATS = 7
MIN_REPEATS = 3
#: ``setup_s`` samples wanted per run: every repeat contributes one, the
#: rest are set-up-only passes (bounded by a fifth of ``--seconds``).
SETUP_SAMPLES = 15
#: What the traced repeat costs relative to a plain one (reserved out of
#: the ``--seconds`` budget).
TRACED_REPEAT_COST = 1.6
OUT_SCHEMA = 1


# ---------------------------------------------------------------------------
# Child: measure one workload in this (fresh) process
# ---------------------------------------------------------------------------


def _deterministic(rep) -> dict:
    """Everything a repeat reports that must not depend on the host."""
    return {**rep.sim, **rep.counts}


def _differing(a: dict, b: dict) -> List[str]:
    return sorted(key for key in a if a[key] != b.get(key))


def measure(name: str, seed: int, repeats: Optional[int], seconds: Optional[float],
            trace: bool, smoke: bool) -> dict:
    import resource

    import workloads
    from tracing import Tracer

    clock = time.perf_counter
    workload = workloads.build_workloads(smoke)[name]
    is_async = name in metrics.ASYNC_WORKLOADS
    traced_wanted = trace and is_async

    began = clock()
    reps: List[workloads.Repeat] = []
    while True:
        reps.append(workload.repeat(seed))
        if repeats is not None:
            if len(reps) >= repeats:
                break
            continue
        elapsed = clock() - began
        per_repeat = elapsed / len(reps)
        reserve = per_repeat * (TRACED_REPEAT_COST if traced_wanted else 0.0)
        if len(reps) >= MIN_REPEATS and elapsed + per_repeat + reserve > seconds:
            break
    # Read before the traced repeat: its spans must not count as the
    # workload's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setup_samples = [rep.setup_s for rep in reps]
    extra_began = clock()
    while len(setup_samples) < SETUP_SAMPLES and not smoke:
        if seconds is not None and clock() - extra_began > 0.2 * seconds:
            break
        setup_samples.append(workload.setup_only(seed))

    first = reps[0]
    checks: Dict[str, dict] = {}

    def check(label: str, ok: bool, detail: str = "") -> None:
        previous = checks.get(label)
        if previous is None or previous["ok"]:
            checks[label] = {"ok": bool(ok), "detail": "" if ok else detail}

    for rep in reps:
        for label, (ok, detail) in rep.checks.items():
            check(label, ok, detail)
    baseline = _deterministic(first)
    drifted = {
        key for rep in reps[1:] for key in _differing(baseline, _deterministic(rep))
    }
    check(
        "repeats_report_identical_sim_metrics",
        not drifted,
        f"differ between repeats: {sorted(drifted)[:5]}",
    )

    per_layer: Dict[str, float] = {layer.name: 0.0 for layer in metrics.PER_LAYER}
    for key in first.phases:
        per_layer[key] = statistics.median(rep.phases[key] for rep in reps)
    per_layer.update(first.counts)
    loop_s = per_layer["sim.runtime.loop_s"]
    if loop_s > 0:
        per_layer["sim.engine.events_per_s"] = (
            first.counts["sim.engine.events"] / loop_s
        )

    trace_doc = None
    if traced_wanted:
        tracer = Tracer()
        traced = workload.repeat(seed, tracer)
        layers = workloads.traced_layers(tracer)
        traced_loop_s = traced.phases["sim.runtime.loop_s"]
        layers["trace.overhead"] = traced_loop_s / loop_s - 1.0
        per_layer.update(layers)
        perturbed = _differing(baseline, _deterministic(traced))
        check(
            "tracing_does_not_perturb_the_model",
            not perturbed,
            f"traced repeat differs in: {perturbed[:5]}",
        )
        for label, (ok, detail) in traced.checks.items():
            check(f"traced.{label}", ok, detail)
        attributed = sum(tracer.self_s.values()) + tracer.unattributed_s
        check(
            "trace_self_times_sum_to_loop",
            abs(attributed - traced_loop_s) <= 0.02 * traced_loop_s,
            f"layers sum to {attributed:.4f}s, traced loop took {traced_loop_s:.4f}s",
        )
        trace_doc = tracer.as_dict()
        trace_doc["loop_s"] = traced_loop_s
        trace_doc["untraced_loop_s_median"] = loop_s

    ops_samples = [rep.attempted / rep.run_s for rep in reps]
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_samples), "samples": setup_samples},
        "ops_per_s": {"value": statistics.median(ops_samples), "samples": ops_samples},
        "peak_rss_mb": {"value": peak_rss_mb, "samples": [peak_rss_mb]},
    }
    for key, value in first.sim.items():
        end_to_end[key] = {"value": value, "samples": [value]}
    for key, entry in end_to_end.items():
        entry["unit"] = metrics.E2E_BY_NAME[key].unit
        entry["kind"] = metrics.E2E_BY_NAME[key].kind

    failed = max(rep.failed for rep in reps)
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "repeats": len(reps),
        "traced": traced_wanted,
        "correct": all(entry["ok"] for entry in checks.values()),
        "attempted": first.attempted,
        "failed": failed,
        "latency_samples": first.latency_samples,
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": {
            key: {"value": value, "unit": metrics.LAYER_BY_NAME[key].unit}
            for key, value in per_layer.items()
        },
        "trace": trace_doc,
    }


# ---------------------------------------------------------------------------
# Parent: spawn, print, compare
# ---------------------------------------------------------------------------


def hermetic_env() -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_SNAPSHOT_CACHE"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(name: str, args: argparse.Namespace) -> dict:
    """Measure one workload in a fresh subprocess; return its document."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    else:
        command += ["--repeats", str(args.repeats)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=hermetic_env(), stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {name}: child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:.6g}"


def print_workload(doc: dict, show_layers: bool) -> None:
    scale = "smoke scale" if doc["smoke"] else "benchmark scale"
    print(
        f"== {doc['workload']}  (seed {doc['seed']}, K={doc['repeats']} repeats, "
        f"{scale}, {doc['attempted']} ops per repeat) =="
    )
    print("end-to-end:")
    for spec in metrics.END_TO_END:
        entry = doc["end_to_end"][spec.name]
        samples = entry["samples"]
        note = ""
        if spec.kind == "host" and len(samples) > 1:
            note = (
                f"median of {len(samples)}, min {min(samples):.6g}, "
                f"max {max(samples):.6g}"
            )
        elif spec.name.startswith("sim_latency"):
            note = f"{doc['latency_samples']} samples"
        print(
            f"  {spec.name:<18}{entry['value']:>14.6g} {spec.unit:<8} "
            f"{spec.kind:<5}{note}"
        )
    if show_layers:
        print("per-layer:")
        for layer in metrics.PER_LAYER:
            entry = doc["per_layer"][layer.name]
            print(f"  {layer.name:<38}{_fmt(entry['value']):>14} {layer.unit}")
    bad = {label: c for label, c in doc["checks"].items() if not c["ok"]}
    if bad:
        for label, entry in bad.items():
            print(f"  CHECK FAILED {label}: {entry['detail']}")
    else:
        print(f"checks: all {len(doc['checks'])} ok ({', '.join(doc['checks'])})")


def contract_line(doc: dict, trace: bool) -> str:
    """The driver's result object: end-to-end or per-layer metrics."""
    source = doc["per_layer"] if trace else doc["end_to_end"]
    return json.dumps(
        {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {
                key: {"value": entry["value"], "unit": entry["unit"]}
                for key, entry in source.items()
            },
        }
    )


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per workload and end-to-end metric; 1 if regressed."""
    with open(path_a) as handle:
        doc_a = json.load(handle)
    with open(path_b) as handle:
        doc_b = json.load(handle)
    regressed = 0
    print(f"{'workload':<20}{'metric':<17}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'bound':>8}  verdict")
    for name in metrics.WORKLOADS:
        a, b = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if a is None or b is None:
            print(f"{name:<20}missing from {'A' if a is None else 'B'}")
            continue
        for spec in metrics.END_TO_END:
            ea, eb = a["end_to_end"][spec.name], b["end_to_end"][spec.name]
            va, vb = ea["value"], eb["value"]
            sign = 1.0 if spec.better == "lower" else -1.0
            worse = sign * (vb - va) / abs(va)
            spread = max(
                metrics.quartile_spread(ea["samples"]),
                metrics.quartile_spread(eb["samples"]),
            )
            verdict = "regressed" if worse > spec.bound else "ok"
            if spread > spec.bound:
                # Too noisy to call, unless every B reads better than every A.
                best_a = min(sign * v for v in ea["samples"])
                worst_b = max(sign * v for v in eb["samples"])
                verdict = "ok" if worst_b < best_a else "unresolved"
            regressed += verdict == "regressed"
            print(f"{name:<20}{spec.name:<17}{va:>12.6g}{vb:>12.6g}{worse:>+10.2%}"
                  f"{spec.bound:>8.1%}  {verdict}")
        exact = [s.name for s in metrics.END_TO_END if s.kind == "sim"]
        differing = [k for k in exact
                     if a["end_to_end"][k]["value"] != b["end_to_end"][k]["value"]]
        differing += [
            layer.name for layer in metrics.PER_LAYER
            if layer.kind == "count" and layer.name != "sim.engine.events_per_s"
            and a["per_layer"][layer.name]["value"] != b["per_layer"][layer.name]["value"]
        ]
        state = "identical" if not differing else "DIFFER: " + ", ".join(differing)
        print(f"{name:<20}sim metrics and counts {state}")
    return 1 if regressed else 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS,
                        help="run one workload and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long instead of --repeats")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced repeat (per-layer split)")
    parser.add_argument("--smoke", action="store_true",
                        help="N=256, one repeat (the tier-1 smoke test's scale)")
    parser.add_argument("--out", help="write every workload's document here")
    parser.add_argument("--trace-out",
                        help="where traces go (default trace.json without --workload)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.repeats, args.seconds = 1, None
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"error: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(SRC))
        doc = measure(
            args.workload, args.seed,
            None if args.seconds is not None else args.repeats,
            args.seconds, bool(args.trace), args.smoke,
        )
        print(json.dumps(doc))
        return 0

    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    docs = {}
    for name in names:
        docs[name] = spawn(name, args)
        print_workload(docs[name], show_layers=bool(args.trace))
    trace_out = args.trace_out or (None if args.workload else "trace.json")
    traces = {name: doc.pop("trace") for name, doc in docs.items()}
    if args.trace and trace_out:
        with open(trace_out, "w") as handle:
            json.dump({k: v for k, v in traces.items() if v}, handle)
        print(f"traces written to {trace_out}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "schema": OUT_SCHEMA,
                    "seed": args.seed,
                    "smoke": args.smoke,
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "workloads": docs,
                },
                handle, indent=1,
            )
    failed = [
        f"{name}: {label}"
        for name, doc in docs.items()
        for label, entry in doc["checks"].items()
        if not entry["ok"]
    ]
    if args.workload:
        print(contract_line(docs[args.workload], bool(args.trace)))
    elif not failed:
        print(f"all checks passed on {len(docs)} workload(s)")
    if failed:
        print("failed checks: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
