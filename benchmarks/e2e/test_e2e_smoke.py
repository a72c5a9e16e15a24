"""Tier-1 smoke test of the end-to-end benchmark.

Runs ``run.py --smoke --trace`` (N=256, one repeat plus one traced repeat
per async workload, a couple of seconds in all) and pins what the runner
prints to what ``BENCHMARK.json`` declares, so the two cannot drift apart.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load_metrics():
    spec = importlib.util.spec_from_file_location("e2e_metrics", HERE / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e_smoke")
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
            "--out", str(out_dir / "out.json"),
            "--trace-out", str(out_dir / "trace.json"),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return (
        done.stdout,
        json.loads((out_dir / "out.json").read_text()),
        json.loads((out_dir / "trace.json").read_text()),
    )


def test_declared_names_are_well_formed_and_within_limits(declared):
    groups = {
        "workloads": 8,
        "end_to_end": 16,
        "per_layer": 128,
    }
    for group, limit in groups.items():
        names = [entry["name"] for entry in declared[group]]
        assert 1 <= len(names) <= limit
        assert len(set(names)) == len(names)
        assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert declared["paths"] == ["benchmarks/e2e"]


def test_printed_metrics_equal_declared_metrics(declared, smoke):
    stdout, out, _ = smoke
    want_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    want_layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(out["workloads"]) == {w["name"] for w in declared["workloads"]}
    for name, doc in out["workloads"].items():
        got_e2e = {k: v["unit"] for k, v in doc["end_to_end"].items()}
        got_layers = {k: v["unit"] for k, v in doc["per_layer"].items()}
        assert got_e2e == want_e2e, name
        assert got_layers == want_layers, name
        assert f"== {name} " in stdout
    printed = set(re.findall(r"^  ([A-Za-z0-9_.-]+) ", stdout, flags=re.M))
    assert printed == set(want_e2e) | set(want_layers)


def test_correctness_gate_passes_at_smoke_scale(smoke):
    _, out, _ = smoke
    for name, doc in out["workloads"].items():
        failed = [label for label, c in doc["checks"].items() if not c["ok"]]
        assert doc["correct"] and not failed, (name, failed)
        assert doc["attempted"] >= 1 and doc["failed"] == 0
        assert all(v["value"] != 0 for v in doc["end_to_end"].values()), name


def test_traced_repeat_attributes_the_loop(smoke):
    _, out, traces = smoke
    metrics = _load_metrics()
    assert set(traces) == set(metrics.ASYNC_WORKLOADS)
    for name, trace in traces.items():
        assert trace["spans"] and trace["self_s"], name
        attributed = sum(trace["self_s"].values()) + trace["unattributed_s"]
        assert attributed == pytest.approx(trace["loop_s"], rel=0.02)
        checks = out["workloads"][name]["checks"]
        assert checks["tracing_does_not_perturb_the_model"]["ok"]


def test_benchmark_json_agrees_with_metrics_module(declared):
    metrics = _load_metrics()
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
