"""Smoke test of the benchmark itself, at each workload's tiny N.

    python3 -m pytest perfbench

Checks that every workload passes its gate, that a tampered artifact counts
as a failed job, that BENCHMARK.json names exactly what run.py reports, and
that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import job
import run

ROOT = job.ROOT


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(job.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in job.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(job.WORKLOADS))
def test_workload_passes_untraced_and_traced(workload):
    plain = result("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", "0", "--smoke")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 1
    assert list(plain["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = result("--workload", workload, "--seed", "4", "--seconds", "0",
                    "--trace", "1", "--smoke")
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] == 2
    assert list(traced["metrics"]) == [name for name, _, _ in run.PER_LAYER]
    assert traced["metrics"]["search.optimize_variable.calls"]["value"] > 0


@pytest.mark.parametrize(
    "workload, kind",
    [("learn-cont", kind) for kind in job.TAMPER_KINDS]
    + [("discretize-ess", kind) for kind in ("exit", "policy", "manifest")],
)
def test_tampered_artifact_counts_as_failure(workload, kind):
    out = result("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--smoke", "--tamper", kind)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] == 1


def test_gate_names_each_failure():
    w = job.WORKLOADS["learn-cont"]
    good = {
        "structure_sha256": "s", "policy_sha256": "p", "total_score": 10.0,
        "trace_totals": [8.0, 9.0, 10.0],
    }
    reference = {"structure_sha256": "s", "policy_sha256": "p", "total_score": 10.0}
    assert job.gate(w, good, reference) == []
    assert job.gate(w, {**good, "trace_totals": [9.0, 8.0, 10.0]}, reference) == [
        "trace totals decrease"
    ]
    assert job.gate(w, {**good, "trace_totals": [8.0, 9.0]}, reference) == [
        "last trace total disagrees with the manifest total_score"
    ]
    assert job.gate(w, {**good, "policy_sha256": "q"}, reference) == [
        "policy JSON differs from the reference"
    ]


def test_shd_counts_a_reversed_edge_once():
    truth = {("a", "b"), ("b", "c")}
    assert job.shd(truth, truth) == 0
    assert job.shd({("b", "a"), ("b", "c")}, truth) == 1
    assert job.shd({("a", "c")}, truth) == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "learn-cont", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
