"""Benchmark entry point: repeat one workload's job for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload learn-cont --seed 1 --seconds 25 --trace 0

Jobs run one at a time, each in a fresh process (see job.py) with BLAS and
OpenMP pinned to one thread.  Jobs start until ``--seconds`` have passed.
With ``--trace 0`` the result holds the medians of the end-to-end metrics
over the jobs.  ``run_s`` and ``setup_s`` are wall times rescaled to a
machine on which the calibration kernel of job.py takes
``REFERENCE_CALIBRATION_S``: each job's wall time is multiplied by
``REFERENCE_CALIBRATION_S / calibration_s`` of that same job.  On a shared
machine whose speed drifts by a third within a minute, this keeps the
medians of separate runs within a few percent of each other; a change to
the program moves them in full, since the kernel does not call it.

With ``--trace 1`` untraced and traced jobs alternate, and the result holds
the per-layer metrics of the traced jobs plus the tracing overhead.  Spans
that a workload never enters read zero.

A job fails when the command exits non-zero or its artifacts fail the
correctness gate.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from job import ROOT, SOURCE, TAMPER_KINDS, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 165.0

# About the calibration kernel's time on a 2-vCPU Intel Xeon virtual machine
# of a shared host, in its quieter minutes.
REFERENCE_CALIBRATION_S = 0.15

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# (name, unit, better)
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("search.optimize_variable.s", "s", "lower"),
    ("search.optimize_variable.calls", "count", "lower"),
    ("search.optimize_variable.noop_ratio", "ratio", "lower"),
    ("search.optimize_variable.candidates", "count", "lower"),
    ("search.edge_scan.s", "s", "lower"),
    ("search.edge_scan.families", "count", "lower"),
    ("search.rounds", "count", "lower"),
    ("search.hill_climb_structure.self_s", "s", "lower"),
    ("search.affected_set.s", "s", "lower"),
    ("search.affected_set.calls", "count", "lower"),
    ("graph.has_path.s", "s", "lower"),
    ("graph.has_path.calls", "count", "lower"),
    ("graph.d_separated.s", "s", "lower"),
    ("graph.d_separated.calls", "count", "lower"),
    ("search.coordinate_ascent.self_s", "s", "lower"),
    ("search.coordinate_ascent.calls", "count", "lower"),
    ("scoring.local_score.s", "s", "lower"),
    ("scoring.local_score.calls", "count", "lower"),
    ("scoring.network_score.s", "s", "lower"),
    ("scoring.network_score.calls", "count", "lower"),
    ("dataset.load_dataset.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("machine.calibration_s", "s", "lower"),
    ("result.score_per_case", "nats", "higher"),
    ("result.shd", "count", "lower"),
)


def layer_values(record: dict) -> dict:
    """Per-layer metrics of one traced job."""
    spans = record["spans"]

    def get(span: str, key: str):
        return spans.get(span, {}).get(key, 0)

    solves = get("search.optimize_variable", "calls")
    values = {
        "search.optimize_variable.s": get("search.optimize_variable", "s"),
        "search.optimize_variable.calls": solves,
        "search.optimize_variable.noop_ratio": (
            record["noop_solves"] / solves if solves else 0.0
        ),
        "search.optimize_variable.candidates": record["candidates"],
        "search.edge_scan.s": (
            get("search.edge_scan.counts", "s") + get("search.edge_scan.score", "s")
        ),
        "search.edge_scan.families": get("search.edge_scan.score", "calls"),
        "search.rounds": get("search.round", "calls"),
        "search.hill_climb_structure.self_s": get("search.hill_climb_structure", "self_s"),
        "search.coordinate_ascent.self_s": get("search.coordinate_ascent", "self_s"),
        "search.coordinate_ascent.calls": get("search.coordinate_ascent", "calls"),
        "dataset.load_dataset.s": get("dataset.load_dataset", "s"),
        "cli.self_s": get("cli.main", "self_s"),
        "machine.calibration_s": record["calibration_s"],
    }
    for span in (
        "search.affected_set",
        "graph.has_path",
        "graph.d_separated",
        "scoring.local_score",
        "scoring.network_score",
    ):
        values[f"{span}.s"] = get(span, "s")
        values[f"{span}.calls"] = get(span, "calls")
    if "score_per_case" in record:
        values["result.score_per_case"] = record["score_per_case"]
        values["result.shd"] = record["shd"]
    return values


def job_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(
    workload: str,
    seed: int,
    traced: bool,
    workdir: Path,
    timeout: float,
    data_seed: int | None = None,
    smoke: bool = False,
    record: bool = False,
    tamper: str | None = None,
) -> dict:
    """Run one job process and return its record, or a failure record."""
    cmd = [
        sys.executable, str(HERE / "job.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--workdir", str(workdir),
    ]
    if data_seed is not None:
        cmd += ["--data-seed", str(data_seed)]
    if smoke:
        cmd.append("--smoke")
    if record:
        cmd.append("--record")
    if tamper is not None:
        cmd += ["--tamper", tamper]
    env = job_env()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"job exceeded {timeout:.0f} s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {
            "traced": traced,
            "failures": [f"job process exited with {proc.returncode}: {tail[0]}"],
        }
    return json.loads(lines[-1])


def rescaled(record: dict, key: str) -> float:
    """A wall time of one job at the reference machine speed."""
    return record[key] * REFERENCE_CALIBRATION_S / record["calibration_s"]


def median_rescaled(records: list[dict], key: str) -> float:
    return statistics.median(rescaled(r, key) for r in records)


def summarize(records: list[dict], trace: bool) -> dict:
    timed = [r for r in records if "run_wall_s" in r]
    if not trace:
        values = {
            "run_s": median_rescaled(timed, "run_wall_s"),
            "setup_s": median_rescaled(timed, "setup_wall_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        return {
            name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END
        }
    traced = [r for r in timed if r["traced"]]
    untraced = [r for r in timed if not r["traced"]]
    per_job = [layer_values(r) for r in traced]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = median_rescaled(traced, "run_wall_s") - median_rescaled(
                untraced, "run_wall_s"
            )
        else:
            present = [v[name] for v in per_job if name in v]
            if not present:
                continue
            # Counts repeat exactly from job to job; keep them whole.
            pick = statistics.median_low if unit == "count" else statistics.median
            value = pick(present)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="row permutation seed of the input")
    parser.add_argument("--seconds", type=float, required=True,
                        help="jobs start until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="mechanism and sample seed (default: the workload's)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny N, for the smoke test")
    parser.add_argument("--tamper", choices=TAMPER_KINDS, default=None,
                        help="corrupt one artifact in every job (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "mixedbn" / "__init__.py").is_file():
        print(f"error: no mixedbn package under {SOURCE}", file=sys.stderr)
        return 2
    run_dir = WORK_ROOT / f"run-{os.getpid()}"
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    records: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            job_start = time.monotonic()
            record = run_job(
                args.workload, args.seed, traced,
                run_dir / f"job{len(records)}", deadline - job_start,
                data_seed=args.data_seed, smoke=args.smoke, tamper=args.tamper,
            )
            records.append(record)
            now = time.monotonic()
            last_job_s = now - job_start
            print(
                f"job {len(records)}: traced={int(traced)} "
                f"run_wall_s={record.get('run_wall_s', float('nan')):.4f} "
                f"calibration_s={record.get('calibration_s', float('nan')):.4f} "
                f"failures={record['failures']}",
                file=sys.stderr,
            )
            enough = now - start >= args.seconds and (
                not args.trace or len(records) >= 2
            )
            if enough or now + last_job_s >= deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if not any("run_wall_s" in r for r in records):
        print("error: no job produced a measurement", file=sys.stderr)
        return 1
    if args.trace and not (
        any(r.get("traced") and "run_wall_s" in r for r in records)
        and any(not r.get("traced") and "run_wall_s" in r for r in records)
    ):
        print("error: the traced run needs a traced and an untraced job", file=sys.stderr)
        return 1
    failed = sum(1 for r in records if r["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": summarize(records, bool(args.trace)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
