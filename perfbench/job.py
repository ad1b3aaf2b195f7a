"""One benchmark job, run in a fresh process.

Set-up covers the interpreter start, the imports, ``mixedbn simulate`` and
the input transform.  It is timed from ``--t0``, the parent's monotonic
clock just before it started this process.  The measured command is one
in-process ``mixedbn.cli.main`` call on the prepared CSV.  A fixed
calibration kernel is timed just before and just after it, so that run.py
can rescale both times to a reference machine speed.  The artifacts then go
through the correctness gate, and one JSON record is printed as the last
line of standard output.

``--seed`` permutes the data rows.  The learned structure, policies and
score do not depend on row order, so one reference per workload, size and
data seed holds for every ``--seed``.  ``--data-seed`` selects the sampled
mechanism and data; each workload has a default and a held-out value.

Usage (run.py spawns it; by hand from the root of a checkout):
    python3 perfbench/job.py --workload learn-cont --seed 3 --workdir .perfbench_work/x
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    why: str
    random: str  # simulate --random <variables>,<arity>,<max_parents>
    n: int
    smoke_n: int
    data_seed: int
    held_out_seed: int
    command: str  # learn or discretize
    flags: tuple[str, ...]
    mixed: bool = False


WORKLOADS = {
    "learn-cont": Workload(
        why=(
            "K2 learn on 6 continuous columns with a Poisson prior: bound by "
            "the exact cut DP; most solves return the policy they were given"
        ),
        random="6,3,2",
        n=300,
        smoke_n=60,
        data_seed=1,
        held_out_seed=2,
        command="learn",
        flags=("--policy-prior", "poisson:2"),
    ),
    "learn-mixed-wide": Workload(
        why=(
            "30 columns, half discrete, half continuous with at most 10 cuts: "
            "bound by the edge scan; a change to the DP alone shows no gain here"
        ),
        random="30,3,2",
        n=2500,
        smoke_n=200,
        data_seed=4,
        held_out_seed=5,
        command="learn",
        flags=("--density", "multinomial"),
        mixed=True,
    ),
    "discretize-ess": Workload(
        why=(
            "BDeu discretize of 3 columns: the DP rebuilds a dense cost matrix "
            "per interval count, so it is bound by memory and that rebuild"
        ),
        random="3,3,2",
        n=600,
        smoke_n=60,
        data_seed=1,
        held_out_seed=2,
        command="discretize",
        flags=("--ess", "1"),
    ),
}

TAMPER_KINDS = ("exit", "structure", "policy", "trace", "manifest")


def reference_key(workload: str, n: int, data_seed: int) -> str:
    return f"{workload}/n={n}/data_seed={data_seed}"


def _read_rows(path: Path) -> tuple[str, list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


def _mixed_rows(sim: Path, arity: int) -> tuple[str, list[str], list[dict]]:
    """Even-numbered columns become their latent codes, declared discrete;
    the others are rounded to one decimal within declared bounds [0, 1]."""
    header, rows = _read_rows(sim.with_suffix(".csv"))
    _, latent = _read_rows(sim.with_suffix(".latent.csv"))
    names = header.split(",")
    schema = []
    for i, name in enumerate(names):
        if (i + 1) % 2 == 0:
            schema.append({"name": name, "kind": "discrete", "arity": arity})
        else:
            schema.append({"name": name, "kind": "continuous", "bounds": [0.0, 1.0]})
    mixed = []
    for row, codes in zip(rows, latent):
        cells = row.split(",")
        code_cells = codes.split(",")
        mixed.append(",".join(
            code_cells[i] if (i + 1) % 2 == 0 else repr(round(float(cells[i]), 1))
            for i in range(len(names))
        ))
    return header, mixed, schema


def prepare(cli, w: Workload, n: int, data_seed: int, seed: int, workdir: Path) -> list[str]:
    """Write the workload's input under ``workdir``; return the measured argv."""
    sim = workdir / "sim"
    rc = cli.main([
        "simulate", "--random", w.random, "--seed", str(data_seed),
        "--n", str(n), "--out", str(sim),
    ])
    if rc != 0:
        raise RuntimeError(f"simulate exited with {rc}")
    data = workdir / "input.csv"
    argv = [w.command, "--data", str(data)]
    if w.mixed:
        arity = int(w.random.split(",")[1])
        header, rows, schema = _mixed_rows(sim, arity)
        schema_path = workdir / "input.schema.json"
        schema_path.write_text(json.dumps(schema), encoding="utf-8")
        argv += ["--schema", str(schema_path)]
    else:
        header, rows = _read_rows(sim.with_suffix(".csv"))
    random.Random(seed).shuffle(rows)
    data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = workdir / ("fit" if w.command == "learn" else "fit.json")
    return argv + list(w.flags) + ["--out", str(out)]


def artifacts(w: Workload, workdir: Path) -> dict[str, Path]:
    paths = {
        "policy": workdir / ("fit.policy.json" if w.command == "learn" else "fit.json"),
        "manifest": workdir / "fit.manifest.json",
    }
    if w.command == "learn":
        paths["structure"] = workdir / "fit.structure.json"
        paths["trace"] = workdir / "fit.trace.jsonl"
    return paths


def tamper(kind: str, w: Workload, workdir: Path) -> None:
    """Corrupt one artifact, so the smoke test can see the gate catch it."""
    paths = artifacts(w, workdir)

    def edit_json(path: Path, change) -> None:
        obj = json.loads(path.read_text(encoding="utf-8"))
        change(obj)
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if kind == "structure":
        edit_json(paths["structure"], lambda s: s["edges"].pop())
    elif kind == "policy":
        def nudge(p):
            first = next(v for v in p["variables"].values() if v["thresholds"])
            first["thresholds"][0] += 1e-9
        edit_json(paths["policy"], nudge)
    elif kind == "trace":
        # The first total rises above the last, which still matches the
        # manifest, so only the nondecreasing check can catch it.
        lines = paths["trace"].read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        totals = [r for r in records if "total" in r]
        totals[0]["total"] = totals[-1]["total"] + 1.0
        paths["trace"].write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n",
            encoding="utf-8",
        )
    elif kind == "manifest":
        edit_json(paths["manifest"], lambda m: m.update(total_score=m["total_score"] + 1.0))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outputs(w: Workload, workdir: Path) -> dict:
    """Digests, score and structure of the artifacts the command wrote."""
    paths = artifacts(w, workdir)
    manifest = json.loads(paths["manifest"].read_text(encoding="utf-8"))
    out = {
        "policy_sha256": _sha256(paths["policy"]),
        "structure_sha256": None,
        "total_score": float(manifest["total_score"]),
        "n_cases": int(manifest["n_cases"]),
        "edges": [],
        "trace_totals": [],
    }
    if w.command == "learn":
        out["structure_sha256"] = _sha256(paths["structure"])
        structure = json.loads(paths["structure"].read_text(encoding="utf-8"))
        out["edges"] = [tuple(e) for e in structure["edges"]]
        for line in paths["trace"].read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "total" in record:
                out["trace_totals"].append(float(record["total"]))
    return out


def score_tolerance(total: float) -> float:
    return 1e-6 * max(1.0, abs(total))


def gate(w: Workload, out: dict, reference: dict | None) -> list[str]:
    """Reasons the job failed the correctness gate; empty when it passed."""
    failures = []
    total = out["total_score"]
    tol = score_tolerance(total)
    if w.command == "learn":
        totals = out["trace_totals"]
        if any(b < a for a, b in zip(totals, totals[1:])):
            failures.append("trace totals decrease")
        if not totals or abs(totals[-1] - total) > tol:
            failures.append("last trace total disagrees with the manifest total_score")
    if reference is not None:
        for key in ("structure_sha256", "policy_sha256"):
            if out[key] != reference[key]:
                failures.append(f"{key.split('_')[0]} JSON differs from the reference")
        if abs(reference["total_score"] - total) > tol:
            failures.append("total_score differs from the reference")
    return failures


def true_edges(workdir: Path) -> set[tuple[str, str]]:
    mechanism = json.loads((workdir / "sim.mechanism.json").read_text(encoding="utf-8"))
    names = [v["name"] for v in mechanism["variables"]]
    return {
        (names[p], v["name"]) for v in mechanism["variables"] for p in v["parents"]
    }


def shd(learned: set[tuple[str, str]], truth: set[tuple[str, str]]) -> int:
    """Structural Hamming distance: a reversed edge counts once."""
    pairs = {frozenset(e) for e in learned} | {frozenset(e) for e in truth}
    distance = 0
    for pair in pairs:
        a, b = sorted(pair)
        if ((a, b) in learned, (b, a) in learned) != ((a, b) in truth, (b, a) in truth):
            distance += 1
    return distance


def calibration_s() -> float:
    """Time of a fixed kernel that does the kinds of work mixedbn does.

    The kernel walks a small graph in pure Python, makes many small
    counting calls into numpy, and gathers a lookup table into a dense
    matrix, about a third of its time each.  It does not call mixedbn, so a
    change to the program leaves it unchanged, while the speed of a shared
    machine at that moment moves it and the measured command alike.
    """
    import numpy as np
    from scipy.special import gammaln

    rng = np.random.default_rng(0)
    codes = rng.integers(0, 3, size=(2500, 3))
    cells = rng.integers(0, 600, size=(600, 600))
    lut = gammaln(1.0 + np.arange(600))
    children = [[(7 * v + k) % 300 for k in (1, 2, 5)] for v in range(300)]
    start = time.perf_counter()
    for walk in range(500):
        source = walk % 300
        stack, seen = [source], {source}
        while stack:
            for c in children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
    for _ in range(2500):
        parents = np.ravel_multi_index((codes[:, 0], codes[:, 1]), (3, 3))
        np.bincount(parents * 3 + codes[:, 2], minlength=27)
    acc = np.zeros(cells.shape)
    for _ in range(64):
        acc += lut[cells]
    return time.perf_counter() - start


def load_reference(key: str) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(key)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="row permutation seed")
    parser.add_argument("--data-seed", type=int, default=None,
                        help="mechanism and sample seed (default: the workload's)")
    parser.add_argument("--smoke", action="store_true", help="use the workload's tiny N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's time.monotonic() just before spawning this job")
    parser.add_argument("--record", action="store_true",
                        help="skip the reference comparison (used to record references)")
    parser.add_argument("--tamper", choices=TAMPER_KINDS, default=None,
                        help="corrupt one artifact before the gate (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t0 = time.monotonic()
    args = parse_args(argv)
    if args.t0 is not None:
        t0 = args.t0
    if not (SOURCE / "mixedbn" / "__init__.py").is_file():
        print(f"error: no mixedbn package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from mixedbn import cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        print(f"error: imported mixedbn from {cli.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    n = w.smoke_n if args.smoke else w.n
    data_seed = w.data_seed if args.data_seed is None else args.data_seed
    key = reference_key(args.workload, n, data_seed)
    reference = None
    if not args.record:
        reference = load_reference(key)
        if reference is None:
            print(f"error: no reference recorded for {key}", file=sys.stderr)
            return 2

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    argv_run = prepare(cli, w, n, data_seed, args.seed, workdir)
    if args.tamper == "exit":
        (workdir / "input.csv").unlink()

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    setup_wall_s = time.monotonic() - t0
    calibration_before = calibration_s()
    start = time.perf_counter()
    rc = cli.main(argv_run)
    run_wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_after = calibration_s()

    record = {
        "workload": args.workload,
        "key": key,
        "traced": bool(args.trace),
        "exit_code": rc,
        "run_wall_s": run_wall_s,
        "setup_wall_s": setup_wall_s,
        "calibration_s": (calibration_before + calibration_after) / 2,
        "peak_rss_mb": peak_rss_mb,
    }
    if rc != 0:
        record["failures"] = [f"exit code {rc}"]
    else:
        if args.tamper is not None:
            tamper(args.tamper, w, workdir)
        out = outputs(w, workdir)
        record["failures"] = gate(w, out, reference)
        learned = set(out["edges"])
        record.update(
            structure_sha256=out["structure_sha256"],
            policy_sha256=out["policy_sha256"],
            total_score=out["total_score"],
            score_per_case=out["total_score"] / out["n_cases"],
            shd=shd(learned, true_edges(workdir)),
        )
    if tracer is not None:
        record["spans"] = tracer.spans
        record["noop_solves"] = tracer.noop_solves
        record["candidates"] = tracer.candidates
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
