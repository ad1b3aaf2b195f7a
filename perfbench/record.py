"""Record the reference outputs the correctness gate compares against.

Run from the root of a checkout:

    python3 perfbench/record.py

For every workload, at its full and smoke sizes and for its default and
held-out data seeds, a job runs on two row orders of the same input.  Both
must write the same structure and policy and the same total score; their
digests and score go to perfbench/reference.json.  Re-record only in a
change that redefines the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import json
import sys

from job import REFERENCE_FILE, WORKLOADS, reference_key, score_tolerance
from run import WORK_ROOT, run_job

ROW_ORDERS = (0, 1)
TIMEOUT_S = 900.0


def record_one(name: str, smoke: bool, data_seed: int) -> dict:
    results = []
    for seed in ROW_ORDERS:
        rec = run_job(
            name, seed, False, WORK_ROOT / "record", TIMEOUT_S,
            data_seed=data_seed, smoke=smoke, record=True,
        )
        if rec["failures"]:
            raise SystemExit(f"{name} data_seed={data_seed}: {rec['failures']}")
        results.append(rec)
    first, second = results
    for key in ("structure_sha256", "policy_sha256"):
        if first[key] != second[key]:
            raise SystemExit(f"{name} data_seed={data_seed}: {key} depends on row order")
    if abs(first["total_score"] - second["total_score"]) > score_tolerance(
        first["total_score"]
    ):
        raise SystemExit(f"{name} data_seed={data_seed}: total_score depends on row order")
    return {
        "structure_sha256": first["structure_sha256"],
        "policy_sha256": first["policy_sha256"],
        "total_score": first["total_score"],
        "shd": first["shd"],
    }


def main() -> int:
    references = {}
    for name, w in WORKLOADS.items():
        for smoke in (False, True):
            n = w.smoke_n if smoke else w.n
            for data_seed in (w.data_seed, w.held_out_seed):
                key = reference_key(name, n, data_seed)
                references[key] = record_one(name, smoke, data_seed)
                print(key, json.dumps(references[key]), file=sys.stderr)
    WORK_ROOT.rmdir()
    REFERENCE_FILE.write_text(
        json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
