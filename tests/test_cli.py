import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedbn import (
    InternalError,
    PriorSpec,
    SearchConfig,
    coordinate_ascent,
    initial_policy,
    load_dataset,
    load_mechanism,
    network_score,
    optimize_variable,
    scoring,
)
from mixedbn.cli import build_parser, load_structure, main, structure_to_obj
from mixedbn.dataset import load_schema, policy_from_obj, policy_to_obj
from mixedbn.graph import empty_structure
from mixedbn.search import _SearchState

SOURCE = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    return main(list(args))


def strict_json(constant):
    raise ValueError(f"{constant} is not JSON")


def simulate(tmp_path, name="sim", n=40, seed=5, random="3,2,2"):
    prefix = tmp_path / name
    rc = run_cli(
        "simulate", "--random", random, "--n", str(n),
        "--seed", str(seed), "--out", str(prefix),
    )
    assert rc == 0
    return prefix


class TestParser:
    def test_requires_command(self):
        assert run_cli() == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_unknown_flag(self):
        assert run_cli("simulate", "--bogus", "1") == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0
        assert run_cli("learn", "--help") == 0

    def test_prog_name(self):
        assert build_parser().prog == "mixedbn"


class TestSimulate:
    def test_outputs_exist_and_parse(self, tmp_path):
        prefix = simulate(tmp_path)
        data = load_dataset(str(prefix) + ".csv")
        assert data.n_cases == 40
        latent = (tmp_path / "sim.latent.csv").read_text().strip().split("\n")
        assert len(latent) == 41
        schema = json.loads((tmp_path / "sim.schema.json").read_text())
        assert [v["name"] for v in schema] == ["x1", "x2", "x3"]
        mechanism = json.loads((tmp_path / "sim.mechanism.json").read_text())
        assert mechanism["schema_version"] == 1
        manifest = json.loads((tmp_path / "sim.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5

    def test_zero_cases_is_user_error(self, tmp_path):
        rc = run_cli(
            "simulate", "--random", "2,2,1", "--n", "0",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2

    def test_negative_seed_is_user_error(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--random", "3,2,1", "--seed", "-1", "--n", "5",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "error: mechanism seed must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_mechanism_seed_is_a_data_error(self, tmp_path, capsys):
        simulate(tmp_path)
        path = tmp_path / "negative.json"
        mechanism = json.loads((tmp_path / "sim.mechanism.json").read_text())
        path.write_text(json.dumps({**mechanism, "seed": -3}))
        rc = run_cli(
            "simulate", "--mechanism", str(path), "--n", "5",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "error: mechanism seed must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_malformed_random_spec(self, tmp_path):
        rc = run_cli(
            "simulate", "--random", "3;2;2", "--n", "5",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2

    def test_mechanism_file_round_trip(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "simulate", "--mechanism", str(prefix) + ".mechanism.json",
            "--n", "40", "--seed", "5", "--out", str(tmp_path / "again"),
        )
        assert rc == 0
        first = (tmp_path / "sim.csv").read_bytes()
        second = (tmp_path / "again.csv").read_bytes()
        assert first == second

    def test_deterministic_artifacts(self, tmp_path):
        simulate(tmp_path, name="a")
        simulate(tmp_path, name="b")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (
            (tmp_path / "a.mechanism.json").read_bytes()
            == (tmp_path / "b.mechanism.json").read_bytes()
        )

    def test_data_round_trips_through_repr(self, tmp_path):
        prefix = simulate(tmp_path)
        data = load_dataset(str(prefix) + ".csv")
        latent_lines = (tmp_path / "sim.latent.csv").read_text().strip().split("\n")
        codes = np.array(
            [[int(c) for c in line.split(",")] for line in latent_lines[1:]]
        )
        mechanism = json.loads((tmp_path / "sim.mechanism.json").read_text())
        for i, var in enumerate(mechanism["variables"]):
            thresholds = var["thresholds"]
            lo, hi = var["bounds"]
            from mixedbn import DiscretizationPolicy, apply_policy

            policy = DiscretizationPolicy(
                thresholds=tuple(thresholds), lower=lo, upper=hi
            )
            assert np.array_equal(
                apply_policy(data.column(i), policy), codes[:, i]
            )


class TestDiscretize:
    def test_happy_path(self, tmp_path):
        prefix = simulate(tmp_path)
        out = tmp_path / "fit.json"
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--schema", str(prefix) + ".schema.json", "--out", str(out),
        )
        assert rc == 0
        policy = json.loads(out.read_text())
        assert policy["schema_version"] == 1
        assert set(policy["variables"]) == {"x1", "x2", "x3"}
        codes_csv = (tmp_path / "fit.data.csv").read_text().strip().split("\n")
        assert codes_csv[0] == "x1,x2,x3"
        assert len(codes_csv) == 41
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        assert manifest["command"] == "discretize"
        assert manifest["search"]["epsilon"] == 1e-6
        assert manifest["search"]["init"] == {"kind": "eqfreq", "r0": 3}
        assert manifest["prior"]["dirichlet_mode"] == "k2"
        assert "total_score" in manifest
        scale = max(1.0, abs(manifest["total_score"]))
        assert abs(manifest["score_drift"]) <= 1e-6 * scale

    def test_codes_csv_loads_back_under_quoted_names(self, tmp_path):
        # Names holding a comma or a double quote are quoted in the codes'
        # header, as in the data's, so the file loads back with its names.
        rng = np.random.default_rng(3)
        rows = np.c_[rng.normal(size=(30, 2)), rng.integers(0, 2, 30)]
        data = tmp_path / "quoted.csv"
        data.write_text(
            '"a,b","q""uote",c\n'
            + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)
        )
        names = ["a,b", 'q"uote', "c"]
        assert list(load_dataset(data).names) == names
        rc = run_cli("discretize", "--data", str(data), "--out", str(tmp_path / "fit"))
        assert rc == 0
        written = tmp_path / "fit.data.csv"
        assert written.read_text().splitlines()[0] == '"a,b","q""uote",c'
        codes = load_dataset(written)
        assert list(codes.names) == names
        assert codes.n_cases == 30

    @pytest.mark.parametrize("flag", ["--seed", "--max-parents"])
    def test_edge_scan_flags_are_learn_only(self, tmp_path, capsys, flag):
        # discretize scans no edges, so neither flag could change its result.
        prefix = simulate(tmp_path)
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv", flag, "1",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit*"))

    def test_missing_data_file(self, tmp_path):
        rc = run_cli(
            "discretize", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "p.json"),
        )
        assert rc == 2

    def test_flag_conflict(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--alpha", "2", "--ess", "4", "--out", str(tmp_path / "p.json"),
        )
        assert rc == 2

    def test_bad_policy_prior(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--policy-prior", "zipf", "--out", str(tmp_path / "p.json"),
        )
        assert rc == 2

    def test_bad_init(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--init", "kmeans:3", "--out", str(tmp_path / "p.json"),
        )
        assert rc == 2

    def test_poisson_prior_accepted(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--policy-prior", "poisson:3.5", "--out", str(tmp_path / "p.json"),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["prior"]["policy_prior"] == "poisson"
        assert manifest["prior"]["poisson_rate"] == 3.5

    def test_manifest_stats(self, tmp_path):
        prefix = simulate(tmp_path, n=60, random="4,2,2")
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--out", str(tmp_path / "p.json"),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        stats = manifest["stats"]
        assert set(stats) == {
            "best_edit_delta", "edits_scanned", "families_computed", "solves",
            "solve_hits", "noop_solves", "candidates", "holds_refused", "solve_s",
            "scan_s",
        }
        # The ascent runs under a fixed structure: no edge scan at all.
        assert stats["best_edit_delta"] is None
        assert stats["edits_scanned"] == 0 and stats["scan_s"] == 0.0
        assert stats["solve_s"] > 0.0
        # Each of the 4 continuous columns is solved at least once, and the
        # confirming sweep reads its unchanged solve keys from the memo.
        assert stats["solves"] >= 4 and stats["solve_hits"] >= 4
        assert stats["families_computed"] > 0
        assert 0 <= stats["noop_solves"] <= stats["solves"]
        # The one held budget turns nothing away on this small input.
        assert stats["holds_refused"] == 0
        ds = load_dataset(str(prefix) + ".csv")
        m = [len(ds.candidate_thresholds(i)) for i in ds.continuous_indices()]
        # Each column is solved once: no edge joins two of them.
        assert stats["solves"] == 4 and stats["candidates"] == sum(m)
        for name in ("p.json", "p.data.csv"):
            text = (tmp_path / name).read_text()
            assert "stats" not in text and "solve_hits" not in text

    @staticmethod
    def true_structure(tmp_path, prefix):
        """The sampled mechanism's structure, written as a structure JSON."""
        mechanism = load_mechanism(str(prefix) + ".mechanism.json")
        path = tmp_path / "true.structure.json"
        names = mechanism.names()
        path.write_text(json.dumps(structure_to_obj(mechanism.structure, names)))
        return mechanism.structure, path

    @pytest.mark.parametrize("flags,prior", [
        ((), PriorSpec()),
        (("--ess", "1", "--policy-prior", "poisson:2"),
         PriorSpec(dirichlet_mode="bdeu", ess=1.0, policy_prior="poisson",
                   poisson_rate=2.0)),
    ], ids=["k2", "bdeu-poisson"])
    def test_structure_matches_coordinate_ascent(self, tmp_path, flags, prior):
        prefix = simulate(tmp_path, n=60, random="4,2,2")
        structure, path = self.true_structure(tmp_path, prefix)
        assert structure.edges()
        schema = str(prefix) + ".schema.json"
        out = tmp_path / "p.json"
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv", "--schema", schema,
            "--structure", str(path), *flags, "--out", str(out),
        )
        assert rc == 0
        ds = load_dataset(str(prefix) + ".csv", load_schema(schema))
        config = SearchConfig()
        want, trace = coordinate_ascent(
            initial_policy(ds, config), structure, ds, prior, config
        )
        assert json.loads(out.read_text()) == policy_to_obj(want, ds.names)
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["prior"] == dataclasses.asdict(prior)
        assert manifest["inputs"]["structure"] == str(path)
        assert manifest["total_score"] == network_score(want, structure, ds, prior).total
        assert manifest["stats"]["solves"] == trace.stats.solves

    def test_default_structure_is_empty(self, tmp_path):
        prefix = simulate(tmp_path, n=60, random="4,2,2")
        ds = load_dataset(str(prefix) + ".csv")
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(structure_to_obj(empty_structure(4), ds.names)))
        texts = []
        for extra in ((), ("--structure", str(empty))):
            out = tmp_path / f"p{len(texts)}.json"
            rc = run_cli("discretize", "--data", str(prefix) + ".csv", *extra,
                         "--out", str(out))
            assert rc == 0
            texts.append(out.read_text())
            manifest = json.loads(out.with_suffix(".manifest.json").read_text())
            assert manifest["inputs"]["structure"] == (str(empty) if extra else None)
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("payload,message", [
        ({"edges": [["x1", "x2"], ["x2", "x1"]]}, "directed cycle"),
        ({"variables": ["x1", "x2"], "edges": []}, "do not match"),
        ({"edges": [["x1", "x9"]]}, "unknown variable 'x9'"),
    ], ids=["cycle", "mismatch", "unknown"])
    def test_bad_structure_exits_2(self, tmp_path, capsys, payload, message):
        prefix = simulate(tmp_path)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--structure", str(path), "--out", str(tmp_path / "p.json"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "p.json").exists()

    def test_true_structure_result_is_a_fixed_point(self, tmp_path):
        # Each learned policy is optimal given the structure and the others.
        prefix = simulate(tmp_path, n=80, random="5,2,2", seed=11)
        structure, path = self.true_structure(tmp_path, prefix)
        assert structure.edges()
        schema = str(prefix) + ".schema.json"
        out = tmp_path / "p.json"
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv", "--schema", schema,
            "--structure", str(path), "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["termination"] == "converged"
        ds = load_dataset(str(prefix) + ".csv", load_schema(schema))
        policy = policy_from_obj(json.loads(out.read_text()), ds)
        continuous = ds.continuous_indices()
        assert continuous and any(policy[i].thresholds for i in continuous)
        for i in continuous:
            got = optimize_variable(
                i, policy, structure, ds, PriorSpec(), SearchConfig()
            )
            assert got == policy[i], ds.names[i]

    @pytest.mark.parametrize("arity", [2.5, "3", True], ids=["float", "string", "bool"])
    def test_non_integer_arity_is_a_data_error(self, tmp_path, capsys, arity):
        prefix = simulate(tmp_path)
        schema = json.loads((tmp_path / "sim.schema.json").read_text())
        schema[1] = {"name": "x2", "kind": "discrete", "arity": arity}
        (tmp_path / "sim.schema.json").write_text(json.dumps(schema))
        capsys.readouterr()
        rc = run_cli(
            "discretize", "--data", str(prefix) + ".csv",
            "--schema", str(tmp_path / "sim.schema.json"),
            "--out", str(tmp_path / "p.json"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x2'" in err and "integer arity" in err
        assert not (tmp_path / "p.json").exists()


class TestLearn:
    def test_happy_path(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv",
            "--schema", str(prefix) + ".schema.json",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 0
        for suffix in (
            ".structure.json", ".structure.dot", ".policy.json",
            ".trace.jsonl", ".manifest.json",
        ):
            assert (tmp_path / ("fit" + suffix)).exists()
        structure = json.loads((tmp_path / "fit.structure.json").read_text())
        assert structure["variables"] == ["x1", "x2", "x3"]
        trace_lines = (
            (tmp_path / "fit.trace.jsonl").read_text().strip().split("\n")
        )
        records = [json.loads(line) for line in trace_lines]
        assert records[-1]["kind"] == "termination"
        dot = (tmp_path / "fit.structure.dot").read_text()
        assert dot.startswith("digraph")
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        scale = max(1.0, abs(manifest["total_score"]))
        assert abs(manifest["score_drift"]) <= 1e-6 * scale
        data = load_dataset(str(prefix) + ".csv")
        loaded = load_structure(tmp_path / "fit.structure.json", data)
        assert [
            [structure["variables"][p], structure["variables"][c]]
            for p, c in loaded.edges()
        ] == structure["edges"]

    def test_manifest_stats(self, tmp_path):
        prefix = simulate(tmp_path, n=60, random="4,2,2")
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv", "--out", str(tmp_path / "fit"),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        stats = manifest["stats"]
        assert set(stats) == {
            "best_edit_delta", "edits_scanned", "families_computed", "solves",
            "solve_hits", "noop_solves", "candidates", "holds_refused", "solve_s",
            "scan_s",
        }
        # The fixed-point certificate: no legal edit gains more than epsilon.
        assert stats["best_edit_delta"] <= manifest["search"]["epsilon"]
        # The first scan alone scores the 12 additions of the empty graph.
        assert stats["edits_scanned"] >= 12
        # That scan alone tallies the 12 families the additions read.
        assert stats["families_computed"] >= 12
        assert stats["scan_s"] > 0.0 and stats["solve_s"] > 0.0
        assert stats["solves"] > 0
        assert 0 <= stats["noop_solves"] <= stats["solves"]
        assert stats["candidates"] >= stats["solves"]
        assert stats["holds_refused"] == 0
        for suffix in (".structure.json", ".structure.dot", ".policy.json",
                       ".trace.jsonl"):
            text = (tmp_path / ("fit" + suffix)).read_text()
            assert "stats" not in text and "edits_scanned" not in text

    @pytest.mark.parametrize("command", ["learn", "discretize"])
    def test_poisson_start_is_capped_to_the_support(self, tmp_path, command):
        # N = 3 puts the Poisson prior's mass on 2 intervals only, so the
        # eqfreq:3 start is capped at N - 1 = 2 intervals, and every total
        # is finite.
        data = tmp_path / "three.csv"
        data.write_text("a,b\n0.5,0.1\n0.6,0.3\n0.7,0.2\n")
        out = tmp_path / ("fit" if command == "learn" else "fit.json")
        rc = run_cli(
            command, "--data", str(data), "--policy-prior", "poisson:2",
            "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        assert np.isfinite(manifest["total_score"])
        assert manifest["score_drift"] == 0.0
        policy_path = tmp_path / ("fit.policy.json" if command == "learn" else "fit.json")
        policy = json.loads(policy_path.read_text())
        for entry in policy["variables"].values():
            assert len(entry["thresholds"]) == 1
        if command == "learn":
            lines = (tmp_path / "fit.trace.jsonl").read_text().splitlines()
            records = [json.loads(line, parse_constant=strict_json) for line in lines]
            totals = [r["total"] for r in records if "total" in r]
            assert totals == sorted(totals) and np.isfinite(totals[-1])

    @pytest.mark.parametrize("command", ["learn", "discretize"])
    def test_poisson_prior_under_a_cap_of_one_interval_is_a_data_error(
        self, tmp_path, capsys, command
    ):
        data = tmp_path / "three.csv"
        data.write_text("a,b\n0.5,0.1\n0.6,0.3\n0.7,0.2\n")
        capsys.readouterr()
        rc = run_cli(
            command, "--data", str(data), "--policy-prior", "poisson:2",
            "--r-max", "1", "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "r_max = 1" in err
        assert not (tmp_path / "fit.manifest.json").exists()

    @pytest.mark.parametrize("command", ["learn", "discretize"])
    def test_a_cap_of_one_interval_writes_no_thresholds(self, tmp_path, command):
        data = tmp_path / "six.csv"
        data.write_text("a,b\n0.5,0.1\n0.6,0.3\n0.7,0.2\n0.1,0.9\n0.2,0.8\n0.3,0.4\n")
        out = tmp_path / ("fit" if command == "learn" else "fit.json")
        rc = run_cli(command, "--data", str(data), "--r-max", "1", "--out", str(out))
        assert rc == 0
        policy_path = tmp_path / ("fit.policy.json" if command == "learn" else "fit.json")
        policy = json.loads(policy_path.read_text())
        assert [e["thresholds"] for e in policy["variables"].values()] == [[], []]

    @pytest.mark.parametrize("command", ["learn", "discretize"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            # A constant column has only the single-interval policy.
            ([(0.5, b) for b in (0.1, 0.3, 0.2, 0.4, 0.9)], "N = 5, candidate cuts = 0"),
            # With N = 2 the support 2..N-1 is empty.
            ([(0.5, 0.1), (0.6, 0.3)], "N = 2, candidate cuts = 1"),
            # Two adjacent floats: no midpoint lies strictly between them.
            (
                [(1.0, 0.1), (1.0000000000000002, 0.3), (1.0, 0.2)],
                "N = 3, candidate cuts = 0",
            ),
        ],
        ids=["constant-column", "two-cases", "adjacent-floats"],
    )
    def test_poisson_prior_without_mass_is_a_data_error(
        self, tmp_path, capsys, command, rows, message
    ):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in rows))
        capsys.readouterr()
        rc = run_cli(
            command, "--data", str(data), "--policy-prior", "poisson:2",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "'a'" in err
        assert not (tmp_path / "fit.manifest.json").exists()

    def test_deterministic_artifacts(self, tmp_path):
        prefix = simulate(tmp_path)
        for name in ("fit1", "fit2"):
            rc = run_cli(
                "learn", "--data", str(prefix) + ".csv",
                "--out", str(tmp_path / name),
            )
            assert rc == 0
        for suffix in (".structure.json", ".policy.json", ".trace.jsonl"):
            assert (
                (tmp_path / ("fit1" + suffix)).read_bytes()
                == (tmp_path / ("fit2" + suffix)).read_bytes()
            )

    @pytest.mark.parametrize(
        "command, out", [("learn", "fit"), ("discretize", "fit.json")]
    )
    def test_drifted_total_exits_3(self, tmp_path, monkeypatch, capsys, command, out):
        prefix = simulate(tmp_path)
        calls = []
        local = _SearchState.local

        def corrupted(self, v):
            # The second call scores the first candidate policy, so its
            # accepted delta comes out one nat too high.
            calls.append(v)
            return local(self, v) + (1.0 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(_SearchState, "local", corrupted)
        rc = run_cli(
            command, "--data", str(prefix) + ".csv", "--out", str(tmp_path / out)
        )
        assert rc == 3
        assert "fresh network score" in capsys.readouterr().err
        assert not (tmp_path / "fit.manifest.json").exists()

    def test_searches_share_nothing(self, tmp_path):
        # Two datasets of one shape: a cache kept at module level, or keyed
        # by id(), would carry one learn's solves over into the next.
        prefixes = [
            simulate(tmp_path, name=f"sim{seed}", n=60, seed=seed, random="4,2,2")
            for seed in (4, 5)
        ]
        suffixes = (".structure.json", ".structure.dot", ".policy.json", ".trace.jsonl")

        def learn(prefix, out, fresh_process):
            args = ["learn", "--data", str(prefix) + ".csv",
                    "--policy-prior", "poisson:2", "--out", str(out)]
            if fresh_process:
                env = {**os.environ, "PYTHONPATH": str(SOURCE)}
                done = subprocess.run(
                    [sys.executable, "-m", "mixedbn", *args], env=env,
                    capture_output=True, timeout=120,
                )
                assert done.returncode == 0, done.stderr
            else:
                assert run_cli(*args) == 0
                stats = json.loads(Path(f"{out}.manifest.json").read_text())["stats"]
                # Some variable is solved again, so the search holds its blocks.
                assert stats["solves"] > 4
            return [Path(f"{out}{s}").read_bytes() for s in suffixes]

        fresh = [learn(p, tmp_path / f"fresh{k}", True) for k, p in enumerate(prefixes)]
        assert fresh[0] != fresh[1]
        for k in (0, 1, 0):
            assert learn(prefixes[k], tmp_path / "again", False) == fresh[k]

    def test_oversized_solve_exits_2(self, tmp_path, monkeypatch, capsys):
        prefix = simulate(tmp_path)
        # Every count table fits in 1 MiB; no solve does, since its working
        # blocks alone take 4 MiB.
        monkeypatch.setattr(scoring, "MEMORY_LIMIT_BYTES", 2**20)
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        assert "N=40" in capsys.readouterr().err

    def test_oversized_tally_exits_2(self, tmp_path, capsys):
        # Declared arities of 20001 make each edge scan table 20001 by
        # 20001 counts, 3 GiB; the tally refuses it before allocating.
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 3, size=(40, 3))
        (tmp_path / "big.csv").write_text(
            "a,b,c\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
        )
        schema = [{"name": c, "kind": "discrete", "arity": 20001} for c in "abc"]
        (tmp_path / "big.schema.json").write_text(json.dumps(schema))
        rc = run_cli(
            "learn", "--data", str(tmp_path / "big.csv"),
            "--schema", str(tmp_path / "big.schema.json"),
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: variable 'b':") and "3052 MiB" in err
        assert not (tmp_path / "fit.manifest.json").exists()

    def test_sparse_integer_columns_learn_as_continuous(self, tmp_path):
        # Integers outside [0, 15) are no state codes: without a schema the
        # columns load as continuous, not with 20001 states each.
        rng = np.random.default_rng(7)
        rows = rng.choice([0, 3, 20000], size=(40, 3))
        data = tmp_path / "sparse.csv"
        data.write_text(
            "a,b,c\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
        )
        kinds = [meta.kind for meta in load_dataset(data).variables]
        assert kinds == ["continuous"] * 3
        rc = run_cli("learn", "--data", str(data), "--out", str(tmp_path / "fit"))
        assert rc == 0

    @pytest.mark.parametrize("flag", ["--alpha", "--ess"])
    def test_subnormal_dirichlet_weight_is_a_data_error(self, tmp_path, capsys, flag):
        prefix = simulate(tmp_path)
        capsys.readouterr()
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv", flag, "1e-310",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {flag[2:]} must be")

    def test_column_wider_than_float64_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("a,b\n1e308,0.5\n-1e308,0.25\n0,0.75\n")
        capsys.readouterr()
        rc = run_cli("learn", "--data", str(data), "--out", str(tmp_path / "fit"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: continuous column 'a'")

    def test_name_ending_in_a_backslash_is_refused_before_the_search(
        self, tmp_path, monkeypatch, capsys
    ):
        # No DOT ID can end in a backslash: it would escape the closing
        # quote.  A search there would exit 3, so exit 2 means none ran.
        data = tmp_path / "slash.csv"
        data.write_text("a\\,b\n0.1,0.5\n0.2,0.25\n0.3,0.75\n")

        def searched(*args, **kwargs):
            raise InternalError("searched")

        monkeypatch.setattr("mixedbn.cli.hill_climb_structure", searched)
        capsys.readouterr()
        rc = run_cli("learn", "--data", str(data), "--out", str(tmp_path / "fit"))
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: column name 'a\\\\' ends in a backslash, which no DOT ID "
            "can end in; rename the column\n"
        )
        assert not list(tmp_path.glob("fit*"))

    def test_subnormal_bdeu_cell_weight_is_a_data_error(self, tmp_path, capsys):
        # ess itself is normal, but ess / (r q) is not for a family of three
        # intervals or more.
        prefix = simulate(tmp_path, n=400, seed=7, random="3,2,1")
        capsys.readouterr()
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv", "--ess", "3e-308",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ess 3e-308 ")
        assert not (tmp_path / "fit.manifest.json").exists()

    def test_column_near_the_float64_maximum_keeps_its_cuts(self, tmp_path):
        data = tmp_path / "big.csv"
        data.write_text("a,b\n1e308,0.5\n1.5e308,0.25\n1.7e308,0.75\n")
        rc = run_cli("learn", "--data", str(data), "--out", str(tmp_path / "fit"))
        assert rc == 0

    @pytest.mark.parametrize(
        "command, target",
        [("learn", "hill_climb_structure"), ("discretize", "coordinate_ascent")],
    )
    def test_internal_error_exit_code(self, tmp_path, monkeypatch, command, target):
        # The CLI looks each search up at call time, so a replacement (or
        # perfbench's tracer) sees every call.
        prefix = simulate(tmp_path)

        def boom(*args, **kwargs):
            raise InternalError("induced failure")

        monkeypatch.setattr(f"mixedbn.cli.{target}", boom)
        rc = run_cli(
            command, "--data", str(prefix) + ".csv",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 3
        assert not list(tmp_path.glob("fit*"))

    def test_negative_seed_is_user_error(self, tmp_path, capsys):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv", "--seed", "-1",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.glob("fit*"))

    def test_search_options_pinned(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv",
            "--threads", "2", "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv",
            "--interleave-period", "2", "--out", str(tmp_path / "fit"),
        )
        assert rc == 2
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        assert set(manifest["search"]) == {
            "r_max", "epsilon", "max_sweeps", "init", "max_parents", "seed",
        }
        assert set(manifest["search"]) == {
            f.name for f in dataclasses.fields(SearchConfig)
        }


LEARN_OUTPUTS = {
    "structure": "fit.structure.json", "dot": "fit.structure.dot",
    "policy": "fit.policy.json", "trace": "fit.trace.jsonl",
    "manifest": "fit.manifest.json",
}
SIMULATE_OUTPUTS = {
    "data": "sim.csv", "latent": "sim.latent.csv", "schema": "sim.schema.json",
    "mechanism": "sim.mechanism.json", "manifest": "sim.manifest.json",
}
RUN_KEYS = {"schema_version", "command", "inputs", "outputs", "duration_seconds",
            "created_utc"}
SEARCH_KEYS = RUN_KEYS | {
    "prior", "search", "total_score", "score_drift", "termination", "n_cases",
    "n_variables", "stats",
}


class TestOutputs:
    @pytest.mark.parametrize("command, out, outputs, keys", [
        ("learn", "fit", LEARN_OUTPUTS, SEARCH_KEYS | {"n_edges"}),
        ("learn", "fit.json", LEARN_OUTPUTS, SEARCH_KEYS | {"n_edges"}),
        ("discretize", "fit",
         {"policy": "fit", "data": "fit.data.csv", "manifest": "fit.manifest.json"},
         SEARCH_KEYS),
        ("discretize", "fit.json",
         {"policy": "fit.json", "data": "fit.data.csv",
          "manifest": "fit.manifest.json"},
         SEARCH_KEYS),
        ("simulate", "sim", SIMULATE_OUTPUTS, RUN_KEYS | {"seed", "n_variables"}),
        ("simulate", "sim.json", SIMULATE_OUTPUTS, RUN_KEYS | {"seed", "n_variables"}),
    ])
    def test_paths_follow_out_into_a_new_directory(
        self, tmp_path, command, out, outputs, keys
    ):
        prefix = simulate(tmp_path, name="input")
        if command == "simulate":
            flags = ["--random", "3,2,2", "--n", "40", "--seed", "5"]
        else:
            flags = ["--data", str(prefix) + ".csv"]
        target = tmp_path / "new" / "dir"
        assert run_cli(command, *flags, "--out", str(target / out)) == 0
        assert sorted(p.name for p in target.iterdir()) == sorted(outputs.values())
        manifest = json.loads((target / outputs["manifest"]).read_text())
        assert manifest["outputs"] == {
            name: str(target / file) for name, file in outputs.items()
        }
        assert set(manifest) == keys


class TestScore:
    def fit(self, tmp_path):
        prefix = simulate(tmp_path)
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 0
        return prefix

    def test_breakdown_on_stdout(self, tmp_path, capsys):
        prefix = self.fit(tmp_path)
        capsys.readouterr()
        rc = run_cli(
            "score", "--data", str(prefix) + ".csv",
            "--structure", str(tmp_path / "fit.structure.json"),
            "--policy", str(tmp_path / "fit.policy.json"),
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert len(payload["variables"]) == 3
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        assert payload["total"] == pytest.approx(
            manifest["total_score"], abs=1e-9
        )

    def test_out_file(self, tmp_path, capsys):
        prefix = self.fit(tmp_path)
        capsys.readouterr()
        out = tmp_path / "breakdown.json"
        rc = run_cli(
            "score", "--data", str(prefix) + ".csv",
            "--structure", str(tmp_path / "fit.structure.json"),
            "--policy", str(tmp_path / "fit.policy.json"),
            "--out", str(out),
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert json.loads(out.read_text()) == json.loads(stdout)

    def test_structure_variable_mismatch(self, tmp_path):
        prefix = self.fit(tmp_path)
        other = simulate(tmp_path, name="other", random="4,2,2")
        rc = run_cli(
            "score", "--data", str(other) + ".csv",
            "--structure", str(tmp_path / "fit.structure.json"),
            "--policy", str(tmp_path / "fit.policy.json"),
        )
        assert rc == 2

    def test_invalid_policy_json(self, tmp_path):
        prefix = self.fit(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = run_cli(
            "score", "--data", str(prefix) + ".csv",
            "--structure", str(tmp_path / "fit.structure.json"),
            "--policy", str(bad),
        )
        assert rc == 2

    def test_policy_without_prior_mass_is_a_data_error(self, tmp_path, capsys):
        # The single interval of 'a' lies outside the Poisson prior's
        # support, so the total is -inf, which JSON cannot hold.
        data = tmp_path / "four.csv"
        data.write_text("a,b\n0.5,0.1\n0.6,0.3\n0.7,0.2\n0.9,0.5\n")
        structure = tmp_path / "structure.json"
        structure.write_text(json.dumps({"edges": []}))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"schema_version": 1, "variables": {
            "a": {"thresholds": [], "bounds": [0.5, 0.9]},
            "b": {"thresholds": [0.25], "bounds": [0.1, 0.5]},
        }}))
        out = tmp_path / "breakdown.json"
        capsys.readouterr()
        rc = run_cli(
            "score", "--data", str(data), "--structure", str(structure),
            "--policy", str(policy), "--policy-prior", "poisson:2",
            "--out", str(out),
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error:") and "'a'" in captured.err

    def test_byte_order_marks_are_ignored(self, tmp_path, capsys):
        """Data, schema, structure and policy files saved with a UTF-8
        byte-order mark read as without it."""
        prefix = simulate(tmp_path)
        names = (tmp_path / "sim.csv").read_text().splitlines()[0].split(",")
        data, schema = tmp_path / "sim.csv", tmp_path / "sim.schema.json"
        for path in (data, schema):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / "fit"
        rc = run_cli(
            "learn", "--data", str(data), "--schema", str(schema), "--out", str(out),
        )
        assert rc == 0
        structure = tmp_path / "fit.structure.json"
        assert json.loads(structure.read_text())["variables"] == names
        policy = tmp_path / "fit.policy.json"
        for path in (structure, policy):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        capsys.readouterr()
        rc = run_cli(
            "score", "--data", str(prefix) + ".csv", "--schema", str(schema),
            "--structure", str(structure), "--policy", str(policy),
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["schema_version"] == 1

    @pytest.mark.parametrize(
        "what, name",
        [
            ("data", "sim.csv"),
            ("schema", "sim.schema.json"),
            ("structure", "fit.structure.json"),
            ("policy", "fit.policy.json"),
            ("mechanism", "sim.mechanism.json"),
        ],
    )
    def test_undecodable_input_is_a_data_error(self, tmp_path, capsys, what, name):
        prefix = self.fit(tmp_path)
        target = tmp_path / name
        target.write_bytes(b"\xff" + target.read_bytes())
        if what == "mechanism":
            argv = [
                "simulate", "--mechanism", str(target), "--n", "5",
                "--out", str(tmp_path / "again"),
            ]
        else:
            argv = [
                "score", "--data", str(prefix) + ".csv",
                "--schema", str(tmp_path / "sim.schema.json"),
                "--structure", str(tmp_path / "fit.structure.json"),
                "--policy", str(tmp_path / "fit.policy.json"),
            ]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {what} is not UTF-8 text")

    @pytest.mark.parametrize(
        "name, path, value",
        [
            ("fit.policy.json", ["variables", "x1"], 5),
            ("fit.policy.json", ["variables", "x1", "thresholds"], ["abc"]),
            ("fit.policy.json", ["variables", "x1", "bounds"], 0),
            ("fit.policy.json", ["variables", "x1", "bounds"], {"a": 0, "b": 1}),
            ("fit.policy.json", ["variables", "x1", "thresholds"], {"0.5": 1}),
            ("fit.structure.json", ["edges"], 5),
            ("fit.structure.json", ["variables"], 5),
            ("sim.schema.json", [0, "bounds"], ["a", "b"]),
            ("sim.schema.json", [0], {"name": "x1", "kind": "discrete", "arity": "3"}),
            ("sim.mechanism.json", ["variables", 0, "thresholds"], ["x"]),
            ("sim.mechanism.json", ["variables", 0, "thresholds"], {"0.25": 1}),
            ("sim.mechanism.json", ["variables", 1, "parents"], [0.7]),
            ("sim.mechanism.json", ["variables", 1, "parents"], {"0": 1}),
            ("sim.mechanism.json", ["variables", 0, "bounds"], "01"),
            ("sim.mechanism.json", ["variables", 0, "bounds"], [0, 1, 7]),
            ("sim.mechanism.json", ["seed"], True),
            ("sim.mechanism.json", ["seed"], 1.7),
            ("sim.mechanism.json", ["seed"], "abc"),
            ("sim.mechanism.json", ["seed"], None),
        ],
        ids=[
            "policy-entry", "policy-thresholds", "policy-bounds",
            "policy-bounds-object", "policy-thresholds-object", "structure-edges",
            "structure-variables", "schema-bounds", "schema-arity",
            "mechanism-thresholds", "mechanism-thresholds-object",
            "mechanism-parents-float", "mechanism-parents-object",
            "mechanism-bounds-string", "mechanism-bounds-three", "mechanism-seed-bool",
            "mechanism-seed-float", "mechanism-seed-string", "mechanism-seed-null",
        ],
    )
    def test_malformed_json_is_a_data_error(self, tmp_path, capsys, name, path, value):
        prefix = self.fit(tmp_path)
        target = tmp_path / name
        payload = json.loads(target.read_text())
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target.write_text(json.dumps(payload))
        if name == "sim.mechanism.json":
            argv = [
                "simulate", "--mechanism", str(target), "--n", "5",
                "--out", str(tmp_path / "again"),
            ]
        else:
            argv = [
                "score", "--data", str(prefix) + ".csv",
                "--schema", str(tmp_path / "sim.schema.json"),
                "--structure", str(tmp_path / "fit.structure.json"),
                "--policy", str(tmp_path / "fit.policy.json"),
            ]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if name == "fit.policy.json":
            assert "'x1'" in err
        if name == "sim.mechanism.json":
            # Every mechanism case names the variable at its position, or
            # the seed.
            assert ("seed" if path == ["seed"] else f"variable {path[1]}") in err
