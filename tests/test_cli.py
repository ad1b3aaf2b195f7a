import dataclasses
import json

import numpy as np
import pytest

from mixedbn import InternalError, SearchConfig, load_dataset, scoring
from mixedbn.cli import build_parser, load_structure, main
from mixedbn.search import _SearchState


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
            "solve_hits",
        }
        # The ascent runs under a fixed structure: no edge scan at all.
        assert stats["best_edit_delta"] is None
        assert stats["edits_scanned"] == 0
        # Each of the 4 continuous columns is solved at least once, and the
        # confirming sweep reads its unchanged solve keys from the memo.
        assert stats["solves"] >= 4 and stats["solve_hits"] >= 4
        assert stats["families_computed"] > 0
        for name in ("p.json", "p.data.csv"):
            text = (tmp_path / name).read_text()
            assert "stats" not in text and "solve_hits" not in text

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
            "solve_hits",
        }
        # The fixed-point certificate: no legal edit gains more than epsilon.
        assert stats["best_edit_delta"] <= manifest["search"]["epsilon"]
        # The first scan alone scores the 12 additions of the empty graph.
        assert stats["edits_scanned"] >= 12
        # That scan alone tallies the 12 families the additions read.
        assert stats["families_computed"] >= 12
        assert stats["solves"] > 0
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

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        prefix = simulate(tmp_path)

        def boom(*args, **kwargs):
            raise InternalError("induced failure")

        monkeypatch.setattr("mixedbn.cli.hill_climb_structure", boom)
        rc = run_cli(
            "learn", "--data", str(prefix) + ".csv",
            "--out", str(tmp_path / "fit"),
        )
        assert rc == 3

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
            ("fit.structure.json", ["edges"], 5),
            ("fit.structure.json", ["variables"], 5),
            ("sim.schema.json", [0, "bounds"], ["a", "b"]),
            ("sim.schema.json", [0], {"name": "x1", "kind": "discrete", "arity": "3"}),
            ("sim.mechanism.json", ["variables", 0, "thresholds"], ["x"]),
        ],
        ids=[
            "policy-entry", "policy-thresholds", "policy-bounds", "structure-edges",
            "structure-variables", "schema-bounds", "schema-arity",
            "mechanism-thresholds",
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
        assert capsys.readouterr().err.startswith("error:")
