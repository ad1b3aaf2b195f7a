"""Command line front end.

Four commands: ``discretize`` fits policies under a fixed structure, the
empty one unless ``--structure`` names one, ``learn`` searches structure
and policies jointly, ``score`` evaluates a given structure and policy
pair, and ``simulate`` draws synthetic data from a known mechanism.
``learn`` and ``discretize`` share one path, :func:`_search`: load the
data, run the search, and check its running total against a fresh network
score; they differ only in the search they run.
``learn``, ``discretize`` and ``simulate`` write their artifacts and run
manifest through one writer, :func:`_write_run`, which names every path
after ``--out``.  Exit codes: 0 on success, 2 on bad input or flags, 3 on
an internal invariant failure.  Given identical inputs and flags every
artifact except the run manifest (which carries timing) is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from .dataset import (
    SCHEMA_VERSION,
    Dataset,
    InternalError,
    ValidationError,
    discretize_all,
    load_dataset,
    load_schema,
    policy_from_obj,
    policy_to_obj,
    read_json,
    schema_to_obj,
)
from .generator import (
    load_mechanism,
    mechanism_to_obj,
    random_mechanism,
    sample_dataset,
)
from .graph import DagStructure, dot_ids, empty_structure, to_dot, validate_dag
from .scoring import BDEU, K2, POISSON_PRIOR, PriorSpec, network_score
from .search import (
    InitSpec,
    SearchConfig,
    coordinate_ascent,
    hill_climb_structure,
    initial_policy,
)


def _parse_policy_prior(text: str) -> tuple[str, float]:
    if text == "uniform":
        return "uniform", 2.0
    if text == "poisson":
        return POISSON_PRIOR, 2.0
    if text.startswith("poisson:"):
        try:
            rate = float(text.split(":", 1)[1])
        except ValueError:
            raise ValidationError(
                f"bad --policy-prior value {text!r}; use uniform or poisson:<rate>"
            ) from None
        return POISSON_PRIOR, rate
    raise ValidationError(
        f"bad --policy-prior value {text!r}; use uniform or poisson:<rate>"
    )


def _parse_init(text: str) -> InitSpec:
    kind, _, arg = text.partition(":")
    if kind not in ("eqfreq", "eqwidth"):
        raise ValidationError(
            f"bad --init value {text!r}; use eqfreq:<r0> or eqwidth:<r0>"
        )
    if not arg:
        return InitSpec(kind=kind)
    try:
        r0 = int(arg)
    except ValueError:
        raise ValidationError(f"bad --init interval count {arg!r}") from None
    return InitSpec(kind=kind, r0=r0)


def _prior_from_args(args: argparse.Namespace) -> PriorSpec:
    if args.ess is not None and args.alpha is not None:
        raise ValidationError("--alpha and --ess are mutually exclusive")
    prior_kind, rate = _parse_policy_prior(args.policy_prior)
    fields = {
        "policy_prior": prior_kind,
        "poisson_rate": rate,
        "density_model": args.density,
    }
    if args.ess is not None:
        fields.update(dirichlet_mode=BDEU, ess=args.ess)
    elif args.alpha is not None:
        fields.update(dirichlet_mode=K2, alpha=args.alpha)
    return PriorSpec(**fields)


def _config_from_args(args: argparse.Namespace) -> SearchConfig:
    # discretize scans no edges, so it keeps the edge-scan defaults.
    learn = args.command == "learn"
    edge_scan = {"max_parents": args.max_parents, "seed": args.seed} if learn else {}
    return SearchConfig(
        r_max=args.r_max,
        epsilon=args.epsilon,
        max_sweeps=args.max_sweeps,
        init=_parse_init(args.init),
        **edge_scan,
    )


def _add_scoring_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha", type=float, default=None,
        help="per-cell Dirichlet pseudo-count (default 1)",
    )
    parser.add_argument(
        "--ess", type=float, default=None,
        help="equivalent sample size; switches pseudo-counts to shared mode",
    )
    parser.add_argument(
        "--policy-prior", default="uniform",
        help="policy prior: uniform or poisson:<rate> (default uniform)",
    )
    parser.add_argument(
        "--density", choices=("uniform", "multinomial"), default="uniform",
        help="within-interval emission model (default uniform)",
    )


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--r-max", type=int, default=None,
        help="interval count cap (default min(12, cases - 1))",
    )
    parser.add_argument("--epsilon", type=float, default=1e-6,
                        help="minimum gain to keep searching (default 1e-6)")
    parser.add_argument("--max-sweeps", type=int, default=50,
                        help="coordinate ascent sweep cap (default 50)")
    parser.add_argument(
        "--init", default="eqfreq:3",
        help="starting discretization: eqfreq:<r0> or eqwidth:<r0>",
    )


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV table with a header row")
    parser.add_argument("--schema", default=None,
                        help="JSON variable schema; types are inferred without it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedbn",
        description="Learn Bayesian networks and discretizations from mixed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "discretize", help="fit threshold policies under a fixed structure"
    )
    _add_data_flags(p)
    _add_scoring_flags(p)
    _add_search_flags(p)
    p.add_argument(
        "--structure", default=None,
        help="structure JSON path (default: the empty structure)",
    )
    p.add_argument("--out", required=True, help="policy JSON output path")

    p = sub.add_parser("learn", help="search structure and policies jointly")
    _add_data_flags(p)
    _add_scoring_flags(p)
    _add_search_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="edge-scan tie-breaking seed (default 0)")
    p.add_argument("--max-parents", type=int, default=3,
                   help="parent count cap per node (default 3)")
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("score", help="evaluate a structure and policy pair")
    _add_data_flags(p)
    _add_scoring_flags(p)
    p.add_argument("--structure", required=True, help="structure JSON path")
    p.add_argument("--policy", required=True, help="policy JSON path")
    p.add_argument("--out", default=None, help="also write the breakdown JSON here")

    p = sub.add_parser("simulate", help="draw synthetic data from a mechanism")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mechanism", help="mechanism JSON path")
    group.add_argument(
        "--random",
        help="fresh mechanism: <variables>,<arity>,<max_parents>",
    )
    p.add_argument("--n", type=int, required=True, help="number of cases")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: the mechanism's own)")
    p.add_argument("--out", required=True, help="output path prefix")

    return parser


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(names, matrix, cell) -> str:
    """A header row, each name quoted where it needs it, then one line per
    row of ``matrix``, each entry written by ``cell``."""
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(names)
    lines = [header.getvalue()[:-1]]
    lines += [",".join(map(cell, row)) for row in matrix.tolist()]
    return "\n".join(lines) + "\n"


def structure_to_obj(structure: DagStructure, names) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "variables": list(names),
        "edges": [[names[p], names[c]] for p, c in structure.edges()],
    }


def structure_from_obj(payload: dict, dataset: Dataset) -> DagStructure:
    if not isinstance(payload, dict) or "edges" not in payload:
        raise ValidationError("structure JSON must be an object with 'edges'")
    declared = payload.get("variables")
    if declared is not None and declared != list(dataset.names):
        raise ValidationError(
            "structure variables do not match the dataset columns: "
            f"{declared} vs {list(dataset.names)}"
        )
    if not isinstance(payload["edges"], list):
        raise ValidationError("structure 'edges' must be a list")
    parent_sets: list[set[int]] = [set() for _ in range(dataset.n_variables)]
    for pos, edge in enumerate(payload["edges"]):
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
            raise ValidationError(f"structure edge {pos} must be a [parent, child] pair")
        p, c = (dataset.index_of(str(v)) for v in edge)
        parent_sets[c].add(p)
    return validate_dag(parent_sets)


def load_structure(path, dataset: Dataset) -> DagStructure:
    return structure_from_obj(read_json(path, "structure"), dataset)


def _load_data(args: argparse.Namespace) -> Dataset:
    schema = load_schema(args.schema) if args.schema else None
    return load_dataset(args.data, schema)


def _search(args: argparse.Namespace, command: str, run):
    """Load the data, run ``run(dataset, prior, config)`` to get a
    structure, a policy and a trace, and check the trace's running total
    against a fresh network score before anything is written.

    Returns the dataset, structure, policy and trace, and the manifest
    fields every search command records.
    """
    dataset = _load_data(args)
    prior = _prior_from_args(args)
    config = _config_from_args(args)
    structure, policy, trace = run(dataset, prior, config)
    total = network_score(policy, structure, dataset, prior).total
    drift = total - trace.final_total
    if not abs(drift) <= 1e-6 * max(1.0, abs(total)):
        raise InternalError(
            f"search running total {trace.final_total!r} is {drift!r} away "
            f"from the fresh network score {total!r}"
        )
    manifest = {
        "command": command,
        "inputs": {"data": args.data, "schema": args.schema},
        "prior": dataclasses.asdict(prior),
        "search": dataclasses.asdict(config),
        "total_score": total,
        "score_drift": drift,
        "termination": trace.termination,
        "n_cases": dataset.n_cases,
        "n_variables": dataset.n_variables,
        "stats": dataclasses.asdict(trace.stats),
    }
    return dataset, structure, policy, trace, manifest


def _write_run(
    out: str, texts: list[tuple[str, str | None, str]], manifest: dict, started: float
) -> dict[str, Path]:
    """Write a command's artifacts, then its manifest; return their paths.

    ``texts`` holds ``(name, suffix, text)`` triples.  Each path is the
    ``--out`` prefix, less a trailing ``.json``, plus its suffix; a suffix
    of None names ``--out`` itself.  The manifest adds every path and the
    time since ``started``, taken after the artifact writes.
    """
    out_path = Path(out)
    prefix = out_path.with_suffix("") if out_path.suffix == ".json" else out_path
    paths = {
        name: out_path if suffix is None else prefix.with_name(prefix.name + suffix)
        for name, suffix, _ in texts
    }
    paths["manifest"] = prefix.with_name(prefix.name + ".manifest.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    for name, _, text in texts:
        paths[name].write_text(text, encoding="utf-8")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        **manifest,
        "outputs": {name: str(path) for name, path in paths.items()},
        "duration_seconds": time.perf_counter() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    paths["manifest"].write_text(_json(manifest), encoding="utf-8")
    return paths


def cmd_discretize(args: argparse.Namespace) -> int:
    started = time.perf_counter()

    def run(dataset: Dataset, prior: PriorSpec, config: SearchConfig):
        if args.structure is None:
            structure = empty_structure(dataset.n_variables)
        else:
            structure = load_structure(args.structure, dataset)
        policy = initial_policy(dataset, config)
        policy, trace = coordinate_ascent(policy, structure, dataset, prior, config)
        return structure, policy, trace

    dataset, _, policy, _, manifest = _search(args, "discretize", run)
    manifest["inputs"]["structure"] = args.structure
    codes = discretize_all(dataset, policy)
    paths = _write_run(args.out, [
        ("policy", None, _json(policy_to_obj(policy, dataset.names))),
        ("data", ".data.csv", _csv_text(dataset.names, codes, str)),
    ], manifest, started)
    print(f"wrote {paths['policy']} (total score {manifest['total_score']:.6f})")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    started = time.perf_counter()

    def run(dataset: Dataset, prior: PriorSpec, config: SearchConfig):
        # The DOT artifact is written after the search: check its IDs first.
        dot_ids(dataset.names)
        return hill_climb_structure(dataset, prior, config)

    dataset, structure, policy, trace, manifest = _search(args, "learn", run)
    manifest["n_edges"] = len(structure.edges())
    names = dataset.names
    paths = _write_run(args.out, [
        ("structure", ".structure.json", _json(structure_to_obj(structure, names))),
        ("dot", ".structure.dot", to_dot(structure, names)),
        ("policy", ".policy.json", _json(policy_to_obj(policy, names))),
        ("trace", ".trace.jsonl", trace.to_jsonl()),
    ], manifest, started)
    print(
        f"learned {manifest['n_edges']} edges "
        f"(total score {manifest['total_score']:.6f}); wrote {paths['structure']}"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    dataset = _load_data(args)
    prior = _prior_from_args(args)
    structure = load_structure(args.structure, dataset)
    policy = policy_from_obj(read_json(args.policy, "policy"), dataset)
    breakdown = network_score(policy, structure, dataset, prior)
    # Infinity is not JSON.
    breakdown.finite_total(dataset.names, "policy")
    text = _json(breakdown.to_obj(dataset.names))
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.n < 1:
        raise ValidationError(f"--n must be at least 1, got {args.n}")
    if args.mechanism:
        mechanism = load_mechanism(args.mechanism)
    else:
        parts = args.random.split(",")
        if len(parts) != 3:
            raise ValidationError(
                f"bad --random value {args.random!r}; "
                "use <variables>,<arity>,<max_parents>"
            )
        try:
            n_vars, arity, max_parents = (int(p) for p in parts)
        except ValueError:
            raise ValidationError(
                f"bad --random value {args.random!r}; integers required"
            ) from None
        mechanism = random_mechanism(
            n_vars, max_parents, arity, args.seed if args.seed is not None else 0
        )
    if args.seed is not None and mechanism.seed != args.seed:
        mechanism = dataclasses.replace(mechanism, seed=args.seed)
    dataset, latent = sample_dataset(mechanism, args.n)

    paths = _write_run(args.out, [
        ("data", ".csv", _csv_text(dataset.names, dataset.values, repr)),
        ("latent", ".latent.csv", _csv_text(dataset.names, latent, str)),
        ("schema", ".schema.json", _json(schema_to_obj(dataset.variables))),
        ("mechanism", ".mechanism.json", _json(mechanism_to_obj(mechanism))),
    ], {
        "command": "simulate",
        "inputs": {"mechanism": args.mechanism, "random": args.random, "n": args.n},
        "seed": mechanism.seed,
        "n_variables": mechanism.n,
    }, started)
    print(f"wrote {paths['data']} ({args.n} cases, {mechanism.n} variables)")
    return 0


_COMMANDS = {
    "discretize": cmd_discretize,
    "learn": cmd_learn,
    "score": cmd_score,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - exit-code boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
