"""Command line front end.

Four commands: ``discretize`` fits policies under a fixed empty structure,
``learn`` searches structure and policies jointly, ``score`` evaluates a
given structure and policy pair, and ``simulate`` draws synthetic data from
a known mechanism.  Exit codes: 0 on success, 2 on bad input or flags, 3 on
an internal invariant failure.  Given identical inputs and flags every
artifact except the run manifest (which carries timing) is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from .dataset import (
    Dataset,
    InternalError,
    NetworkPolicy,
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
from .graph import DagStructure, empty_structure, to_dot, validate_dag
from .scoring import BDEU, K2, POISSON_PRIOR, PriorSpec, network_score
from .search import (
    InitSpec,
    SearchConfig,
    SearchTrace,
    coordinate_ascent,
    hill_climb_structure,
    initial_policy,
)

SCHEMA_VERSION = 1


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
    return SearchConfig(
        r_max=args.r_max,
        epsilon=args.epsilon,
        max_sweeps=args.max_sweeps,
        init=_parse_init(args.init),
        max_parents=args.max_parents,
        seed=args.seed,
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
    parser.add_argument("--seed", type=int, default=0,
                        help="tie-breaking seed (default 0)")
    parser.add_argument("--max-parents", type=int, default=3,
                        help="parent count cap per node (default 3)")


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
        "discretize", help="fit threshold policies under the empty structure"
    )
    _add_data_flags(p)
    _add_scoring_flags(p)
    _add_search_flags(p)
    p.add_argument("--out", required=True, help="policy JSON output path")

    p = sub.add_parser("learn", help="search structure and policies jointly")
    _add_data_flags(p)
    _add_scoring_flags(p)
    _add_search_flags(p)
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


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv_text(names, rows) -> str:
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _float_cell(v: float) -> str:
    return repr(float(v))


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


def _manifest(
    command: str,
    args_inputs: dict,
    outputs: dict,
    prior: PriorSpec | None,
    config: SearchConfig | None,
    extra: dict,
    started: float,
) -> dict:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": args_inputs,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "duration_seconds": time.perf_counter() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if prior is not None:
        manifest["prior"] = dataclasses.asdict(prior)
    if config is not None:
        manifest["search"] = dataclasses.asdict(config)
    manifest.update(extra)
    return manifest


def _score_drift(total: float, trace: SearchTrace) -> float:
    """Fresh total minus the search's running total; raises when they part."""
    drift = total - trace.final_total
    if not abs(drift) <= 1e-6 * max(1.0, abs(total)):
        raise InternalError(
            f"search running total {trace.final_total!r} is {drift!r} away "
            f"from the fresh network score {total!r}"
        )
    return drift


def _load_data(args: argparse.Namespace) -> Dataset:
    schema = load_schema(args.schema) if args.schema else None
    return load_dataset(args.data, schema)


def _out_prefix(out: str) -> Path:
    path = Path(out)
    if path.suffix == ".json":
        path = path.with_suffix("")
    return path


def _discretized_csv(dataset: Dataset, policy: NetworkPolicy) -> str:
    codes = discretize_all(dataset, policy)
    rows = [[str(int(v)) for v in row] for row in codes]
    return _csv_text(dataset.names, rows)


def cmd_discretize(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    dataset = _load_data(args)
    prior = _prior_from_args(args)
    config = _config_from_args(args)
    structure = empty_structure(dataset.n_variables)
    policy = initial_policy(dataset, config)
    policy, trace = coordinate_ascent(policy, structure, dataset, prior, config)
    total = network_score(policy, structure, dataset, prior).total
    drift = _score_drift(total, trace)

    out = Path(args.out)
    prefix = _out_prefix(args.out)
    data_path = prefix.with_name(prefix.name + ".data.csv")
    manifest_path = prefix.with_name(prefix.name + ".manifest.json")
    _write_json(out, policy_to_obj(policy, dataset.names))
    _write_text(data_path, _discretized_csv(dataset, policy))
    outputs = {"policy": out, "data": data_path, "manifest": manifest_path}
    _write_json(
        manifest_path,
        _manifest(
            "discretize",
            {"data": args.data, "schema": args.schema},
            outputs,
            prior,
            config,
            {
                "total_score": total,
                "score_drift": drift,
                "termination": trace.termination,
                "n_cases": dataset.n_cases,
                "n_variables": dataset.n_variables,
                "stats": dataclasses.asdict(trace.stats),
            },
            started,
        ),
    )
    print(f"wrote {out} (total score {total:.6f})")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    dataset = _load_data(args)
    prior = _prior_from_args(args)
    config = _config_from_args(args)
    structure, policy, trace = hill_climb_structure(dataset, prior, config)
    total = network_score(policy, structure, dataset, prior).total
    drift = _score_drift(total, trace)

    prefix = _out_prefix(args.out)
    paths = {
        "structure": prefix.with_name(prefix.name + ".structure.json"),
        "dot": prefix.with_name(prefix.name + ".structure.dot"),
        "policy": prefix.with_name(prefix.name + ".policy.json"),
        "trace": prefix.with_name(prefix.name + ".trace.jsonl"),
        "manifest": prefix.with_name(prefix.name + ".manifest.json"),
    }
    _write_json(paths["structure"], structure_to_obj(structure, dataset.names))
    _write_text(paths["dot"], to_dot(structure, dataset.names))
    _write_json(paths["policy"], policy_to_obj(policy, dataset.names))
    _write_text(paths["trace"], trace.to_jsonl())
    _write_json(
        paths["manifest"],
        _manifest(
            "learn",
            {"data": args.data, "schema": args.schema},
            paths,
            prior,
            config,
            {
                "total_score": total,
                "score_drift": drift,
                "termination": trace.termination,
                "n_cases": dataset.n_cases,
                "n_variables": dataset.n_variables,
                "n_edges": len(structure.edges()),
                "stats": dataclasses.asdict(trace.stats),
            },
            started,
        ),
    )
    print(
        f"learned {len(structure.edges())} edges "
        f"(total score {total:.6f}); wrote {paths['structure']}"
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
    obj = breakdown.to_obj(dataset.names)
    text = json.dumps(obj, indent=2, sort_keys=True)
    print(text)
    if args.out:
        _write_text(Path(args.out), text + "\n")
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

    prefix = _out_prefix(args.out)
    paths = {
        "data": prefix.with_name(prefix.name + ".csv"),
        "latent": prefix.with_name(prefix.name + ".latent.csv"),
        "schema": prefix.with_name(prefix.name + ".schema.json"),
        "mechanism": prefix.with_name(prefix.name + ".mechanism.json"),
        "manifest": prefix.with_name(prefix.name + ".manifest.json"),
    }
    value_rows = [[_float_cell(v) for v in row] for row in dataset.values]
    latent_rows = [[str(int(v)) for v in row] for row in latent]
    _write_text(paths["data"], _csv_text(dataset.names, value_rows))
    _write_text(paths["latent"], _csv_text(dataset.names, latent_rows))
    _write_json(paths["schema"], schema_to_obj(dataset.variables))
    _write_json(paths["mechanism"], mechanism_to_obj(mechanism))
    _write_json(
        paths["manifest"],
        _manifest(
            "simulate",
            {"mechanism": args.mechanism, "random": args.random, "n": args.n},
            paths,
            None,
            None,
            {"seed": mechanism.seed, "n_variables": mechanism.n},
            started,
        ),
    )
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
