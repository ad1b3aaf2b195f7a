"""Synthetic data with known discretization ground truth.

A mechanism is a discrete Bayesian network over latent codes plus one
threshold policy per variable.  Sampling draws each latent code from its
conditional table, then emits a real value uniformly within the code's
interval, respecting the half-open interval convention so that re-applying
the policy reproduces the latent code exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    CONTINUOUS,
    SCHEMA_VERSION,
    Dataset,
    DiscretizationPolicy,
    ValidationError,
    VariableMeta,
    read_json,
)
from .graph import DagStructure, validate_dag

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Mechanism:
    """Latent network, conditional tables, and emission policies.

    ``cpts[i]`` has one row per joint configuration of the sorted parents of
    variable ``i`` (mixed radix, first parent most significant) and one
    column per code.  Policies must be threshold policies with finite
    bounds; their arities fix the table widths.
    """

    structure: DagStructure
    cpts: tuple[np.ndarray, ...]
    policies: tuple[DiscretizationPolicy, ...]
    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"mechanism seed must be >= 0, got {self.seed}")
        n = self.structure.n
        if len(self.cpts) != n or len(self.policies) != n:
            raise ValidationError(
                f"mechanism needs {n} tables and policies, got "
                f"{len(self.cpts)} and {len(self.policies)}"
            )
        for i in range(n):
            pol = self.policies[i]
            if pol.trivial:
                raise ValidationError(
                    f"variable {i}: mechanisms use threshold policies only"
                )
            r = pol.arity
            q = 1
            for p in sorted(self.structure.parents[i]):
                q *= self.policies[p].arity
            cpt = self.cpts[i]
            if cpt.shape != (q, r):
                raise ValidationError(
                    f"variable {i}: table shape {cpt.shape} does not match "
                    f"({q}, {r})"
                )
            if (cpt < 0).any() or np.abs(cpt.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
                raise ValidationError(
                    f"variable {i}: table rows must be distributions"
                )

    @property
    def n(self) -> int:
        return self.structure.n

    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.n))


def random_mechanism(
    n: int, max_parents: int, arity: int, seed: int
) -> Mechanism:
    """Random mechanism: each node picks parents among earlier nodes,
    tables are symmetric-Dirichlet draws, and every policy cuts ``[0, 1]``
    into ``arity`` equal intervals."""
    if n < 1:
        raise ValidationError(f"need at least one variable, got {n}")
    if arity < 2:
        raise ValidationError(f"arity must be >= 2, got {arity}")
    if max_parents < 0:
        raise ValidationError(f"max_parents must be >= 0, got {max_parents}")
    if seed < 0:
        raise ValidationError(f"mechanism seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    parent_sets: list[set[int]] = []
    for i in range(n):
        k = int(rng.integers(0, min(max_parents, i) + 1))
        chosen = set(rng.choice(i, size=k, replace=False).tolist()) if k else set()
        parent_sets.append(chosen)
    structure = validate_dag(parent_sets)
    thresholds = tuple(float(j) / arity for j in range(1, arity))
    policy = DiscretizationPolicy(thresholds, 0.0, 1.0)
    cpts = []
    for i in range(n):
        q = arity ** len(parent_sets[i])
        cpts.append(rng.dirichlet(np.ones(arity), size=q))
    return Mechanism(structure, tuple(cpts), tuple(policy for _ in range(n)), seed)


def sample_dataset(
    mechanism: Mechanism, n_cases: int
) -> tuple[Dataset, np.ndarray]:
    """Draw cases; returns the continuous dataset and the latent codes.

    One random stream per variable, split from the mechanism seed, consumed
    as the code uniforms followed by the emission uniforms; results depend
    only on the seed, never on evaluation order.  Emitted values stay inside
    the half-open interval of their code: a draw landing on an interior
    interval's open lower edge is nudged one ulp inward.
    """
    if n_cases < 1:
        raise ValidationError(f"need at least one case, got {n_cases}")
    n = mechanism.n
    streams = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(mechanism.seed).spawn(n)
    ]
    codes = np.zeros((n_cases, n), dtype=np.int64)
    values = np.zeros((n_cases, n), dtype=np.float64)
    for i in mechanism.structure.topo_order:
        rng = streams[i]
        parents = sorted(mechanism.structure.parents[i])
        if parents:
            dims = [mechanism.policies[p].arity for p in parents]
            cfg = np.ravel_multi_index([codes[:, p] for p in parents], dims)
        else:
            cfg = np.zeros(n_cases, dtype=np.int64)
        rows = mechanism.cpts[i][cfg]
        cum = np.cumsum(rows, axis=1)
        u = rng.random(n_cases)
        drawn = (u[:, None] >= cum).sum(axis=1)
        codes[:, i] = np.minimum(drawn, mechanism.policies[i].arity - 1)

        edges = mechanism.policies[i].interval_edges()
        lo = edges[codes[:, i]]
        hi = edges[codes[:, i] + 1]
        x = lo + rng.random(n_cases) * (hi - lo)
        on_open_edge = (x == lo) & (codes[:, i] > 0)
        values[:, i] = np.where(on_open_edge, np.nextafter(x, np.inf), x)

    metas = [
        VariableMeta(
            name,
            CONTINUOUS,
            bounds=(mechanism.policies[idx].lower, mechanism.policies[idx].upper),
        )
        for idx, name in enumerate(mechanism.names())
    ]
    return Dataset(metas, values), codes


def mechanism_to_obj(mechanism: Mechanism) -> dict:
    """JSON-ready form of a mechanism."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": mechanism.seed,
        "variables": [
            {
                "name": name,
                "parents": sorted(mechanism.structure.parents[i]),
                "cpt": mechanism.cpts[i].tolist(),
                "thresholds": [float(t) for t in mechanism.policies[i].thresholds],
                "bounds": [
                    float(mechanism.policies[i].lower),
                    float(mechanism.policies[i].upper),
                ],
            }
            for i, name in enumerate(mechanism.names())
        ],
    }


def mechanism_from_obj(payload: dict) -> Mechanism:
    """Rebuild a mechanism from its JSON form."""
    if not isinstance(payload, dict) or "variables" not in payload:
        raise ValidationError("mechanism JSON must be an object with 'variables'")
    entries = payload["variables"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError("mechanism 'variables' must be a non-empty list")
    parent_sets = []
    cpts = []
    policies = []
    for pos, entry in enumerate(entries):
        try:
            parent_sets.append([int(p) for p in entry["parents"]])
            cpts.append(np.asarray(entry["cpt"], dtype=np.float64))
            bounds = entry["bounds"]
            policies.append(
                DiscretizationPolicy(
                    tuple(float(t) for t in entry["thresholds"]),
                    float(bounds[0]),
                    float(bounds[1]),
                )
            )
        except ValidationError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValidationError(
                f"mechanism variable {pos} is malformed: {exc}"
            ) from None
    structure = validate_dag(parent_sets)
    return Mechanism(
        structure, tuple(cpts), tuple(policies), int(payload.get("seed", 0))
    )


def load_mechanism(source) -> Mechanism:
    """Read a mechanism JSON file."""
    return mechanism_from_obj(read_json(source, "mechanism"))
