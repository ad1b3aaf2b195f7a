import numpy as np
from hypothesis import HealthCheck, settings

from mixedbn import (
    Dataset,
    DiscretizationPolicy,
    NetworkPolicy,
    VariableMeta,
    sample_dataset,
)
from mixedbn.graph import validate_dag

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def continuous_dataset(values, bounds=None, names=None):
    """Dataset of continuous columns from an (N, n) array."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if values.shape[0] == 1 and values.shape[1] > 1 and names is None:
        values = values.T
    n = values.shape[1]
    names = names or [f"x{i + 1}" for i in range(n)]
    variables = tuple(
        VariableMeta(
            name=names[i],
            kind="continuous",
            bounds=None if bounds is None else tuple(bounds[i]),
        )
        for i in range(n)
    )
    return Dataset(variables=variables, values=values)


def mixed_dataset(spec):
    """Dataset from a list of (kind, values, extra) column specs.

    kind "c": extra is a bounds pair or None; kind "d": extra is the arity.
    """
    columns = []
    variables = []
    for i, (kind, values, extra) in enumerate(spec):
        arr = np.asarray(values, dtype=np.float64)
        columns.append(arr)
        if kind == "d":
            variables.append(
                VariableMeta(
                    name=f"x{i + 1}", kind="discrete",
                    arity=int(extra),
                )
            )
        else:
            variables.append(
                VariableMeta(
                    name=f"x{i + 1}", kind="continuous",
                    bounds=None if extra is None else tuple(extra),
                )
            )
    return Dataset(variables=tuple(variables), values=np.column_stack(columns))


def random_parent_sets(rng, n, p=0.4, max_parents=None):
    """Random acyclic parent sets via a hidden topological order."""
    order = rng.permutation(n)
    rank = {int(v): pos for pos, v in enumerate(order)}
    sets = [set() for _ in range(n)]
    for child in range(n):
        pool = [v for v in range(n) if rank[v] < rank[child]]
        for parent in pool:
            if rng.random() < p:
                sets[child].add(parent)
        if max_parents is not None and len(sets[child]) > max_parents:
            keep = rng.choice(sorted(sets[child]), size=max_parents, replace=False)
            sets[child] = {int(v) for v in keep}
    return sets


def random_dag(rng, n, p=0.4, max_parents=None):
    return validate_dag(random_parent_sets(rng, n, p, max_parents))


def random_discrete_instance(rng, n_max=3, cases_max=8, arity_max=3):
    """Random (codes, arities, parent_sets) triple for score-oracle checks."""
    n = int(rng.integers(1, n_max + 1))
    n_cases = int(rng.integers(1, cases_max + 1))
    arities = [int(rng.integers(1, arity_max + 1)) for _ in range(n)]
    codes = np.column_stack(
        [rng.integers(0, arities[i], size=n_cases) for i in range(n)]
    ).astype(np.int64)
    parent_sets = random_parent_sets(rng, n)
    return codes, arities, parent_sets


def random_mixed_dataset(rng, n_vars=4, n_cases=20):
    """Random dataset mixing continuous and discrete columns."""
    spec = []
    n_continuous = 0
    for i in range(n_vars):
        force_continuous = n_continuous == 0 and i == n_vars - 1
        if force_continuous or rng.random() < 0.6:
            values = np.round(rng.uniform(-5.0, 5.0, size=n_cases), 2)
            spec.append(("c", values, (-6.0, 6.0)))
            n_continuous += 1
        else:
            arity = int(rng.integers(2, 4))
            spec.append(("d", rng.integers(0, arity, size=n_cases), arity))
    return mixed_dataset(spec)


def odd_columns_discrete(mechanism, n_cases):
    """``sample_dataset`` table whose odd-indexed columns are replaced by
    their latent codes and declared discrete."""
    ds, codes = sample_dataset(mechanism, n_cases)
    values = ds.values.copy()
    variables = list(ds.variables)
    for i in range(1, mechanism.n, 2):
        values[:, i] = codes[:, i]
        variables[i] = VariableMeta(
            name=variables[i].name, kind="discrete",
            arity=mechanism.policies[i].arity,
        )
    return Dataset(variables=tuple(variables), values=values)


def random_network_policy(rng, dataset, r_hi=4):
    """Random valid policy: thresholds drawn from each column's candidates."""
    policies = []
    for i, var in enumerate(dataset.variables):
        if var.kind == "discrete":
            policies.append(DiscretizationPolicy.identity(var.arity))
            continue
        candidates = dataset.candidate_thresholds(i)
        lo, hi = dataset.policy_bounds(i)
        size = int(rng.integers(0, min(len(candidates), r_hi - 1) + 1))
        if size:
            picks = np.sort(rng.choice(candidates, size=size, replace=False))
            thresholds = tuple(float(t) for t in picks)
        else:
            thresholds = ()
        policies.append(
            DiscretizationPolicy(thresholds=thresholds, lower=lo, upper=hi)
        )
    return NetworkPolicy(policies=tuple(policies))
