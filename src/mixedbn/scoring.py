"""Bayesian scores for discretized networks over mixed data.

Every score is a natural logarithm.  The discrete part of a family score is
the Dirichlet-multinomial marginal likelihood of the child codes given each
parent configuration.  The continuous part of a variable's score is the
within-interval emission term: by default the log-density of a uniform draw
over each interval, alternatively a within-interval multinomial marginal over
the distinct observed values.  Uniform emission drops the constant
differential element shared by every policy of a column, so continuous
components are log-densities; rankings are unaffected.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .dataset import (
    SCHEMA_VERSION,
    Dataset,
    DiscretizationPolicy,
    NetworkPolicy,
    ValidationError,
    apply_policy,
    discretize_all,
)
from .graph import DagStructure

K2 = "k2"
BDEU = "bdeu"
UNIFORM_PRIOR = "uniform"
POISSON_PRIOR = "poisson"
UNIFORM_DENSITY = "uniform"
MULTINOMIAL_DENSITY = "multinomial"

# Largest allocation one count tally or one policy solve may make, checked
# before it allocates.
MEMORY_LIMIT_BYTES = 2 * 1024**3

# Smallest Dirichlet weight: scipy's lnΓ of a subnormal float is inf.
_MIN_WEIGHT = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters shared by every family score.

    ``dirichlet_mode`` selects how pseudo-counts scale: ``k2`` assigns
    ``alpha`` to every cell, ``bdeu`` divides ``ess`` evenly so that every
    family sees the same equivalent sample size.  ``policy_prior`` weights
    threshold policies: ``uniform`` is flat, ``poisson`` puts a truncated
    Poisson on the interval count combined with a uniform choice of threshold
    subset.  ``density_model`` selects the within-interval emission term.
    """

    dirichlet_mode: str = K2
    alpha: float = 1.0
    ess: float = 1.0
    policy_prior: str = UNIFORM_PRIOR
    poisson_rate: float = 2.0
    density_model: str = UNIFORM_DENSITY

    def __post_init__(self) -> None:
        if self.dirichlet_mode not in (K2, BDEU):
            raise ValidationError(
                f"dirichlet_mode must be {K2!r} or {BDEU!r}, got {self.dirichlet_mode!r}"
            )
        for field in ("alpha", "ess"):
            value = getattr(self, field)
            if not (value >= _MIN_WEIGHT and math.isfinite(value)):
                raise ValidationError(
                    f"{field} must be finite and at least {_MIN_WEIGHT}, the "
                    f"smallest normal float, got {value}"
                )
        if self.policy_prior not in (UNIFORM_PRIOR, POISSON_PRIOR):
            raise ValidationError(
                f"policy_prior must be {UNIFORM_PRIOR!r} or {POISSON_PRIOR!r}, "
                f"got {self.policy_prior!r}"
            )
        if self.policy_prior == POISSON_PRIOR and not self.poisson_rate >= 2:
            raise ValidationError(
                f"poisson_rate must be at least 2, got {self.poisson_rate}"
            )
        if self.density_model not in (UNIFORM_DENSITY, MULTINOMIAL_DENSITY):
            raise ValidationError(
                f"density_model must be {UNIFORM_DENSITY!r} or "
                f"{MULTINOMIAL_DENSITY!r}, got {self.density_model!r}"
            )

    def cell_weight(self, r: int, q: int) -> float:
        """Dirichlet pseudo-count per cell of an ``r`` by ``q`` family.

        A weight below the smallest normal float raises ValidationError
        naming ``ess``.  An array of sizes ``r`` is not checked: its caller
        checks the largest size once.
        """
        if self.dirichlet_mode == K2:
            return self.alpha
        weight = self.ess / (r * q)
        if isinstance(weight, float) and not weight >= _MIN_WEIGHT:
            raise ValidationError(
                f"ess {self.ess} leaves each cell of a {r} by {q} family a "
                f"pseudo-count of {weight}, below {_MIN_WEIGHT}, the smallest "
                "normal float; ess must be larger"
            )
        return weight


def _code_column(codes: np.ndarray, j: int, arity: int) -> np.ndarray:
    """Column ``j`` of an int64 code matrix, checked against ``arity``."""
    col = codes[:, j]
    # Read as unsigned, a negative code exceeds every arity.
    if col.view(np.uint64).max(initial=0) >= arity:
        raise ValueError(f"column {j} holds codes outside [0, {int(arity)})")
    return col


def family_tables(
    codes: np.ndarray,
    arities: Sequence[int],
    families: Iterable[tuple[int, frozenset[int], Sequence[frozenset[int]]]],
    *,
    names: Sequence[str],
) -> list[np.ndarray]:
    """Count tables of many families one edge edit away from a child's own.

    ``families`` holds ``(child, parents, sets)``, where each of ``sets`` is
    ``parents`` itself, or ``parents`` with one member added or one removed;
    any other set raises ValueError.  The tables come back in that order.
    Row ``j`` of a table is the parent configuration ``j``, a mixed-radix
    number over the sorted parents with the first most significant, and
    column ``k`` the child code ``k``.  Per child one base index
    ``cfg(sorted parents) * r + code`` is built.  An addition of ``a``
    tallies ``code_a * q * r + index`` and moves the axis of ``a`` to its
    sorted place by one transpose.  A removal sums the base table over the
    removed parent's axis, and ``parents`` itself is the base table, so
    neither reads the cases again.  Every code column read is range-checked
    once; a code outside ``[0, arity)`` raises ValueError.  A table larger
    than ``MEMORY_LIMIT_BYTES`` raises ValidationError, naming the child by
    its entry in ``names`` (one per code column), before anything is
    tallied.  The search's one tally: its family scores and its cut DP's
    counts come from here.
    """
    codes = np.asarray(codes).astype(np.int64, casting="safe", copy=False)
    checked: dict[int, np.ndarray] = {}

    def column(j: int) -> np.ndarray:
        col = checked.get(j)
        if col is None:
            col = checked[j] = _code_column(codes, j, arities[j])
        return col

    out = []
    # Each added parent's index is built in this one buffer.
    buffer = None
    for child, parents, sets in families:
        order = sorted(parents)
        dims = [int(arities[p]) for p in order]
        r = int(arities[child])
        size = math.prod(dims) * r
        cells = size * max(
            [int(arities[a]) for s in sets for a in s - parents], default=1
        )
        if 8 * cells > MEMORY_LIMIT_BYTES:
            raise ValidationError(
                f"variable {names[child]!r}: a count table of its family would "
                f"hold {cells} cells, {8 * cells / 2**20:.0f} MiB (limit "
                f"{MEMORY_LIMIT_BYTES / 2**20:.0f} MiB); recode the column to "
                "fewer states or declare it continuous"
            )
        index = 0
        for j in [*order, child]:
            index = index * int(arities[j]) + column(j)
        base = None
        for s in sets:
            added, removed = s - parents, parents - s
            if len(added) + len(removed) > 1:
                raise ValueError(
                    f"parent set {sorted(s)} of child {child} is not its parent "
                    f"set {order} or one edge edit from it"
                )
            if added:
                (a,) = added
                d = int(arities[a])
                if buffer is None:
                    buffer = np.empty_like(index)
                np.multiply(column(a), size, out=buffer)
                buffer += index
                joint = np.bincount(buffer, minlength=d * size)
                # Axes (a, parents before a, the rest): swap the first two.
                before = math.prod(dims[: bisect_left(order, a)])
                table = joint.reshape(d, before, -1).swapaxes(0, 1)
            else:
                if base is None:
                    base = np.bincount(index, minlength=size).reshape(*dims, r)
                table = base
                if removed:
                    (a,) = removed
                    table = base.sum(axis=order.index(a))
            out.append(table.reshape(-1, r))
    return out


class LogGammaTables:
    """``lnG(a + n)`` at the counts ``n`` of tables over ``n_cases`` cases,
    gathered from a held table of ``lnG(a + 0..n_cases)`` once pseudo-count
    ``a`` is asked for a second time, while the held tables fit in ``room``
    floats; else computed.  Either way each entry is ``gammaln`` of the same
    float ``a + n``, so both give the same bits."""

    def __init__(self, n_cases: int, room: int) -> None:
        self.n_cases = n_cases
        self.room = room
        # None marks a pseudo-count asked for once, or one that did not fit.
        self.tables: dict[float, np.ndarray | None] = {}

    def __call__(self, a: float, counts: np.ndarray) -> np.ndarray:
        table = self.tables.get(a)
        if table is None and a in self.tables and self.n_cases < self.room:
            table = self.tables[a] = gammaln(a + np.arange(self.n_cases + 1))
            table.flags.writeable = False
            self.room -= table.size
        self.tables.setdefault(a, None)
        return gammaln(a + counts) if table is None else table[counts]


def family_scores(
    tables: Sequence[np.ndarray],
    prior: PriorSpec,
    log_gamma: LogGammaTables | None = None,
) -> list[float]:
    """Log marginal likelihood of the child codes of each count table.

    ``tables[t][j, k]`` counts cases with parent configuration ``j`` and
    child code ``k``.  Each parent configuration contributes the log ratio
    of Dirichlet normalizers before and after observing its row of counts,
    so a child with a single code scores exactly zero.  The tables of one
    shape ``(q, r)`` are stacked as a ``(k, q, r)`` array, and each lnΓ
    term is taken in one call per shape, or with ``log_gamma``, the tables
    of a search over the same cases, gathered from its held table.  Each
    family's row terms and cell terms are the rows of ``(k, q)`` and
    ``(k, q·r)`` arrays, summed along the row: numpy reduces a contiguous
    row with the same pairwise sum as the 1-D ``sum`` of that row alone, so
    every score is bitwise the one it gets when scored alone, with or
    without ``log_gamma``.
    """
    lookup = log_gamma or (lambda a, counts: gammaln(a + counts))
    shapes: dict[tuple[int, int], list[int]] = {}
    for t, table in enumerate(tables):
        shapes.setdefault(table.shape, []).append(t)
    scores = np.empty(len(tables))
    for (q, r), members in shapes.items():
        stack = np.array([tables[t] for t in members])
        a_cell = prior.cell_weight(r, q)
        a_row = a_cell * r
        row_terms = gammaln(a_row) - lookup(a_row, stack.sum(axis=2))
        cell_terms = lookup(a_cell, stack) - gammaln(a_cell)
        scores[members] = (
            row_terms.sum(axis=1) + cell_terms.reshape(len(members), -1).sum(axis=1)
        )
    return scores.tolist()


def continuous_component(
    column: np.ndarray, policy: DiscretizationPolicy
) -> float:
    """Log-density of the column under per-interval uniform emission.

    Each case contributes the log reciprocal width of its interval.  The
    degenerate single-point policy of a constant column contributes zero.
    """
    if policy.trivial:
        return 0.0
    if policy.lower == policy.upper:
        return 0.0
    codes = apply_policy(column, policy)
    counts = np.bincount(codes, minlength=policy.arity)
    widths = np.diff(policy.interval_edges())
    return float(-np.sum(counts * np.log(widths)))


def _multinomial_emission(
    distinct: np.ndarray,
    counts: np.ndarray,
    policy: DiscretizationPolicy,
    prior: PriorSpec,
) -> float:
    """Within-interval multinomial marginal of a column whose ascending
    distinct values ``distinct`` are held by ``counts`` cases each: every
    interval is a Dirichlet-multinomial family over the values it holds."""
    if policy.trivial:
        return 0.0
    groups = apply_policy(distinct, policy)
    # Intervals holding no data are legal here; compact group ids first.
    present = np.unique(groups)
    groups = np.searchsorted(present, groups)
    n_groups = len(present)
    sizes = np.bincount(groups, minlength=n_groups)
    totals = np.bincount(groups, weights=counts, minlength=n_groups)
    score = 0.0
    for g in range(n_groups):
        members = counts[groups == g]
        a_cell = prior.cell_weight(int(sizes[g]), 1)
        a_group = a_cell * sizes[g]
        score += gammaln(a_group) - gammaln(a_group + totals[g])
        score += float(np.sum(gammaln(a_cell + members) - gammaln(a_cell)))
    return float(score)


def _log_comb(n: int, k: int) -> float:
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


@functools.lru_cache
def _poisson_log_norm(rate: float, n_cases: int) -> float:
    """Log normalizer of the Poisson law truncated to ``2..n_cases - 1``."""
    support = np.arange(2, n_cases)
    log_weights = support * math.log(rate) - gammaln(support + 1)
    return float(logsumexp(log_weights))


def interval_count_log_priors(
    r_cap: int, n_candidates: int, prior: PriorSpec, n_cases: int
) -> list[float]:
    """Log prior mass of any ``r``-interval policy over a column with
    ``n_candidates`` candidate cuts, for every count ``r`` in ``1..r_cap``.

    Zero in the uniform mode.  The Poisson mode puts a Poisson law with the
    configured rate, truncated to interval counts ``2..n_cases - 1``, on the
    interval count, and spreads each count's mass uniformly over the
    threshold subsets of that size; single-interval policies get no mass
    under it.  The Poisson normalizer is computed once for the whole range.
    """
    if r_cap - 1 > n_candidates:
        raise ValidationError(
            f"policy uses {r_cap - 1} thresholds but only {n_candidates} "
            "candidates exist"
        )
    if prior.policy_prior == UNIFORM_PRIOR:
        return [0.0] * r_cap
    top = n_cases - 1
    if prior.poisson_rate > max(top, 2):
        raise ValidationError(
            f"poisson_rate {prior.poisson_rate} exceeds the truncation "
            f"bound {top}"
        )
    log_norm = _poisson_log_norm(prior.poisson_rate, n_cases)
    out = []
    for r in range(1, r_cap + 1):
        if r < 2 or r > top:
            out.append(float("-inf"))
            continue
        log_pmf = r * math.log(prior.poisson_rate) - float(gammaln(r + 1))
        out.append(log_pmf - log_norm - _log_comb(n_candidates, r - 1))
    return out


def continuous_terms(
    dataset: Dataset, i: int, policy: DiscretizationPolicy, prior: PriorSpec
) -> tuple[float, float]:
    """The score terms continuous variable ``i`` owns under ``policy``: its
    emission under the prior's density model and its policy's log prior
    mass over the column's candidate cuts.  A discrete variable raises
    ValidationError."""
    n_candidates = len(dataset.candidate_thresholds(i))
    if prior.density_model == MULTINOMIAL_DENSITY:
        emission = _multinomial_emission(*dataset.distinct_values(i), policy, prior)
    else:
        emission = continuous_component(dataset.column(i), policy)
    log_prior = interval_count_log_priors(
        policy.arity, n_candidates, prior, dataset.n_cases
    )[-1]
    return emission, log_prior


def require_policy_mass(dataset: Dataset, prior: PriorSpec, r_max: int) -> None:
    """Raise ValidationError when some continuous column has no policy of
    at most ``r_max`` intervals to which the policy prior gives any mass.

    The Poisson prior spreads its mass over 2 to N - 1 intervals.  A column
    with fewer than 3 cases or no candidate cut has no such policy, and
    neither has any column under an interval cap below 2, so every total
    would be -inf and no search could rank anything.
    """
    if prior.policy_prior != POISSON_PRIOR:
        return
    continuous = dataset.continuous_indices()
    for i in continuous:
        cuts = len(dataset.candidate_thresholds(i))
        if dataset.n_cases < 3 or cuts == 0:
            raise ValidationError(
                f"continuous variable {dataset.names[i]!r} has no policy with "
                "mass under the poisson policy prior, which needs 2 to N - 1 "
                "intervals, so at least 3 cases and 2 distinct values to cut "
                f"between (N = {dataset.n_cases}, candidate cuts = {cuts}); "
                "declare it discrete or use the uniform policy prior"
            )
    if continuous and r_max < 2:
        raise ValidationError(
            "the poisson policy prior needs at least 2 intervals per continuous "
            f"variable, but the interval cap is r_max = {r_max}; raise r_max "
            "or use the uniform policy prior"
        )


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-variable score components; discrete variables have zero emission
    and zero policy prior."""

    emission: np.ndarray
    discrete: np.ndarray
    log_prior: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.emission + self.discrete + self.log_prior))

    def to_obj(self, names: Sequence[str]) -> dict:
        variables = [
            {
                "name": name,
                "emission": float(self.emission[i]),
                "discrete": float(self.discrete[i]),
                "log_prior": float(self.log_prior[i]),
            }
            for i, name in enumerate(names)
        ]
        return {"schema_version": SCHEMA_VERSION, "total": self.total,
                "variables": variables}

    def finite_total(self, names: Sequence[str], whose: str) -> float:
        """The total; when it is not finite, ValidationError naming the
        variable whose policy, ``whose``, has no mass under the policy
        prior, or else the first variable and term that is not finite."""
        total = self.total
        if math.isfinite(total):
            return total
        if np.isneginf(self.log_prior).any():
            worst = names[int(np.argmin(self.log_prior))]
            cause = f"the {whose} of {worst!r} has no mass under the policy prior"
        else:
            terms = {"emission": self.emission, "discrete": self.discrete,
                     "log_prior": self.log_prior}
            cause = next(
                f"the {term} term of {name!r} is {values[i]}"
                for i, name in enumerate(names)
                for term, values in terms.items()
                if not math.isfinite(values[i])
            )
        raise ValidationError(f"{cause}, so the network scores {total}")


def network_score(
    policy: NetworkPolicy,
    structure: DagStructure,
    dataset: Dataset,
    prior: PriorSpec,
) -> ScoreBreakdown:
    """Total network score, reported per variable.

    Each variable contributes the marginal likelihood of its codes given its
    parents' codes, plus, when continuous, its emission term and policy log
    prior.  Variables outside a family are never touched, so edits to one
    policy leave every other variable's entries bit-identical.
    """
    if structure.n != dataset.n_variables:
        raise ValidationError(
            f"structure has {structure.n} nodes, dataset {dataset.n_variables} variables"
        )
    n = dataset.n_variables
    tables = family_tables(
        discretize_all(dataset, policy),
        policy.arities(),
        [(i, ps, [ps]) for i, ps in enumerate(structure.parents)],
        names=dataset.names,
    )
    discrete = np.array(family_scores(tables, prior))
    emission = np.zeros(n)
    log_prior = np.zeros(n)
    for i in range(n):
        if dataset.is_continuous(i):
            emission[i], log_prior[i] = continuous_terms(dataset, i, policy[i], prior)
    return ScoreBreakdown(emission, discrete, log_prior)

