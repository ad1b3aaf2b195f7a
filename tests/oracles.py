"""Hand-rolled reference implementations used to cross-check the package.

Each oracle takes a deliberately different route from the code under test:
the sequential chain rule instead of log-gamma ratios, a count over rows
instead of a vectorized tally, and subset enumeration instead of the
segmentation dynamic program.  Two routes to d-separation, which no command
needs, check each other here: :func:`moral_dsep` by moralization and
:func:`d_separated` by an active-trail sweep.
Everything here sticks to plain Python loops and math calls, except
:func:`closed_form_family_score`, the Dirichlet ratio of one table summed
with ``np.sum``, :func:`multinomial_component`, the package's multinomial
emission of a column whose distinct values it counts with ``np.unique``
(:func:`plain_multinomial_emission` is its plain-loop reference),
:func:`family_score`, which applies :func:`closed_form_family_score` to
:func:`family_counts`, :func:`local_score`, which sums those family scores
and the package's other score terms on a freshly coded matrix,
:func:`exhaustive_policy_search`, which scores each enumerated subset with
it, :func:`reference_prefix_tables`, the cut problem's count tables from a
sorted-order state index instead of the package's family tally,
:func:`reference_slice_terms`, the cut problem's lnΓ slice terms with one
gather per state and cell, and :class:`DenseCutProblem`, the segmentation
DP over whole dense cost matrices on those tables, which the row-blocked DP
must match bit for bit where it sums slice terms state by state, and within
a fixed bound where the row recurrence builds a block.
The family scores here equal the package's bit for bit.
Two references keep earlier forms of fast paths:
:func:`reference_csv_values`, the CSV loader's cell-by-cell parse, and
:func:`reference_scan`, the edge scan over a list of ``(op, parent,
child)`` tuples that :func:`reference_edit_candidates` finds by building
each edited graph.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Iterable

import numpy as np
from scipy.special import gammaln

from mixedbn import (
    Dataset,
    DagStructure,
    DiscretizationPolicy,
    NetworkPolicy,
    PriorSpec,
    ValidationError,
    apply_policy,
)
from mixedbn import scoring
from mixedbn.dataset import read_text
from mixedbn.graph import CycleError, validate_dag
from mixedbn.scoring import (
    BDEU,
    MULTINOMIAL_DENSITY,
    continuous_terms,
    interval_count_log_priors,
)
from mixedbn.cutdp import TIE_TOLERANCE, _CutProblem
from mixedbn.search import _EDIT_OPS

EXHAUSTIVE_CANDIDATE_LIMIT = 20


def sequential_log_marginal(
    codes,
    arities,
    child,
    parents,
    mode="k2",
    alpha=1.0,
    ess=1.0,
):
    """Chain-rule log marginal likelihood of one child column.

    Walks the cases in order, multiplying the posterior-predictive
    probability of each code given the counts seen so far within its parent
    configuration.  Equivalent to the closed-form Dirichlet ratio but never
    touches a gamma function.
    """
    codes = np.asarray(codes)
    r = int(arities[child])
    q = 1
    for p in parents:
        q *= int(arities[p])
    if mode == "k2":
        a_cell = float(alpha)
    elif mode == "bdeu":
        a_cell = float(ess) / (r * q)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    a_row = a_cell * r

    seen_cell: dict[tuple, int] = {}
    seen_row: dict[tuple, int] = {}
    log_p = 0.0
    for row in range(codes.shape[0]):
        cfg = tuple(int(codes[row, p]) for p in parents)
        k = int(codes[row, child])
        num = a_cell + seen_cell.get(cfg + (k,), 0)
        den = a_row + seen_row.get(cfg, 0)
        log_p += math.log(num / den)
        seen_cell[cfg + (k,)] = seen_cell.get(cfg + (k,), 0) + 1
        seen_row[cfg] = seen_row.get(cfg, 0) + 1
    return log_p


def closed_form_family_score(table, prior):
    """Dirichlet ratio of one ``(q, r)`` count table in closed form.

    The row terms and the cell terms are each summed with ``np.sum`` over
    that table's own array, one table at a time.
    """
    q, r = table.shape
    a_cell = prior.cell_weight(r, q)
    a_row = a_cell * r
    row_part = np.sum(gammaln(a_row) - gammaln(a_row + table.sum(axis=1)))
    cell_part = np.sum(gammaln(a_cell + table) - gammaln(a_cell))
    return float(row_part + cell_part)


def family_counts(codes, arities, child, parents):
    """``(q, r)`` count table of one child against its parent
    configurations, counted one row at a time.

    Configuration ``j`` is the mixed-radix number of the parents' codes in
    the given order, the first most significant.
    """
    codes = np.asarray(codes)
    dims = [int(arities[p]) for p in parents]
    r = int(arities[child])
    table = [[0] * r for _ in range(math.prod(dims))]
    columns = [codes[:, j].tolist() for j in [*parents, child]]
    for *cfg, k in zip(*columns):
        j = 0
        for code, d in zip(cfg, dims):
            j = j * d + code
        table[j][k] += 1
    return np.array(table, dtype=np.int64).reshape(-1, r)


def family_score(codes, arities, child, parent_set, prior):
    """Discrete score of one family read from a full code matrix, with the
    parents in sorted order."""
    table = family_counts(codes, arities, child, sorted(parent_set))
    return closed_form_family_score(table, prior)


def moral_dsep(parent_sets, i, j, given=()):
    """d-separation by moralizing the ancestral subgraph.

    Builds the ancestral closure of the endpoints and the conditioning set,
    marries co-parents inside it, drops edge directions, deletes the
    conditioning nodes, and checks plain undirected reachability.
    """
    given = set(given)
    anc = set(given) | {i, j}
    frontier = list(anc)
    while frontier:
        v = frontier.pop()
        for p in parent_sets[v]:
            if p not in anc:
                anc.add(p)
                frontier.append(p)

    adjacency: dict[int, set[int]] = {v: set() for v in anc}
    for v in anc:
        ps = sorted(parent_sets[v])
        for p in ps:
            adjacency[v].add(p)
            adjacency[p].add(v)
        for a, b in itertools.combinations(ps, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)

    blocked = given
    if i in blocked or j in blocked:
        raise ValueError("conditioning set cannot contain an endpoint")
    reached = {i}
    frontier = [i]
    while frontier:
        v = frontier.pop()
        if v == j:
            return False
        for w in adjacency[v]:
            if w not in reached and w not in blocked:
                reached.add(w)
                frontier.append(w)
    return True


def d_separated(
    structure: DagStructure, i: int, j: int, given: Iterable[int] = ()
) -> bool:
    """True when every path between ``i`` and ``j`` is blocked by ``given``.

    Uses the standard active-trail reachability sweep: states are
    (node, direction) pairs, where direction records whether the node was
    entered through a child (up) or a parent (down).
    """
    z = frozenset(int(v) for v in given)
    if i == j:
        raise ValidationError("d-separation needs two distinct endpoints")
    if i in z or j in z:
        raise ValidationError("conditioning set cannot contain an endpoint")

    # z and all its ancestors: exactly the nodes that open colliders.
    opens = set(z)
    stack = [p for v in z for p in structure.parents[v]]
    while stack:
        v = stack.pop()
        if v not in opens:
            opens.add(v)
            stack.extend(structure.parents[v])

    up, down = 0, 1
    frontier = [(i, up)]
    visited: set[tuple[int, int]] = set()
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        node, direction = state
        if node == j:
            return False
        if direction == up:
            if node in z:
                continue
            frontier.extend((p, up) for p in structure.parents[node])
            frontier.extend((c, down) for c in structure.children[node])
        else:
            if node not in z:
                frontier.extend((c, down) for c in structure.children[node])
            if node in opens:
                frontier.extend((p, up) for p in structure.parents[node])
    return True


def ks_statistic(sample, cdf):
    """Two-sided Kolmogorov-Smirnov statistic against a given CDF."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    f = np.array([cdf(v) for v in x])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def brute_univariate_best(values, lower, upper, candidates, alpha=1.0):
    """Best single-variable policy by direct enumeration.

    Scores every subset of the candidate thresholds with first-principles
    arithmetic: interval widths for the emission term and the sequential
    chain rule for the code term.  Ties resolve toward fewer intervals and
    then lexicographically smaller threshold tuples, matching the package's
    stated order.  Returns (thresholds, score).
    """
    values = np.asarray(values, dtype=np.float64)
    best = None
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            edges = [lower, *subset, upper]
            codes = np.zeros(len(values), dtype=int)
            for pos, v in enumerate(values):
                k = 0
                while k < size and v > subset[k]:
                    k += 1
                codes[pos] = k
            emission = 0.0
            for pos in range(len(values)):
                k = codes[pos]
                emission -= math.log(edges[k + 1] - edges[k])
            discrete = sequential_log_marginal(
                codes.reshape(-1, 1), [size + 1], 0, [], alpha=alpha
            )
            score = emission + discrete
            if best is None or score > best[1]:
                best = (subset, score)
    return best


def multinomial_component(column, policy, prior):
    """Within-interval multinomial marginal of a raw column: the reference
    for ``scoring._multinomial_emission``, which :func:`continuous_terms`
    runs on the dataset's cached distinct values, here counted afresh by
    ``np.unique``."""
    values = np.asarray(column, dtype=np.float64)
    return scoring._multinomial_emission(
        *np.unique(values, return_counts=True), policy, prior
    )


def plain_multinomial_emission(column, policy, prior):
    """Within-interval multinomial marginal of a raw column, one interval
    and one distinct value at a time: the independent reference for
    ``scoring._multinomial_emission``.

    A dict counts the values and each value's interval is the number of
    thresholds below it.  Every interval holding data is a
    Dirichlet-multinomial family over its k distinct values, a pseudo-count
    of ``prior.cell_weight(k, 1)`` each; an interval holding none costs
    nothing.  Every term comes from ``math.lgamma``."""
    counts: dict[float, int] = {}
    for x in column:
        counts[float(x)] = counts.get(float(x), 0) + 1
    intervals: dict[int, list[int]] = {}
    for x, n in counts.items():
        code = sum(1 for t in policy.thresholds if t < x)
        intervals.setdefault(code, []).append(n)
    score = 0.0
    for members in intervals.values():
        k = len(members)
        a = prior.cell_weight(k, 1)
        score += math.lgamma(a * k) - math.lgamma(a * k + sum(members))
        for n in members:
            score += math.lgamma(a + n) - math.lgamma(a)
    return score


def local_score(
    i: int,
    policy: NetworkPolicy,
    structure: DagStructure,
    dataset: Dataset,
    prior: PriorSpec,
) -> float:
    """Every score term that depends on the policy of variable ``i``.

    Covers the variable's own family, its emission term and policy prior,
    and the families of its children, where its codes act as a parent.
    Maximizing this over policies of ``i`` maximizes the network score.
    """
    needed: set[int] = {i} | set(structure.parents[i])
    for child in structure.children[i]:
        needed.add(child)
        needed |= set(structure.parents[child])
    # Columns outside these families are never read, so they stay zero.
    codes = np.zeros((dataset.n_cases, dataset.n_variables), dtype=np.int64)
    for v in needed:
        codes[:, v] = apply_policy(dataset.column(v), policy[v])
    arities = policy.arities()

    score = family_score(codes, arities, i, structure.parents[i], prior)
    for child in sorted(structure.children[i]):
        score += family_score(codes, arities, child, structure.parents[child], prior)
    if dataset.is_continuous(i):
        emission, log_prior = continuous_terms(dataset, i, policy[i], prior)
        score += emission
        score += log_prior
    return float(score)


def exhaustive_policy_search(
    i: int,
    policy: NetworkPolicy,
    structure: DagStructure,
    dataset: Dataset,
    prior: PriorSpec,
    r_max: int,
) -> tuple[DiscretizationPolicy, float]:
    """Score every admissible threshold subset of variable ``i`` directly.

    Independent reference for :func:`optimize_variable`; subsets are visited
    by size then lexicographic order, and the first one scoring within
    ``TIE_TOLERANCE`` of the maximum wins, so ties break identically.
    """
    if not dataset.is_continuous(i):
        raise ValidationError(
            f"variable {dataset.names[i]!r} is discrete; nothing to optimize"
        )
    cands = dataset.candidate_thresholds(i)
    m = len(cands)
    if m > EXHAUSTIVE_CANDIDATE_LIMIT:
        raise ValidationError(
            f"refusing exhaustive search over {m} candidates "
            f"(limit {EXHAUSTIVE_CANDIDATE_LIMIT})"
        )
    lo, hi = dataset.policy_bounds(i)

    def subsets() -> Iterable[tuple[int, ...]]:
        for size in range(0, min(r_max - 1, m) + 1):
            yield from itertools.combinations(range(m), size)

    def scored(combo: tuple[int, ...]) -> tuple[DiscretizationPolicy, float]:
        cand = DiscretizationPolicy(
            tuple(float(cands[c]) for c in combo), lo, hi
        )
        return cand, local_score(
            i, policy.with_policy(i, cand), structure, dataset, prior
        )

    scores = [scored(combo)[1] for combo in subsets()]
    best_score = max(scores)
    winner = next(
        combo
        for combo, score in zip(subsets(), scores)
        if score >= best_score - TIE_TOLERANCE
    )
    best_policy, score = scored(winner)
    return best_policy, score


def reference_prefix_tables(i, policy, structure, dataset):
    """Prefix count tables of the cut problem of ``i``, tallied separately.

    The cases are read in sorted order of column ``i``, and each case's fine
    segment is found from where the candidate cuts fall among them.  A state
    index over the members of a family comes from ``ravel_multi_index``,
    and one ``bincount`` of ``state * (M+1) + segment`` per table, cumulated
    along the segments, gives its rows.  Returns the cut positions framed by
    0 and N, the own family's state count and prefix table, and per child
    ``(r_child, q_other, cell_prefix, margin_prefix)``, rows ordered as in
    :class:`_CutProblem`.
    """
    n = dataset.n_cases
    order = np.argsort(dataset.column(i), kind="stable")
    cands = dataset.candidate_thresholds(i)
    m = len(cands)
    cut_pos = np.searchsorted(dataset.column(i)[order], cands, side="left")
    positions = np.concatenate(([0], cut_pos, [n]))
    segment = np.searchsorted(cut_pos, np.arange(n), side="right")

    def sorted_codes(v):
        return apply_policy(dataset.column(v), policy[v])[order]

    def config_states(members):
        if not members:
            return np.zeros(n, dtype=np.int64), 1
        dims = [policy[p].arity for p in members]
        states = np.ravel_multi_index([sorted_codes(p) for p in members], dims)
        return states.astype(np.int64), math.prod(dims)

    def prefix(states, n_states):
        fine = np.bincount(states * (m + 1) + segment, minlength=n_states * (m + 1))
        out = np.zeros((n_states, m + 2), dtype=np.int64)
        np.cumsum(fine.reshape(n_states, m + 1), axis=1, out=out[:, 1:])
        return out

    own_states, q_own = config_states(sorted(structure.parents[i]))
    child_tables = []
    for child in sorted(structure.children[i]):
        r_child = policy[child].arity
        other_states, q_other = config_states(sorted(structure.parents[child] - {i}))
        joint = other_states * r_child + sorted_codes(child)
        cell_prefix = prefix(joint, q_other * r_child)
        margin_prefix = cell_prefix.reshape(q_other, r_child, -1).sum(axis=1)
        child_tables.append((r_child, q_other, cell_prefix, margin_prefix))
    return positions, q_own, prefix(own_states, q_own), child_tables


def reference_slice_terms(problem, prefix, a, lo, hi):
    """``problem._slice_terms`` of ``problem._state_counts(prefix, lo,
    hi)`` and ``a``, gathered one cell at a time per state: for every
    non-empty row of ``prefix``, the counts of rows ``lo..hi-1`` to columns
    ``lo+1..M+1`` index the lnΓ table, and ``lnG(a)`` is subtracted after
    each row, whatever its value.  It takes a full table too, where
    ``_state_counts`` takes only the live rows."""
    lut = gammaln(a + np.arange(problem.n_cases + 1))
    out = np.zeros((hi - lo, problem.m + 1 - lo))
    for row in prefix:
        if row[-1] == 0:
            continue
        out += lut[row[lo + 1:] - row[lo:hi, None]]
        out -= lut[0]
    return out


class DenseCutProblem(_CutProblem):
    """The segmentation DP over dense (M+2)² cost matrices.

    Takes the column from the constructor of :class:`_CutProblem` and its
    prefix tables from :func:`reference_prefix_tables` alone, never from the
    package's tally, and builds every cost matrix whole, lower triangle
    included and masked to ``-inf``, with one matrix per interval count
    under shared sample size.  Reference for the row-blocked DP, whose
    solves must match it exactly: :meth:`dense_solve` for
    :meth:`_CutProblem.solve`.
    :meth:`count_penalty` sums one interval count's row terms at a time, the
    reference for :meth:`_CutProblem.count_penalties`.
    """

    def __init__(self, i, policy, structure, dataset, prior, r_cap=12):
        super().__init__(
            i, dataset, prior, r_cap, scoring.LogGammaTables(dataset.n_cases, 0)
        )
        self.positions, self.q_own, self.own_prefix, self.child_tables = (
            reference_prefix_tables(i, policy, structure, dataset)
        )
        self.own_totals = self.own_prefix[:, -1]
        column = dataset.column(i)
        sorted_vals = column[np.argsort(column, kind="stable")]
        distinct, self.occ = np.unique(sorted_vals, return_counts=True)
        row_distinct = np.searchsorted(distinct, sorted_vals)
        self.d_pos = np.append(row_distinct, len(distinct))[self.positions]
        cols = np.arange(self.m + 2)
        self.valid = cols[None, :] > cols[:, None]
        self.counts = np.maximum(
            self.positions[None, :] - self.positions[:, None], 0
        )
        self.density = self._density_matrix()
        self._tables = {}

    def _dense_slice_terms(self, prefix, a, sign):
        """Sum over non-empty states of ``sign * (lnG(a + n) - lnG(a))``."""
        lut = gammaln(a + np.arange(self.n_cases + 1))
        out = np.zeros_like(self.counts, dtype=np.float64)
        for row in prefix:
            if row[-1] == 0:
                continue
            n = np.maximum(row[None, :] - row[:, None], 0)
            out += lut[n]
            out -= lut[0]
        return sign * out

    def _density_matrix(self):
        """Per-interval emission cost for every cut pair."""
        if self.prior.density_model != MULTINOMIAL_DENSITY:
            widths = self.values[None, :] - self.values[:, None]
            safe = np.where(widths > 0, widths, 1.0)
            return -self.counts * np.log(safe)
        k = np.maximum(self.d_pos[None, :] - self.d_pos[:, None], 0)
        group = np.maximum(k, 1)
        a = self.prior.cell_weight(group, 1)
        base = gammaln(a)
        cells = np.zeros(k.shape)
        for c in np.unique(self.occ):
            seen = np.concatenate(([0], np.cumsum(self.occ == c)))[self.d_pos]
            cells += (seen[None, :] - seen[:, None]) * (gammaln(a + c) - base)
        group_a = a * group
        margins = gammaln(group_a) - gammaln(group_a + self.counts)
        return np.where(k > 0, margins + cells, 0.0)

    def _interval_matrix(self, r):
        """Cost matrix ``G`` for ``r`` intervals."""
        g = self.density + self._dense_slice_terms(
            self.own_prefix, self.prior.cell_weight(r, self.q_own), 1
        )
        for r_child, q_other, cell_prefix, margin_prefix in self.child_tables:
            a_cell = self.prior.cell_weight(r_child, r * q_other)
            g += self._dense_slice_terms(cell_prefix, a_cell, 1)
            g += self._dense_slice_terms(margin_prefix, a_cell * r_child, -1)
        return np.where(self.valid, g, -np.inf)

    def table(self, r):
        """Cost matrix for ``r`` intervals and its DP layers ``0..r``.

        ``layers[k][u]`` is the best score of ``k`` intervals covering cuts
        ``u..M+1``.
        """
        key = r if self.prior.dirichlet_mode == BDEU else None
        table = self._tables.get(key)
        if table is None:
            g = self._interval_matrix(r)
            table = (g, [np.full(self.m + 2, -np.inf), g[:, -1].copy()])
            self._tables[key] = table
        g, layers = table
        interior = slice(1, self.m + 1)
        while len(layers) <= r:
            scores = g[:, interior] + layers[-1][interior][None, :]
            scores = np.where(self.valid[:, interior], scores, -np.inf)
            layers.append(scores.max(axis=1, initial=-np.inf))
        return g, layers

    def count_penalty(self, r):
        """Own-family row terms of ``r`` intervals, summed with ``np.sum``."""
        a_row = self.prior.cell_weight(r, self.q_own) * r
        return float(np.sum(gammaln(a_row) - gammaln(a_row + self.own_totals)))

    def _dense_reconstruct(self, g, layers, r):
        cuts = []
        u = 0
        for k in range(r, 1, -1):
            scores = g[u, 1: self.m + 1] + layers[k - 1][1: self.m + 1]
            scores = np.where(np.arange(1, self.m + 1) > u, scores, -np.inf)
            top = scores.max(initial=-np.inf)
            v = int(np.argmax(scores >= top - TIE_TOLERANCE)) + 1
            cuts.append(v)
            u = v
        return tuple(float(self.cands[c - 1]) for c in cuts)

    def dense_solve(self):
        r_cap = self.r_cap
        log_priors = interval_count_log_priors(r_cap, self.m, self.prior, self.n_cases)
        totals = [
            self.table(r)[1][r][0] + self.count_penalty(r) + log_priors[r - 1]
            for r in range(1, r_cap + 1)
        ]
        best_total = max(totals)
        if not np.isfinite(best_total):
            return DiscretizationPolicy((), self.lower, self.upper)
        r = 1 + next(
            k for k, t in enumerate(totals) if t >= best_total - TIE_TOLERANCE
        )
        thresholds = self._dense_reconstruct(*self.table(r), r)
        return DiscretizationPolicy(thresholds, self.lower, self.upper)


def reference_csv_values(source):
    """The data values of a CSV table with a header row, parsed one cell at
    a time with ``float``, as ``load_dataset`` parsed every table before it
    converted them in one call; raises its ValidationError for the first
    bad cell in row order."""
    reader = csv.reader(io.StringIO(read_text(source, "data")))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty input: no header row") from None
    names = [h.strip() for h in header]
    if any(not n for n in names):
        raise ValidationError("header contains an empty column name")
    if len(set(names)) != len(names):
        raise ValidationError("header contains duplicate column names")
    rows = []
    for row_num, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(names):
            raise ValidationError(
                f"data row {row_num} has {len(row)} fields, expected {len(names)}"
            )
        parsed = []
        for name, cell in zip(names, row):
            token = cell.strip()
            if not token:
                raise ValidationError(
                    f"missing value in column {name!r} at data row {row_num}"
                )
            try:
                value = float(token)
            except ValueError:
                raise ValidationError(
                    f"non-numeric value {token!r} in column {name!r} "
                    f"at data row {row_num}"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"non-finite value {token!r} in column {name!r} "
                    f"at data row {row_num}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ValidationError("dataset needs at least one case")
    return np.asarray(rows, dtype=np.float64)


def edited(structure, op, u, v):
    """``structure`` after one edge edit, rebuilt from its parent sets."""
    sets = [set(ps) for ps in structure.parents]
    if op == "add":
        sets[v].add(u)
    else:
        sets[v].remove(u)
    if op == "reverse":
        sets[u].add(v)
    return validate_dag(sets)


def reference_edit_candidates(structure, max_parents):
    """Every legal single-edge edit as an ``(op, parent, child)`` tuple,
    legal when the edited graph builds without a cycle: additions in
    (parent, child) order, then deletions and reversals in edge order."""
    n = structure.n
    parents = structure.parents
    out = []
    for u, v in itertools.product(range(n), repeat=2):
        if u == v or u in parents[v] or len(parents[v]) >= max_parents:
            continue
        try:
            edited(structure, "add", u, v)
        except CycleError:
            continue
        out.append(("add", u, v))
    out += [("delete", u, v) for u, v in structure.edges()]
    for u, v in structure.edges():
        if len(parents[u]) >= max_parents:
            continue
        try:
            edited(structure, "reverse", u, v)
        except CycleError:
            continue
        out.append(("reverse", u, v))
    return out


def reference_scan(state, rng):
    """``state.scan(rng)`` over a list of ``(op, parent, child)`` tuples, as
    the search scanned before its candidates became index arrays: each
    edit's delta from the state's family table, refilled through its
    ``_fill``, and the first maximal delta in ``rng``'s permutation wins."""
    candidates = reference_edit_candidates(state.structure, state.config.max_parents)
    order = rng.permutation(len(candidates))
    if not candidates:
        state.trace.stats.best_edit_delta = None
        return None, -np.inf
    ops, us, vs = zip(*candidates)
    kind = np.fromiter(map(_EDIT_OPS.index, ops), np.intp, len(ops))
    u = np.array(us, dtype=np.intp)
    v = np.array(vs, dtype=np.intp)
    add, rev = kind == 0, kind == 2
    need = np.zeros_like(state._fresh)
    need[0, u[add], v[add]] = True
    need[1, u[~add], v[~add]] = True
    need[0, v[rev], u[rev]] = True
    need[1, v, v] = True
    need[1, u[rev], u[rev]] = True
    stale = np.nonzero(need & ~state._fresh)
    state._fill(list(zip(*(axis.tolist() for axis in stale))))
    state.trace.stats.edits_scanned += len(candidates)
    fa, fd = state._table
    base = fd.diagonal()
    delta = np.where(add, fa[u, v], fd[u, v]) - base[v]
    delta[rev] = (delta[rev] + fa[v[rev], u[rev]]) - base[u[rev]]
    deltas = delta[order]
    pick = int(np.argmax(deltas))
    best = float(deltas[pick])
    state.trace.stats.best_edit_delta = best
    return candidates[order[pick]], best
