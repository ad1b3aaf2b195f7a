"""Policy and structure search.

Per-variable threshold selection is exact: every score term touched by one
variable's policy decomposes into a per-interval cost plus a term depending
only on the interval count, so the best threshold subset of each size falls
out of a segmentation dynamic program over the candidate cut points, in
:mod:`mixedbn.cutdp`.  Coordinate ascent sweeps variables with that
optimizer until a sweep stops paying, and greedy edge edits interleave
re-discretization with structure moves.  One search state keeps every
family score and policy solve whose inputs have not changed, so rescans
and confirming sweeps cost lookups.
Ties always resolve toward fewer intervals, then lexicographically smaller
threshold sets.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import cutdp, scoring
from .cutdp import _CutProblem
from .dataset import (
    Dataset,
    DiscretizationPolicy,
    NetworkPolicy,
    ValidationError,
    apply_policy,
    discretize_all,
    trivial_network_policy,
    validate_network_policy,
)
from .graph import (
    _EDIT_OPS,
    DagStructure,
    _blanket,
    _edit_candidates,
    _solve_inputs,
    empty_structure,
    validate_dag,
)
from .scoring import (
    BDEU,
    PriorSpec,
    continuous_terms,
    family_scores,
    family_tables,
    network_score,
    require_policy_mass,
)

EQFREQ = "eqfreq"
EQWIDTH = "eqwidth"

@dataclass(frozen=True)
class InitSpec:
    """Starting discretization: equal-frequency or equal-width with ``r0``
    intervals."""

    kind: str = EQFREQ
    r0: int = 3

    def __post_init__(self) -> None:
        if self.kind not in (EQFREQ, EQWIDTH):
            raise ValidationError(
                f"init kind must be {EQFREQ!r} or {EQWIDTH!r}, got {self.kind!r}"
            )
        if self.r0 < 2:
            raise ValidationError(f"initial interval count must be >= 2, got {self.r0}")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by the policy and structure search drivers.

    ``r_max`` of ``None`` resolves to ``min(12, n_cases - 1)``.  ``epsilon``
    is the minimum total-score gain that keeps either loop going.  ``seed``
    only breaks ties among equally scored structure edits; it never affects
    scores.
    """

    r_max: int | None = None
    epsilon: float = 1e-6
    max_sweeps: int = 50
    init: InitSpec = InitSpec()
    max_parents: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.r_max is not None and self.r_max < 1:
            raise ValidationError(f"r_max must be >= 1, got {self.r_max}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_sweeps < 1:
            raise ValidationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.max_parents < 1:
            raise ValidationError(f"max_parents must be >= 1, got {self.max_parents}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def resolved_r_max(self, n_cases: int) -> int:
        return self.r_max if self.r_max is not None else max(1, min(12, n_cases - 1))


@dataclass
class SearchStats:
    """Work counts of one search, for the run manifest; no artifact holds
    them.  ``noop_solves`` counts the solves that returned the policy they
    were given, ``candidates`` sums M over the solves.  ``best_edit_delta``
    is the best delta of the last edge scan, ``None`` before any scan or
    when no edit is legal.  ``solve_s`` and ``scan_s`` are the wall seconds
    spent in policy solves and in edge-scan deltas; stats compare equal
    whatever their times."""

    solves: int = 0
    solve_hits: int = 0
    noop_solves: int = 0
    candidates: int = 0
    families_computed: int = 0
    edits_scanned: int = 0
    best_edit_delta: float | None = None
    solve_s: float = field(default=0.0, compare=False)
    scan_s: float = field(default=0.0, compare=False)


class SearchTrace:
    """Accepted-update log and work counts of one search; totals are
    nondecreasing by construction."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.termination: str = ""
        self.stats = SearchStats()

    def add(self, kind: str, **fields) -> None:
        self.records.append({"kind": kind, **fields})

    def totals(self) -> list[float]:
        return [r["total"] for r in self.records if "total" in r]

    @property
    def final_total(self) -> float:
        """The total at the last record: every search ends on a sweep."""
        return self.totals()[-1]

    def to_jsonl(self) -> str:
        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        lines.append(
            json.dumps(
                {"kind": "termination", "reason": self.termination},
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


def _nearest_index(values: np.ndarray, target: float) -> int:
    # First minimizer wins, so ties snap toward the smaller candidate.
    return int(np.argmin(np.abs(values - target)))


def initial_policy(dataset: Dataset, config: SearchConfig) -> NetworkPolicy:
    """Starting policies per the config; thresholds snap to candidates.

    Each continuous variable starts with ``min(r0, r_max, N - 1)``
    intervals, inside the interval cap and the Poisson prior's support;
    below two it keeps the single interval.
    """
    init = config.init
    n = dataset.n_cases
    r = min(init.r0, config.resolved_r_max(n), n - 1)
    policies = list(trivial_network_policy(dataset).policies)
    for i in dataset.continuous_indices():
        cands = dataset.candidate_thresholds(i)
        if len(cands) == 0 or r < 2:
            continue
        lo, hi = dataset.policy_bounds(i)
        picked: set[int] = set()
        if init.kind == EQFREQ:
            cut_pos = dataset.cut_segments(i)[0][1:-1].astype(np.float64)
            for k in range(1, r):
                target = min(max(round(k * n / r), 1), n - 1)
                picked.add(_nearest_index(cut_pos, target))
        else:
            for k in range(1, r):
                target = lo + k * (hi - lo) / r
                picked.add(_nearest_index(cands, target))
        thresholds = tuple(cands[sorted(picked)])
        policies[i] = DiscretizationPolicy(thresholds, lo, hi)
    return NetworkPolicy(tuple(policies))


class _Problems(dict):
    """A search's :class:`_CutProblem` per variable, and the lnΓ store of
    ``room`` floats that they and the search's family scores read."""

    def __init__(self, n_cases: int, room: int) -> None:
        super().__init__()
        self.log_gamma = scoring.LogGammaTables(n_cases, room)


def optimize_variable(
    i: int,
    policy: NetworkPolicy,
    structure: DagStructure,
    dataset: Dataset,
    prior: PriorSpec,
    config: SearchConfig,
    *,
    codes: np.ndarray | None = None,
    problems: _Problems | None = None,
) -> DiscretizationPolicy:
    """Best threshold policy for variable ``i`` with everything else fixed.

    Exact over all candidate-threshold subsets with at most
    ``r_max - 1`` thresholds.  Scores within ``TIE_TOLERANCE`` count as
    tied; ties prefer fewer intervals, then the lexicographically
    smallest threshold sequence.  ``codes`` is the code matrix under
    ``policy``, as :func:`discretize_all` gives it; a search passes its
    state's, and without it one is built.  ``problems`` is a search's
    :class:`_CutProblem` per variable, for one dataset, prior and config; a
    problem added to it reads its lnΓ store and holds arrays in an equal
    share of 4 MiB.  Without it a throwaway problem holds nothing.
    """
    if not dataset.is_continuous(i):
        raise ValidationError(
            f"variable {dataset.names[i]!r} is discrete; nothing to optimize"
        )
    lo, hi = dataset.policy_bounds(i)
    m = len(dataset.candidate_thresholds(i))
    r_cap = min(config.resolved_r_max(dataset.n_cases), m + 1)
    if m == 0 or r_cap <= 1:
        return DiscretizationPolicy((), lo, hi)

    def states(members: Iterable[int]) -> int:
        return math.prod(policy[p].arity for p in members)

    # Charged in float64-sized words: prefix count tables (the own family's,
    # and a cell and a margin table per child), as much again for the
    # tallied tables, DP layer vectors (r_cap for the one shared cost
    # matrix, or r for the matrix of each interval count r), the one row
    # each cost matrix carries up from block to block, log-gamma tables,
    # shifted and as increments too (at most three each per table and cost
    # matrix), the tally's code matrix over i and its blanket plus two index
    # columns, the working row blocks, which hold the row recurrence's
    # temporaries too, a block of counts per table when several cost
    # matrices read them, and in a search the held budget.
    n_costs = r_cap if prior.dirichlet_mode == BDEU else 1
    budget = 0 if problems is None else cutdp._WORK_BLOCKS * cutdp._BLOCK_FLOATS
    rows = states(structure.parents[i]) + sum(
        states(structure.parents[c] - {i}) * (policy[c].arity + 1)
        for c in structure.children[i]
    )
    vectors = r_cap * (r_cap + 1) // 2 if n_costs > 1 else r_cap
    tables = 1 + 2 * len(structure.children[i])
    held = tables if n_costs > 1 else 0
    estimate = 8 * (
        (2 * rows + vectors + n_costs) * (m + 2)
        + 3 * n_costs * tables * (dataset.n_cases + 1)
        + (len(_blanket(structure, i)) + 3) * dataset.n_cases
        + (cutdp._WORK_BLOCKS + held) * max(cutdp._BLOCK_FLOATS, m + 2)
        + budget
    )
    limit = scoring.MEMORY_LIMIT_BYTES
    if estimate > limit:
        raise ValidationError(
            f"variable {dataset.names[i]!r}: a policy solve over N={dataset.n_cases} "
            f"cases and M={m} candidate thresholds needs about "
            f"{estimate / 2**20:.0f} MiB (limit {limit / 2**20:.0f} "
            "MiB); round the column to fewer distinct values or declare it "
            "discrete in the schema"
        )
    if codes is None:
        codes = discretize_all(dataset, policy)
    problems = _Problems(dataset.n_cases, 0) if problems is None else problems
    if i not in problems:
        share = budget // len(dataset.continuous_indices())
        problems[i] = _CutProblem(i, dataset, prior, r_cap, share, problems.log_gamma)
    return problems[i].solve(policy, structure, codes)


class _SearchState:
    """Structure, policy, running total and trace of one search, plus its
    caches.

    The code matrix follows the policy one column at a time; it is stored
    column-major, so a family tally reads contiguous columns.  The edge scan
    and every policy solve read their codes from it, so a policy change is
    applied to the data once.

    Every family score the search reads is cached in one table, ``FA[u, v]
    = family(v, P_v | {u})`` and ``FD[u, v] = family(v, P_v - {u})``, whose
    diagonal ``FD[v, v]`` is the current family of ``v``: the edge scan
    reads its entries and :meth:`local` its diagonal.  One staleness rule
    guards it: a new parent set at ``v`` makes column ``v`` stale, less
    what :meth:`apply_edit` carries, and a policy change at ``w`` makes row
    ``w``, column ``w`` and the column of every child of ``w`` stale, and
    the start has every entry stale.  :meth:`_fill` is the only code that
    writes the table: it tallies and scores the stale entries asked for in
    one batched pass (:func:`family_tables`, :func:`family_scores` with the
    search's lnΓ store), every score bitwise the one its table gets scored
    alone.  The cut problem counts through the same tally, so the search
    has one.

    A policy solve is memoized on :meth:`solve_key`, exactly what the cut
    problem reads.  That key also decides what to solve again: a policy
    change at ``v`` changes the keys of ``_blanket(structure, v)`` and
    nothing else.  Each continuous variable keeps one :class:`_CutProblem`
    in ``problems``, holding at most an equal share of 4 MiB, beside the
    one lnΓ store of one block; :meth:`local` keeps each continuous term
    pair by variable and policy.  Every cache lives as long as the state.

    The start policy must score a finite total; a policy outside the
    policy prior's support raises ValidationError.
    """

    def __init__(
        self,
        structure: DagStructure,
        policy: NetworkPolicy,
        dataset: Dataset,
        prior: PriorSpec,
        config: SearchConfig,
    ) -> None:
        self.structure = structure
        self.policy = policy
        self.dataset = dataset
        self.prior = prior
        self.config = config
        self.discrete = set(dataset.discrete_indices())
        require_policy_mass(dataset, prior, config.resolved_r_max(dataset.n_cases))
        n = dataset.n_variables
        self.codes = np.asfortranarray(discretize_all(dataset, policy))
        score = network_score(policy, structure, dataset, prior)
        self.total = score.finite_total(dataset.names, "start policy")
        self.trace = SearchTrace()
        self._solves: dict[tuple, DiscretizationPolicy] = {}
        self.problems = _Problems(dataset.n_cases, cutdp._BLOCK_FLOATS)
        self._terms: dict[tuple, tuple[float, float]] = {}
        # [FA, FD] and which of their entries are fresh.
        self._table = np.zeros((2, n, n))
        self._fresh = np.zeros((2, n, n), dtype=bool)

    def set_policy(self, v: int, new: DiscretizationPolicy) -> None:
        self.policy = self.policy.with_policy(v, new)
        self.codes[:, v] = apply_policy(self.dataset.column(v), new)
        self._fresh[:, v] = False
        self._fresh[:, :, [v, *self.structure.children[v]]] = False

    def _fill(self, entries: Sequence[tuple[int, int, int]], known=()) -> list[float]:
        """The scores at the distinct table entries ``entries``, each
        ``(0 for FA or 1 for FD, edited parent, child)``.

        The entries of ``known``, ``(entry, score)`` pairs, take their
        scores.  The stale ones are refilled first under the current policy
        and marked fresh: grouped by child, tallied from the child's current
        parent set by one :func:`family_tables` call and scored by one
        :func:`family_scores` call.
        """
        for entry, score in known:
            self._table[entry], self._fresh[entry] = score, True
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for entry in entries:
            if not self._fresh[entry]:
                groups.setdefault(entry[2], []).append(entry)
        if groups:
            parents = self.structure.parents
            tables = family_tables(self.codes, self.policy.arities(), [
                (c, parents[c], [parents[c] | {a} if k == 0 else parents[c] - {a}
                                 for k, a, _ in group])
                for c, group in groups.items()
            ], names=self.dataset.names)
            refilled = tuple(zip(*chain.from_iterable(groups.values())))
            scores = family_scores(tables, self.prior, self.problems.log_gamma)
            self._table[refilled] = scores
            self._fresh[refilled] = True
            self.trace.stats.families_computed += len(tables)
        return [self._table.item(e) for e in entries]

    def local(self, v: int) -> float:
        """Every score term that depends on the policy of variable ``v``.

        Its own family, its children's families in sorted order, then its
        emission term and policy prior when continuous.
        """
        own, *children = self._fill(
            [(1, c, c) for c in [v, *sorted(self.structure.children[v])]]
        )
        score = own
        for family in children:
            score += family
        if v not in self.discrete:
            key = (v, self.policy[v])
            terms = self._terms.get(key)
            if terms is None:
                terms = self._terms[key] = continuous_terms(
                    self.dataset, v, self.policy[v], self.prior
                )
            emission, log_prior = terms
            score += emission
            score += log_prior
        return float(score)

    def replaced(self, edit: tuple[str, int, int]) -> list[tuple[int, frozenset[int]]]:
        """The families one edge edit replaces, as (child, new parent set):
        the child's for an addition or deletion, then also the parent's for
        a reversal.  Every other family is unchanged."""
        op, u, v = edit
        parents = self.structure.parents
        if op == "add":
            return [(v, parents[v] | {u})]
        out = [(v, parents[v] - {u})]
        if op == "reverse":
            out.append((u, parents[u] | {v}))
        return out

    def edit_deltas(
        self, candidates: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Total-score change of each edge edit under the current policy.

        ``candidates`` holds the edits as :func:`_edit_candidates` lists
        them: index arrays of op code (into ``_EDIT_OPS``), parent ``u`` and
        child ``v``.  An addition scores ``FA[u, v] - FD[v, v]``, a deletion
        ``FD[u, v] - FD[v, v]`` and a reversal ``((FD[u, v] - FD[v, v]) +
        FA[v, u]) - FD[u, u]``: each replaced family's new score minus its
        old one, summed left to right.  Stale entries the candidates read
        are refilled first, by one :meth:`_fill` call.
        """
        kind, u, v = candidates
        add, rev = kind == 0, kind == 2
        # The entries read, indexed [FA or FD, edited parent, child].
        need = np.zeros_like(self._fresh)
        need[0, u[add], v[add]] = True
        need[1, u[~add], v[~add]] = True
        need[0, v[rev], u[rev]] = True
        need[1, v, v] = True
        need[1, u[rev], u[rev]] = True
        # Only the stale entries, found in one pass over the whole table.
        stale = np.nonzero(need & ~self._fresh)
        self._fill(list(zip(*(axis.tolist() for axis in stale))))
        self.trace.stats.edits_scanned += len(kind)

        fa, fd = self._table
        base = fd.diagonal()
        delta = np.where(add, fa[u, v], fd[u, v]) - base[v]
        delta[rev] = (delta[rev] + fa[v[rev], u[rev]]) - base[u[rev]]
        return delta

    def scan(self, rng: np.random.Generator) -> tuple[tuple[str, int, int] | None, float]:
        """The best legal edge edit, as ``(op, parent, child)``, and its
        delta; ``(None, -inf)`` when no edit is legal.

        Candidates are scored in a random permutation drawn from ``rng``,
        also when there are none, and the first maximal delta in that order
        wins: the edit a sequential ``delta > best`` scan keeps.  Only the
        winner is built as a tuple.  The best delta is recorded in the
        trace's stats.
        """
        candidates = _edit_candidates(self.structure, self.config.max_parents)
        kind, u, v = candidates
        order = rng.permutation(len(kind))
        if not len(kind):
            self.trace.stats.best_edit_delta = None
            return None, -np.inf
        started = time.perf_counter()
        deltas = self.edit_deltas(candidates)[order]
        self.trace.stats.scan_s += time.perf_counter() - started
        pick = int(np.argmax(deltas))
        best = float(deltas[pick])
        self.trace.stats.best_edit_delta = best
        won = order[pick]
        return (_EDIT_OPS[kind[won]], int(u[won]), int(v[won])), best

    def apply_edit(self, edit: tuple[str, int, int], delta: float) -> set[int]:
        """Apply one edge edit; returns the variables whose solve key it
        changed: both endpoints and every parent set in :meth:`replaced`.
        Each replaced family's column goes stale, less the fresh families
        the edit moves to another entry.
        """
        _, u, v = edit
        sets = list(self.structure.parents)
        rekeyed, known = {u, v}, {}
        for c, new in self.replaced(edit):
            a = u + v - c
            k = int(a not in new)
            for e, old in ((1, c, c), (k, a, c)), ((1 - k, a, c), (1, c, c)):
                if self._fresh[old]:
                    known[e] = self._table[old]
            self._fresh[:, :, c] = False
            sets[c] = new
            rekeyed |= new
        self.structure = validate_dag(sets)
        self._fill([], known.items())
        self.total += delta
        return rekeyed

    def solve_key(self, i: int) -> tuple:
        """What the cut problem of ``i`` reads, from :func:`_solve_inputs`:
        its families, and the policy of every other blanket member."""
        members, families = _solve_inputs(self.structure, i)
        return families, tuple(self.policy[v] for v in members if v != i)

    def solve(self, i: int) -> DiscretizationPolicy:
        """``optimize_variable`` for ``i``, reused while its inputs stand."""
        key = self.solve_key(i)
        cached = self._solves.get(key)
        if cached is not None:
            self.trace.stats.solve_hits += 1
            return cached
        stats = self.trace.stats
        stats.solves += 1
        stats.candidates += len(self.dataset.candidate_thresholds(i))
        started = time.perf_counter()
        result = optimize_variable(
            i, self.policy, self.structure, self.dataset, self.prior, self.config,
            codes=self.codes, problems=self.problems,
        )
        stats.solve_s += time.perf_counter() - started
        if result.thresholds == self.policy[i].thresholds:
            stats.noop_solves += 1
        self._solves[key] = result
        return result

    def ascend(self, start: Iterable[int] | None = None) -> bool:
        """Coordinate ascent from the current state; see :func:`coordinate_ascent`.

        Sweeps the continuous members of ``start``, every continuous
        variable when ``None``.  The variables an accepted change re-queues
        join the swept set, so later sweeps visit them too.  Appends to
        :attr:`trace`; returns whether it accepted a policy change.
        """
        if start is None:
            start = range(self.structure.n)
        swept = set(start) - self.discrete
        trace = self.trace
        trace.termination = "max_sweeps"
        accepted = False
        for sweep in range(1, self.config.max_sweeps + 1):
            sweep_start = self.total
            queue = deque(v for v in self.structure.topo_order if v in swept)
            queued = set(swept)
            while queue:
                v = queue.popleft()
                queued.discard(v)
                candidate = self.solve(v)
                current = self.policy[v]
                if candidate.thresholds == current.thresholds:
                    continue
                old_local = self.local(v)
                self.set_policy(v, candidate)
                delta = self.local(v) - old_local
                if not delta > 0:
                    # The revert makes every entry the candidate filled stale.
                    self.set_policy(v, current)
                    continue
                self.total += delta
                accepted = True
                trace.add(
                    "policy",
                    variable=v,
                    old_r=current.arity,
                    new_r=candidate.arity,
                    delta=delta,
                    total=self.total,
                )
                for j in sorted(_blanket(self.structure, v) - self.discrete):
                    if j not in queued:
                        queue.append(j)
                        queued.add(j)
                        swept.add(j)
            trace.add("sweep", sweep=sweep, total=self.total)
            if self.total - sweep_start < self.config.epsilon:
                trace.termination = "converged"
                break
        return accepted


def coordinate_ascent(
    policy: NetworkPolicy,
    structure: DagStructure,
    dataset: Dataset,
    prior: PriorSpec,
    config: SearchConfig,
) -> tuple[NetworkPolicy, SearchTrace]:
    """Sweep continuous variables, re-optimizing each policy in turn.

    Variables are visited in topological order.  An accepted change at
    ``v`` re-queues, within the same sweep, the continuous variables of
    v's Markov blanket (its parents, children and children's other
    parents): exactly the variables whose solve reads v's policy.  Stops
    when a full sweep gains less than ``epsilon`` or after ``max_sweeps``.
    """
    validate_network_policy(policy, dataset)
    state = _SearchState(structure, policy, dataset, prior, config)
    state.ascend()
    return state.policy, state.trace


def hill_climb_structure(
    dataset: Dataset,
    prior: PriorSpec,
    config: SearchConfig,
) -> tuple[DagStructure, NetworkPolicy, SearchTrace]:
    """Greedy edge edits from the empty graph, interleaved with ascent.

    Each round scores every legal single-edge addition, deletion, and
    reversal under the current discretization, applies the best one when it
    gains more than ``epsilon``, and runs an ascent from the variables whose
    solve inputs the edit changed: both endpoints and the new parent set of
    every family the edit replaced (:meth:`_SearchState.replaced`).  The
    ascent re-queues Markov blankets as in :func:`coordinate_ascent`.
    Edits are scanned from the initial coarse discretization rather than a
    pre-optimized one: optimizing policies under the empty graph first can
    collapse dependent variables to single intervals and hide every edge.
    The loop ends at a joint fixed point where no edit helps and a full
    policy sweep accepts nothing.

    The scan (:meth:`_SearchState.scan`) reads its deltas from a table of
    family scores, refilled only where a new parent set or a policy change
    made an entry stale.  Among equal deltas it keeps the first in a
    permutation of the candidates drawn from ``config.seed``.  The returned
    trace carries the search's :class:`SearchStats`, whose
    ``best_edit_delta`` certifies that no edit gains more than ``epsilon``.
    """
    state = _SearchState(
        empty_structure(dataset.n_variables),
        initial_policy(dataset, config),
        dataset,
        prior,
        config,
    )
    rng = np.random.default_rng(config.seed)

    while True:
        best_edit, best_delta = state.scan(rng)
        if best_edit is None or best_delta <= config.epsilon:
            # No edit helps under the current policies; re-optimize them all
            # and rescan, since better thresholds can expose new edits.
            if state.ascend():
                continue
            break
        rekeyed = state.apply_edit(best_edit, best_delta)
        op, u, v = best_edit
        state.trace.add(
            "edge", op=op, parent=u, child=v, delta=float(best_delta), total=state.total
        )
        state.ascend(rekeyed)
    state.trace.termination = "no_improving_edit"
    return state.structure, state.policy, state.trace
