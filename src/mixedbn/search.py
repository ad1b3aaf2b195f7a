"""Policy and structure search.

Per-variable threshold selection is exact: every score term touched by one
variable's policy decomposes into a per-interval cost plus a term depending
only on the interval count, so the best threshold subset of each size falls
out of a segmentation dynamic program over the candidate cut points.
Coordinate ascent sweeps variables with that optimizer until a sweep stops
paying, and greedy edge edits interleave re-discretization with structure
moves.  One search state keeps every family score and policy solve whose
inputs have not changed, so rescans and confirming sweeps cost lookups.
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
from scipy.special import gammaln

from . import scoring
from .dataset import (
    Dataset,
    DiscretizationPolicy,
    InternalError,
    NetworkPolicy,
    ValidationError,
    apply_policy,
    discretize_all,
    trivial_network_policy,
    validate_network_policy,
)
from .graph import DagStructure, empty_structure, validate_dag
from .scoring import (
    BDEU,
    MULTINOMIAL_DENSITY,
    PriorSpec,
    continuous_terms,
    family_scores,
    family_tables,
    interval_count_log_priors,
    network_score,
    require_policy_mass,
)

EQFREQ = "eqfreq"
EQWIDTH = "eqwidth"

# Distinct threshold sets can score identically in exact arithmetic, for
# example when the emission depends only on interval sizes; float rounding
# then orders them arbitrarily.  Scores this close count as tied so that
# the fewer-intervals-then-lexicographic preference decides instead.
TIE_TOLERANCE = 1e-9

# The cut DP builds each cost matrix a block of rows at a time; a block
# holds about this many float64 (256 KiB), so the block and its gather and
# max-plus temporaries stay in a core's L2 cache while its rows amortize
# the per-call work of its slice terms: a gather per state, or under the
# row recurrence a gather per table and one row summed exactly.
_BLOCK_FLOATS = 1 << 15
# Block-sized arrays alive at once while a block is built and swept, with
# headroom: the tracemalloc peak of one solve over N = 600 cases, less its
# layer vectors and its lnΓ tables and their increments, measures at most
# 6.3 blocks under the uniform emission and 13.2 under the multinomial one;
# a solve whose 27 states are gathered as one stack, 3.6, and one whose 27
# untied states take the row recurrence, 2.5.
_WORK_BLOCKS = 16

# Edge edit kinds, in the order the edge scan lists them; the scan's op
# codes index this tuple.
_EDIT_OPS = ("add", "delete", "reverse")


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
        if self.r_max is not None:
            return self.r_max
        return max(1, min(12, n_cases - 1))


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


def _blanket(structure: DagStructure, v: int) -> set[int]:
    """The parents of ``v``, its children and its children's other parents:
    the variables whose solve key holds the policy of ``v``."""
    out = set(structure.parents[v])
    for c in structure.children[v]:
        out.add(c)
        out |= structure.parents[c]
    out.discard(v)
    return out


def _solve_inputs(structure: DagStructure, i: int) -> tuple[list[int], tuple]:
    """What a policy solve of ``i`` reads: the sorted members of its Markov
    blanket, ``i`` included, and its families as (head, parent set), the
    heads ``i`` then its children in sorted order."""
    heads = (i, *sorted(structure.children[i]))
    families = tuple((v, structure.parents[v]) for v in heads)
    return sorted(_blanket(structure, i) | {i}), families


class _CutProblem:
    """Interval-decomposed local score of one continuous variable, kept by
    a search for its whole life.

    With cut points ``0..M+1`` (outer bounds plus the M candidates), every
    policy is a chain of cuts and its local score splits into a sum of
    per-interval costs, a per-row penalty depending only on the interval
    count, and the interval-count prior.  The interval cost ``G[u, v]`` is
    only defined for ``v > u``.  Under per-cell pseudo-counts one cost
    matrix serves every interval count; under shared sample size each count
    has its own, and only the emission costs are shared.  No cost matrix is
    ever held whole: the DP builds its upper triangle a block of rows at a
    time, from the last row up, and the top DP layer of each matrix only at
    row 0, the one row a solve reads it at.  The constructor builds what
    depends only on the variable and the prior: the column's cut positions,
    values and distinct-value prefixes, and the interval-count log priors up
    to ``r_cap``; each :meth:`solve` tallies the family part, keeping the
    count rows of the states that hold cases.  Across solves the problem
    holds, read-only, its lnΓ tables and their increments by pseudo-count
    and, from its second solve on, its emission blocks by rows, within
    ``room`` floats; past it a solve builds its own, as a problem with
    room 0 does.
    """

    def __init__(
        self, i: int, dataset: Dataset, prior: PriorSpec, r_cap: int, room: int
    ) -> None:
        self.i = i
        self.prior = prior
        self.names = dataset.names
        self.n_cases = dataset.n_cases
        self.cands = cands = dataset.candidate_thresholds(i)
        self.lower, self.upper = lo, hi = dataset.policy_bounds(i)
        self.m = len(cands)
        self.step = max(1, _BLOCK_FLOATS // (self.m + 2))
        self.r_cap = r_cap
        self.room = room
        self.solves = 0

        positions, self.fine = dataset.cut_segments(i)
        # Case counts below each cut, as floats: the emission blocks then
        # take count differences without an int-to-float cast per cell.
        self.positions = positions.astype(np.float64)
        self.values = np.concatenate(([lo], cands, [hi]))
        if prior.density_model == MULTINOMIAL_DENSITY:
            d_pos, seen = dataset.distinct_prefixes(i)
            # The emission's smallest pseudo-count is that of one interval
            # holding every distinct value; cell_weight checks it here.
            prior.cell_weight(int(d_pos[-1]), 1)
            self.d_pos = d_pos.astype(np.float64)
            self.occurrence_prefixes = [(c, s.astype(np.float64)) for c, s in seen]
        self.log_priors = interval_count_log_priors(r_cap, self.m, prior, self.n_cases)
        self._luts: dict[tuple[float, bool], np.ndarray] = {}
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        self._below: dict[int, np.ndarray] = {}

    def _hold(self, array: np.ndarray) -> bool:
        """Charge ``array`` to the room and make it read-only, if it fits."""
        fits = array.size <= self.room
        if fits:
            self.room -= array.size
            array.flags.writeable = False
        return fits

    def _tally(
        self, policy: NetworkPolicy, structure: DagStructure, codes: np.ndarray
    ) -> None:
        """Prefix count tables of the own and each child's family, from the
        search's one tally, :func:`family_tables`, over the columns of
        :func:`_solve_inputs` in ``codes`` (in a search, the state's own),
        the variable's replaced by its fine code: the variable cut at every
        candidate.  Only live rows, states holding cases, are kept; state
        counts, own totals and margins come from the full tables."""
        i = self.i
        members, families = _solve_inputs(structure, i)
        place = {v: k for k, v in enumerate(members)}
        codes = codes[:, members]
        codes[:, place[i]] = self.fine
        arities = [self.m + 1 if v == i else policy[v].arity for v in members]
        sets = [frozenset(place[p] for p in ps) for _, ps in families]
        own, *child_counts = family_tables(
            codes,
            arities,
            [(place[v], ps, [ps]) for (v, _), ps in zip(families, sets)],
            names=[self.names[v] for v in members],
        )

        def live_prefix(counts: np.ndarray) -> np.ndarray:
            # The live rows, in order, cumulated along i's axis, the last,
            # behind a zero column.
            counts = counts[counts.any(axis=-1)]
            out = np.zeros((len(counts), self.m + 2), dtype=np.int64)
            np.cumsum(counts, axis=1, out=out[:, 1:])
            return out

        self.q_own = len(own)
        self.own_totals = own.sum(axis=1)
        self.own_prefix = live_prefix(own)

        self.child_tables: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        for (child, _), ps, counts in zip(families[1:], sets[1:], child_counts):
            r_child = policy[child].arity
            before = math.prod(arities[k] for k in ps if k < place[i])
            # With i's axis last, the rows are (configuration of the other
            # parents, child code).
            cells = counts.reshape(before, self.m + 1, -1).swapaxes(1, 2)
            q_other = len(counts) // (self.m + 1)
            margins = cells.reshape(q_other, r_child, -1).sum(axis=1)
            self.child_tables.append(
                (r_child, q_other, live_prefix(cells), live_prefix(margins))
            )

    def _lut(self, a: float, steps: bool = False) -> np.ndarray:
        """``lnG(a + n)`` for ``n = 0..N``, or with ``steps`` its increments
        over ``n - 1``, 0 at ``n = 0``."""
        lut = self._luts.get((a, steps))
        if lut is None:
            if steps:
                lut = np.diff(self._lut(a), prepend=self._lut(a)[0])
            else:
                lut = gammaln(a + np.arange(self.n_cases + 1))
            self._luts[a, steps] = lut
            self._hold(lut)
        return lut

    def _block(self, lo: int, hi: int) -> np.ndarray:
        """The emission block of rows ``lo..hi-1``, held or built."""
        block = self._blocks.get((lo, hi))
        if block is None:
            block = self._emission(lo, hi)
            if self.solves > 1 and self._hold(block):
                self._blocks[lo, hi] = block
        return block

    def _emission(self, lo: int, hi: int) -> np.ndarray:
        """Emission cost of the intervals from cuts ``lo..hi-1`` to cuts
        ``lo+1..M+1``, with ``-inf`` wherever ``v <= u``: every cost block
        of these rows adds it, so no interval count masks its own."""
        rows, cols = slice(lo, hi), slice(lo + 1, None)
        if self.prior.density_model != MULTINOMIAL_DENSITY:
            # Minus the interval's case count times the log of its width.
            # Every width at v > u is positive; the cells v <= u, masked
            # below, skip the log.
            widths = self.values[cols] - self.values[rows, None]
            np.log(widths, out=widths, where=widths > 0)
            emission = self.positions[rows, None] - self.positions[cols]
            emission *= widths
        else:
            counts = self.positions[cols] - self.positions[rows, None]
            np.maximum(counts, 0.0, out=counts)
            # As in _multinomial_emission, an interval holding k distinct
            # values gives each a pseudo-count of cell_weight(k, 1).  Its cell
            # terms group those values by occurrence count c.
            k = np.maximum(self.d_pos[cols] - self.d_pos[rows, None], 0.0)
            group = np.maximum(k, 1.0)
            a = self.prior.cell_weight(group, 1)
            base = gammaln(a)
            cells = np.zeros(k.shape)
            for c, seen in self.occurrence_prefixes:
                term = gammaln(a + c)
                term -= base
                term *= seen[cols] - seen[rows, None]
                cells += term
            group_a = a * group
            emission = gammaln(group_a)
            emission -= gammaln(group_a + counts)
            emission += cells
            emission[k == 0] = 0.0
        height = hi - lo
        below = self._below.get(height)
        if below is None:
            below = self._below[height] = np.tri(height, k=-1, dtype=bool)
        emission[:, :height][below] = -np.inf
        return emission

    def _slice_terms(
        self, prefix: np.ndarray, a: float, lo: int, hi: int
    ) -> np.ndarray:
        """Sum over the states of ``prefix``, one or more live rows as
        :meth:`_tally` keeps them, of ``lnG(a + n) - lnG(a)``, where ``n``
        counts a state's cases between cuts; same block as ``_emission``.

        Every cell adds its states' terms in state order and subtracts
        ``lnG(a)`` after each.  When two or more states' counts fit in
        ``_BLOCK_FLOATS`` cells, one gather stacks the terms of all of them,
        and one running sum (``np.add.accumulate``) along the stack adds
        them up in that order, the ``-lnG(a)`` terms interleaved; a pairwise
        ``sum`` over the states would round differently.  Otherwise the
        states are gathered one at a time.  The first state's terms start
        the sum, which equals adding them to zeros: no lnΓ table holds -0.0.
        """
        lut = self._lut(a)
        # x - 0.0 == x for every float x: lnG(1) and lnG(2) are +0.0.
        base = None if lut[0] == 0.0 and not np.signbit(lut[0]) else lut[0]
        shape = (hi - lo, self.m + 1 - lo)
        states = len(prefix)
        if 1 < states and states * shape[0] * shape[1] <= _BLOCK_FLOATS:
            # Where v <= u a count is negative, as on the path below.
            terms = lut[prefix[:, None, lo + 1:] - prefix[:, lo:hi, None]]
            if base is not None:
                # Each state's terms, then -lnG(a): x + -b is x - b.
                paired = np.empty((states, 2, *shape))
                paired[:, 0] = terms
                paired[:, 1] = -base
                terms = paired.reshape(2 * states, *shape)
            return np.add.accumulate(terms, axis=0, out=terms)[-1]
        out = None
        n = np.empty(shape, dtype=np.int64)
        for row in prefix:
            # Where v <= u the count is negative, at least -N, and reads some
            # entry of the table; _emission's -inf masks those cells.  Both
            # paths read the same counts, so one off the table raises IndexError.
            # Indexing gathers straight into a new array; np.take with out=
            # would copy through a buffer.
            np.subtract(row[lo + 1:], row[lo:hi, None], out=n)
            terms = lut[n]
            if out is None:
                out = terms
            else:
                out += terms
            if base is not None:
                out -= base
        return out

    def _costs(
        self, r: int, lo: int, hi: int, emission: np.ndarray | float
    ) -> np.ndarray:
        """Rows ``lo..hi-1`` of the cost matrix for ``r`` intervals, columns
        ``lo+1..M+1``, with ``-inf`` wherever ``v <= u`` from ``emission``:
        no lnΓ table entry is infinite.  The own and child cell tables add
        their slice terms and the margins subtract theirs, by
        :meth:`_recurrence` where each row but the last starts a one-case
        fine segment and the tables hold more live states than one per
        table, else table by table with the emission after the own
        family's."""
        tables = [(self.own_prefix, self.prior.cell_weight(r, self.q_own), np.add)]
        for r_child, q_other, cell_prefix, margin_prefix in self.child_tables:
            a_cell = self.prior.cell_weight(r_child, r * q_other)
            tables += [
                (cell_prefix, a_cell, np.add),
                (margin_prefix, a_cell * r_child, np.subtract),
            ]
        # Every fine segment holds a case, so each of rows lo..hi-2 starts a
        # one-case segment when they start hi - 1 - lo cases in all.
        if (
            hi - lo > 1
            and self.positions[hi - 1] - self.positions[lo] == hi - 1 - lo
            and sum(len(prefix) for prefix, _, _ in tables) > len(tables)
        ):
            g = self._recurrence(r, tables, lo, hi)
            g += emission
            return g
        g = self._slice_terms(self.own_prefix, tables[0][1], lo, hi)
        g += emission
        for prefix, a, op in tables[1:]:
            op(g, self._slice_terms(prefix, a, lo, hi), out=g)
        return g

    def _recurrence(self, r: int, tables: list, lo: int, hi: int) -> np.ndarray:
        """The slice terms of :meth:`_costs`'s ``tables`` by the row
        recurrence of optimal partitioning (Jackson et al. 2005)."""
        # Moving an interval's start from u+1 to u adds fine segment u's one
        # case, in one state s per table, so the table's terms grow by
        # lnG(a + n) - lnG(a + n - 1) at the count n = P_s[v] - P_s[u]: one
        # gather per table and cell.  Each row is the row below plus its
        # increments; the last, summed exactly, anchors the block.
        g = np.zeros((hi - lo, self.m + 1 - lo))
        n = terms = None
        for prefix, a, op in tables:
            state = (prefix[:, lo + 1:hi] - prefix[:, lo:hi - 1]).argmax(axis=0)
            n = np.take(prefix[:, lo + 1:], state, axis=0, mode="clip", out=n)
            n -= prefix[state, np.arange(lo, hi - 1)][:, None]
            # Prefix rows never decrease: a row's last count is its largest.
            if n[:, -1].max() > self.n_cases:
                raise IndexError(f"a count past N = {self.n_cases}")
            # Clipping reads counts <= 0, at v <= u, at the 0 entry.
            terms = np.take(self._lut(a, steps=True), n, mode="clip", out=terms)
            op(g[:-1], terms, out=g[:-1])
        g[-1, hi - lo - 1:] = self._costs(r, hi - 1, hi, 0.0)[0]
        below = g[-1]
        for row in g[-2::-1]:
            row += below
            below = row
        return g

    def _layers(self, counts: Sequence[int]) -> dict[int, np.ndarray]:
        """DP layers of the cost matrix of each interval count in ``counts``.

        ``layers[r][k - 1, u]`` is the best score of ``k <= r`` intervals
        covering cuts ``u..M+1`` under the costs for ``r`` intervals.  Layer
        ``k`` at row ``u`` reads layer ``k - 1`` only at rows ``v > u``, so
        one pass over row blocks from the bottom up fills every layer.  The
        top layer ``k = r`` is defined only at row 0, the one row
        :meth:`solve` reads; the count ``r = 1``, whose one layer is the top,
        builds costs only in the block holding row 0.  That block, the last
        built, is kept for the backtrack.  Every max-plus step adds into one
        buffer, reshaped to each block.

        A step adds the whole contiguous cost block, columns ``lo+1..M+1``,
        to layer ``k - 1`` at rows ``lo+1..M+1``.  Row ``M+1`` of a layer is
        never written and stays ``-inf``, and no cost is ``+inf`` or NaN, so
        the end column's sum is ``-inf``: it never wins a max, nor the
        backtrack's ``argmax``, and the row needs no strided view.
        """
        m = self.m
        layers = {r: np.full((r, m + 2), -np.inf) for r in counts}
        step = self.step
        buffer = np.empty(min(step, m + 1) * (m + 1))
        for hi in range(m + 1, 0, -step):
            lo = max(0, hi - step)
            emission = self._block(lo, hi)
            width = m + 1 - lo
            scores = buffer[: (hi - lo) * width].reshape(hi - lo, width)
            for r, table in layers.items():
                if r == 1 and lo > 0:
                    continue
                g = self._costs(r, lo, hi, emission)
                table[0, lo:hi] = g[:, -1]
                for k in range(1, r - 1):
                    np.add(g, table[k - 1, lo + 1:], out=scores)
                    scores.max(axis=1, initial=-np.inf, out=table[k, lo:hi])
                if lo == 0 and r > 1:
                    top = np.add(g[0], table[r - 2, 1:], out=buffer[: m + 1])
                    table[r - 1, 0] = top.max(initial=-np.inf)
        self._kept = (r, g)
        return layers

    def _cost_row(self, r: int, u: int) -> tuple[np.ndarray, int]:
        """Row ``u`` of the cost matrix for ``r`` intervals and its first
        column; read from the kept top block when it holds it, its emission
        row from a held block when one holds it."""
        kept_r, kept = self._kept
        if kept_r == r and u < len(kept):
            return kept[u], 1
        hi = self.m + 1 - (self.m - u) // self.step * self.step
        lo = max(0, hi - self.step)
        block = self._blocks.get((lo, hi))
        if block is None:
            emission = self._emission(u, u + 1)
        else:
            emission = block[u - lo:u - lo + 1, u - lo:]
        return self._costs(r, u, u + 1, emission)[0], u + 1

    def count_penalties(self, r_cap: int) -> np.ndarray:
        """Own-family row terms of each interval count ``1..r_cap``; they
        depend only on the count."""
        a_rows = np.array(
            [self.prior.cell_weight(r, self.q_own) * r for r in range(1, r_cap + 1)]
        )[:, None]
        return (gammaln(a_rows) - gammaln(a_rows + self.own_totals)).sum(axis=1)

    def _reconstruct(
        self, cost_r: int, table: np.ndarray, r: int
    ) -> tuple[float, ...]:
        cuts: list[int] = []
        u = 0
        for k in range(r, 1, -1):
            row, first = self._cost_row(cost_r, u)
            scores = row + table[k - 2, first:]
            top = scores.max(initial=-np.inf)
            if not np.isfinite(top):
                raise InternalError("segmentation backtrack hit an infeasible cut")
            # Earliest near-maximal cut keeps the thresholds lex-smallest
            # whenever several suffix solutions tie in exact arithmetic.
            v = int(np.argmax(scores >= top - TIE_TOLERANCE)) + first
            cuts.append(v)
            u = v
        return tuple(float(self.cands[c - 1]) for c in cuts)

    def solve(
        self, policy: NetworkPolicy, structure: DagStructure, codes: np.ndarray
    ) -> DiscretizationPolicy:
        """Best policy of the variable under ``policy`` and ``structure``;
        ``codes`` is the code matrix under ``policy``.  Only the held
        arrays outlive the solve."""
        self._tally(policy, structure, codes)
        self.solves += 1
        r_cap = self.r_cap
        # Per-cell pseudo-counts do not depend on the interval count, so one
        # cost matrix with r_cap layers serves every count.
        per_count = self.prior.dirichlet_mode == BDEU
        layers = self._layers(range(1, r_cap + 1) if per_count else [r_cap])

        def cost_count(r: int) -> int:
            return r if per_count else r_cap

        penalties = self.count_penalties(r_cap)
        totals = [
            layers[cost_count(r)][r - 1, 0] + penalties[r - 1] + self.log_priors[r - 1]
            for r in range(1, r_cap + 1)
        ]
        best_total = max(totals)
        thresholds: tuple[float, ...] = ()
        if np.isfinite(best_total):
            r = 1 + next(
                k for k, t in enumerate(totals) if t >= best_total - TIE_TOLERANCE
            )
            thresholds = self._reconstruct(cost_count(r), layers[cost_count(r)], r)
        # The held lnΓ tables are the read-only ones.
        self._luts = {k: t for k, t in self._luts.items() if not t.flags.writeable}
        del self.own_prefix, self.own_totals, self.child_tables, self._kept
        return DiscretizationPolicy(thresholds, self.lower, self.upper)


def optimize_variable(
    i: int,
    policy: NetworkPolicy,
    structure: DagStructure,
    dataset: Dataset,
    prior: PriorSpec,
    config: SearchConfig,
    *,
    codes: np.ndarray | None = None,
    problems: dict[int, _CutProblem] | None = None,
) -> DiscretizationPolicy:
    """Best threshold policy for variable ``i`` with everything else fixed.

    Exact over all candidate-threshold subsets with at most
    ``r_max - 1`` thresholds.  Scores within ``TIE_TOLERANCE`` count as
    tied; ties prefer fewer intervals, then the lexicographically
    smallest threshold sequence.  ``codes`` is the code matrix under
    ``policy``, as :func:`discretize_all` gives it; a search passes its
    state's, and without it one is built.  ``problems`` is a search's
    :class:`_CutProblem` per variable, for one dataset, prior and config;
    a problem added to it gets an equal share of 4 MiB to hold arrays in.
    Without it a throwaway problem, which holds nothing, is built.
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
    # and a cell and a margin table per child) and as much again for the
    # tallied tables, DP layer vectors (r_cap for the one shared cost matrix,
    # or r for the matrix of each interval count r), log-gamma tables and
    # their increments (at most three each per child and cost matrix), the
    # tally's code matrix over i and its blanket plus two index columns, the
    # working row blocks, which hold the row recurrence's temporaries too,
    # and in a search the held budget.
    n_costs = r_cap if prior.dirichlet_mode == BDEU else 1
    budget = 0 if problems is None else _WORK_BLOCKS * _BLOCK_FLOATS
    tables = states(structure.parents[i]) + sum(
        states(structure.parents[c] - {i}) * (policy[c].arity + 1)
        for c in structure.children[i]
    )
    vectors = r_cap * (r_cap + 1) // 2 if n_costs > 1 else r_cap
    luts = n_costs * (1 + 2 * len(structure.children[i]))
    estimate = 8 * (
        (2 * tables + vectors) * (m + 2)
        + 2 * luts * (dataset.n_cases + 1)
        + (len(_blanket(structure, i)) + 3) * dataset.n_cases
        + _WORK_BLOCKS * max(_BLOCK_FLOATS, m + 2)
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
    problems = {} if problems is None else problems
    if i not in problems:
        share = budget // len(dataset.continuous_indices())
        problems[i] = _CutProblem(i, dataset, prior, r_cap, share)
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
    guards it: a new parent set at ``v`` makes column ``v`` stale, and a
    policy change at ``w`` makes row ``w``, column ``w`` and the column of
    every child of ``w`` stale, and the start has every entry stale.
    :meth:`_fill` is the only code that writes the table: it tallies and
    scores the stale entries asked for in one batched pass
    (:func:`family_tables`, :func:`family_scores`), every score bitwise the
    one its table gets scored alone.  The cut problem counts through the
    same tally, so the search has one.

    A policy solve is memoized on :meth:`solve_key`, exactly what the cut
    problem reads.  That key also decides what to solve again: a policy
    change at ``v`` changes the keys of ``_blanket(structure, v)`` and
    nothing else.  Each continuous variable keeps one :class:`_CutProblem`
    in ``problems``, holding at most an equal share of 4 MiB, and
    :meth:`local` keeps each continuous term pair by variable and policy.
    Every cache lives as long as the state.

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
        self.problems: dict[int, _CutProblem] = {}
        self._terms: dict[tuple, tuple[float, float]] = {}
        # [FA, FD] and which of their entries are fresh.
        self._table = np.zeros((2, n, n))
        self._fresh = np.zeros((2, n, n), dtype=bool)

    def set_policy(self, v: int, new: DiscretizationPolicy) -> None:
        self.policy = self.policy.with_policy(v, new)
        self.codes[:, v] = apply_policy(self.dataset.column(v), new)
        self._fresh[:, v] = False
        self._fresh[:, :, [v, *self.structure.children[v]]] = False

    def _fill(self, entries: Sequence[tuple[int, int, int]]) -> list[float]:
        """The scores at the distinct table entries ``entries``, each
        ``(0 for FA or 1 for FD, edited parent, child)``.

        The stale ones are refilled first under the current policy and
        marked fresh: grouped by child, tallied from the child's current
        parent set by one :func:`family_tables` call and scored by one
        :func:`family_scores` call.
        """
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
            self._table[refilled] = family_scores(tables, self.prior)
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
        Each replaced family's column goes stale.
        """
        _, u, v = edit
        sets = list(self.structure.parents)
        rekeyed = {u, v}
        for c, new in self.replaced(edit):
            self._fresh[:, :, c] = False
            sets[c] = new
            rekeyed |= new
        self.structure = validate_dag(sets)
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


def _edit_candidates(
    structure: DagStructure, max_parents: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every legal single-edge edit, as index arrays of op code (into
    ``_EDIT_OPS``), parent and child: additions in (parent, child) order,
    then deletions and reversals in edge order."""
    n = structure.n
    parents = structure.parents
    edge = np.zeros(n * n, dtype=bool)
    edge[[p * n + c for c, ps in enumerate(parents) for p in ps]] = True
    edge = edge.reshape(n, n)
    # reach[a, b]: a is a proper ancestor of b.  Each squaring doubles the
    # path length covered; float matmul is the fast one in numpy.
    reach = edge
    while True:
        steps = reach.astype(np.float64)
        grown = reach | (steps @ steps > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    full = np.array([len(ps) >= max_parents for ps in parents], dtype=bool)
    # Adding u -> v closes a cycle exactly when v is an ancestor of u.
    add = ~(edge | reach.T | full)
    np.fill_diagonal(add, False)
    # Reversing u -> v closes a cycle exactly when u reaches v another way,
    # that is, when u is an ancestor of another parent of v; such a path
    # cannot use u -> v itself, which would make a cycle.
    reverse = edge & ~(reach.astype(np.float64) @ edge > 0) & ~full[:, None]
    # Row-major order over [op, parent, child] is the order above.
    return np.nonzero(np.stack((add, edge, reverse)))


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
