"""Exact threshold selection for one continuous variable.

Every score term touched by one variable's policy decomposes into a
per-interval cost plus a term depending only on the interval count, so the
best threshold subset of each size falls out of a segmentation dynamic
program over the candidate cut points: :class:`_CutProblem`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .dataset import Dataset, DiscretizationPolicy, InternalError, NetworkPolicy
from .graph import DagStructure, _solve_inputs
from .scoring import (
    BDEU,
    MULTINOMIAL_DENSITY,
    LogGammaTables,
    PriorSpec,
    family_tables,
    interval_count_log_priors,
)

# Distinct threshold sets can score identically in exact arithmetic, for
# example when the emission depends only on interval sizes; float rounding
# then orders them arbitrarily.  Scores this close count as tied so that
# the fewer-intervals-then-lexicographic preference decides instead.
TIE_TOLERANCE = 1e-9

# The cut DP builds each cost matrix a block of rows at a time; a block
# holds about this many float64 (256 KiB), so the block and its gather and
# max-plus temporaries stay in a core's L2 cache while its rows amortize
# the per-call work of its slice terms: a gather per chunk of states, or
# under the row recurrence a gather per table.
_BLOCK_FLOATS = 1 << 15
# Block-sized arrays alive at once while a block is built and swept, with
# headroom: the tracemalloc peak of one solve over N = 600 cases with a
# parent and a child, less its layer vectors, its lnΓ tables in every form
# and its held counts (2.9 blocks under shared sample size), measures at
# most 6.3 blocks under the uniform emission and 13.7 under the multinomial
# one; a solve whose 27 states are gathered as one chunk and folded, 2.2,
# and one whose 27 untied states take the row recurrence, 2.3.  It sizes
# the one budget a search holds across its solves too: as many blocks.
_WORK_BLOCKS = 16


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
    ever held whole: :meth:`_layers` builds its upper triangle a block of
    rows at a time, from the last row up, a block under the row recurrence
    anchored on the one below.  The constructor builds what depends only on
    the variable and the prior: the column's cut positions, values and
    distinct-value prefixes, and the interval-count log priors up to
    ``r_cap``; each :meth:`solve` tallies the family part, keeping the
    count rows of the states that hold cases.  Every lnΓ table comes from
    ``log_gamma``, the search's one store, which holds the search's one
    budget: the problem holds across solves what the store lets it hold,
    read-only, from its second solve on its emission blocks by rows, and
    the count tables of its last solve's families.  Whatever does not fit
    a solve builds for itself, as every solve on a store of room 0 does.
    """

    def __init__(
        self, i: int, dataset: Dataset, prior: PriorSpec, r_cap: int,
        log_gamma: LogGammaTables,
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
        self.log_gamma = log_gamma
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
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        self._below: dict[int, np.ndarray] = {}
        # Each cost matrix's row handed up by the last block built, by r.
        self._anchors: dict[int, np.ndarray] = {}
        # The kept count tables, by family key.
        self._tables = {}

    def _tally(
        self, policy: NetworkPolicy, structure: DagStructure, codes: np.ndarray
    ) -> None:
        """Prefix count tables of the own and each child's family, from the
        search's one tally, :func:`family_tables`, over the columns of
        :func:`_solve_inputs` in ``codes`` (in a search, the state's own),
        the variable's replaced by its fine code: the variable cut at every
        candidate.  Only live rows, states holding cases, are kept; state
        counts, own totals and margins come from the full tables.

        A family's tables depend only on its key: its head, its parent set
        and the policies of its other members.  The last solve's tables are
        kept, so only the families whose key changed are tallied; a kept
        family this solve does not read gives its floats back to the store,
        and a tallied one is kept if the store holds it.  With no family
        fresh, nothing is tallied."""
        i = self.i
        members, families = _solve_inputs(structure, i)
        keys = [
            (v, ps, tuple(policy[u] for u in sorted(ps | {v}) if u != i))
            for v, ps in families
        ]
        for key in self._tables.keys() - set(keys):
            self.log_gamma.room += sum(a.size for a in self._tables.pop(key))
        fresh = [key for key in keys if key not in self._tables]
        tallied = []
        if fresh:
            place = {v: k for k, v in enumerate(members)}
            codes = codes[:, members]
            codes[:, place[i]] = self.fine
            sets = [frozenset(place[p] for p in ps) for _, ps, _ in fresh]
            tallied = family_tables(
                codes,
                [self.m + 1 if v == i else policy[v].arity for v in members],
                [(place[v], ps, [ps]) for (v, _, _), ps in zip(fresh, sets)],
                names=[self.names[v] for v in members],
            )

        def live_prefix(counts: np.ndarray) -> np.ndarray:
            # The live rows, in order, cumulated along i's axis, the last,
            # behind a zero column.
            counts = counts[counts.any(axis=-1)]
            out = np.zeros((len(counts), self.m + 2), dtype=np.int64)
            np.cumsum(counts, axis=1, out=out[:, 1:])
            return out

        tables = dict(self._tables)
        for key, counts in zip(fresh, tallied):
            v, ps, _ = key
            if v == i:
                new = counts.sum(axis=1), live_prefix(counts)
            else:
                before = math.prod(policy[p].arity for p in ps if p < i)
                # With i's axis last, the rows are (configuration of the
                # other parents, child code).
                cells = counts.reshape(before, self.m + 1, -1).swapaxes(1, 2)
                margins = cells.reshape(-1, policy[v].arity, self.m + 1).sum(axis=1)
                new = live_prefix(cells), live_prefix(margins)
            tables[key] = new
            if self.log_gamma.hold(*new):
                self._tables[key] = new
        self.own_totals, self.own_prefix = tables[keys[0]]
        self.q_own = len(self.own_totals)
        self.child_tables = [
            (policy[v].arity, math.prod(policy[p].arity for p in ps - {i}),
             *tables[v, ps, others])
            for v, ps, others in keys[1:]
        ]
        self.one_state = all(len(prefix) == 1 for prefix in self._prefixes())

    def _prefixes(self) -> list[np.ndarray]:
        """The live prefix tables, own first, then each child's cell and
        margin table."""
        children = chain.from_iterable(t[2:] for t in self.child_tables)
        return [self.own_prefix, *children]

    def _block(self, lo: int, hi: int) -> np.ndarray:
        """The emission block of rows ``lo..hi-1``, held or built."""
        block = self._blocks.get((lo, hi))
        if block is None:
            block = self._emission(lo, hi)
            if self.solves > 1 and self.log_gamma.hold(block):
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

    def _state_counts(self, prefix: np.ndarray, lo: int, hi: int):
        """The counts ``n = P_s[v] - P_s[u]`` of each state ``s`` of
        ``prefix``, rows ``lo..hi-1`` to columns ``lo+1..M+1`` as in
        ``_emission``: one state's as a (rows, columns) block, two or more
        lazily, in state order, as (states, rows, columns) chunks of at
        most ``_BLOCK_FLOATS`` cells or one state.  Where ``v <= u`` a count
        is negative, at least -N, and reads some entry of the table;
        ``_emission``'s -inf masks those cells."""
        if len(prefix) == 1:
            return prefix[0, lo + 1:] - prefix[0, lo:hi, None]
        chunk = max(1, _BLOCK_FLOATS // ((hi - lo) * (self.m + 1 - lo)))
        return (
            prefix[s:s + chunk, None, lo + 1:] - prefix[s:s + chunk, lo:hi, None]
            for s in range(0, len(prefix), chunk)
        )

    def _slice_terms(self, counts, a: float) -> np.ndarray:
        """Sum over the states of ``counts``, as :meth:`_state_counts` gives
        them, of ``lnG(a + n) - lnG(a)``.

        One state's terms are one gather from the shifted lnΓ table, each
        entry the difference rounded once, as subtracting ``lnG(a)`` after
        the gather rounds it.  Two or more states' terms are gathered a
        chunk at a time and added in state order, ``lnG(a)`` subtracted
        after each; a pairwise ``sum`` over the states would round
        differently.  The first state's terms start the sum, which equals
        adding them to zeros: no lnΓ table holds -0.0.  A count off the
        table raises IndexError.
        """
        if isinstance(counts, np.ndarray):
            return self.log_gamma.table(a, "shifted")[counts]
        lut = self.log_gamma.table(a)
        # x - 0.0 == x for every float x: lnG(1) and lnG(2) are +0.0.
        base = None if lut[0] == 0.0 and not np.signbit(lut[0]) else lut[0]
        out = None
        for n in counts:
            # Indexing gathers straight into a new array; np.take with out=
            # would copy through a buffer.
            terms = lut[n]
            # Unless held, a chunk's counts are freed before its fold.
            del n
            for state in terms:
                if out is None:
                    out = state
                else:
                    out += state
                if base is not None:
                    out -= base
        return out

    def _recurs(self, lo: int, hi: int) -> bool:
        """Whether rows ``lo..hi-1`` take :meth:`_recurrence`: the tables
        hold more live states than one per table, and each of the rows, two
        or more, starts a one-case fine segment."""
        # Every fine segment holds a case, so each of rows lo..hi-1 starts a
        # one-case segment when they start hi - lo cases in all.
        return (
            not self.one_state
            and hi - lo > 1
            and self.positions[hi] - self.positions[lo] == hi - lo
        )

    def _counts(self, lo: int, hi: int, keep: bool = False):
        """What the slice terms of rows ``lo..hi-1`` gather at, whatever the
        interval count, in the order :meth:`_costs` reads it: each table's
        :meth:`_state_counts`, tables in the order of :meth:`_prefixes`, or,
        where the rows take the row recurrence, each table's increment
        counts, checked against the lnΓ tables.

        Lazy, one table at a time: the increments go into one buffer reused
        from table to table, each read before the next is built, unless
        ``keep`` asks for arrays to hold across interval counts.
        """
        prefixes = self._prefixes()
        if not self._recurs(lo, hi):
            for prefix in prefixes:
                yield self._state_counts(prefix, lo, hi)
            return
        n = None
        for prefix in prefixes:
            # Moving an interval's start from u+1 to u adds fine segment u's
            # one case, in one state s per table, so the table's terms grow
            # at the count n = P_s[v] - P_s[u].
            state = (prefix[:, lo + 1:hi + 1] - prefix[:, lo:hi]).argmax(axis=0)
            n = np.take(
                prefix[:, lo + 1:], state, axis=0, mode="clip",
                out=None if keep else n,
            )
            n -= prefix[state, np.arange(lo, hi)][:, None]
            # Prefix rows never decrease: a row's last count is its largest.
            if n[:, -1].max() > self.n_cases:
                raise IndexError(f"a count past N = {self.n_cases}")
            yield n

    def _costs(
        self, r: int, lo: int, hi: int, emission: np.ndarray, counts=None
    ) -> np.ndarray:
        """Rows ``lo..hi-1`` of the cost matrix for ``r`` intervals, columns
        ``lo+1..M+1``, with ``-inf`` wherever ``v <= u`` from ``emission``:
        no lnΓ table entry is infinite.  The own and child cell tables add
        their slice terms and the margins subtract theirs, by
        :meth:`_recurrence` where the rows take it, else table by table
        with the emission after the own family's.  ``counts`` are the rows'
        :meth:`_counts` when held across interval counts; without them each
        table's are built as it is read.

        The slice terms of row ``lo`` are handed up, by ``r``, to anchor the
        block above: under the recurrence taken before the emission is
        added, else as the row less its emission."""
        tables = [(self.prior.cell_weight(r, self.q_own), np.add)]
        for r_child, q_other, _, _ in self.child_tables:
            a_cell = self.prior.cell_weight(r_child, r * q_other)
            tables += [(a_cell, np.add), (a_cell * r_child, np.subtract)]
        counts = iter(self._counts(lo, hi) if counts is None else counts)
        if self._recurs(lo, hi):
            g = self._recurrence(r, tables, counts, lo, hi)
            self._anchors[r] = g[0].copy()
            g += emission
            return g
        g = self._slice_terms(next(counts), tables[0][0])
        g += emission
        for a, op in tables[1:]:
            op(g, self._slice_terms(next(counts), a), out=g)
        self._anchors[r] = g[0] - emission[0]
        return g

    def _recurrence(self, r: int, tables: list, counts, lo: int, hi: int) -> np.ndarray:
        """The slice terms of :meth:`_costs`'s ``tables`` by the row
        recurrence of optimal partitioning (Jackson et al. 2005), read from
        the rows' :meth:`_counts`, anchored on row ``hi`` as the block below
        handed it up for ``r``: the bottom block's row ``M+1`` holds no
        interval."""
        # Each row is the row below plus its increments, lnG(a + n) -
        # lnG(a + n - 1) at each table's count n: one gather per table and
        # cell.
        g = np.zeros((hi - lo, self.m + 1 - lo))
        terms = None
        for (a, op), n in zip(tables, counts):
            # Clipping reads counts <= 0, at v <= u, at the 0 entry.
            terms = np.take(self.log_gamma.table(a, "steps"), n, mode="clip", out=terms)
            op(g, terms, out=g)
        if hi <= self.m:
            g[-1, hi - lo:] += self._anchors[r]
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
        builds only row 0, by the exact path.  Every other count builds
        every block, so each block that takes the row recurrence has the
        row :meth:`_costs` handed up from the block below it to anchor on.
        The top block, the last built, is kept for the backtrack.  Every
        max-plus step adds into one buffer, reshaped to each block.

        When two or more counts read a block that takes the row recurrence,
        or whose tables each hold one live state, its :meth:`_counts` are
        built once, one array per table, and held until every count has
        read them: each count then gathers from its own lnΓ tables and adds,
        cell by cell, as a lone count does with the counts it builds, so
        every layer is the same bit for bit.  Other blocks, and a lone
        count, build them table by table.

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
            readers = [r for r in layers if r > 1 or lo == 0]
            held = None
            if len(readers) > 1 and (self.one_state or self._recurs(lo, hi)):
                held = list(self._counts(lo, hi, keep=True))
            for r in readers:
                table = layers[r]
                if r == 1:
                    # No block below anchors r = 1: its one row is exact.
                    g = self._costs(r, 0, 1, emission[:1])
                    table[0, 0] = g[0, -1]
                    continue
                g = self._costs(r, lo, hi, emission, held)
                table[0, lo:hi] = g[:, -1]
                for k in range(1, r - 1):
                    np.add(g, table[k - 1, lo + 1:], out=scores)
                    scores.max(axis=1, initial=-np.inf, out=table[k, lo:hi])
                if lo == 0:
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

    def _reconstruct(self, cost_r: int, table: np.ndarray, r: int) -> tuple[float, ...]:
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
        arrays, the problem's and the store's, outlive the solve."""
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
        self.log_gamma.release()
        del self.own_prefix, self.own_totals, self.child_tables, self._kept
        self._anchors.clear()
        return DiscretizationPolicy(thresholds, self.lower, self.upper)
