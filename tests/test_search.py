import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    continuous_dataset,
    mixed_dataset,
    odd_columns_discrete,
    random_mixed_dataset,
    random_network_policy,
    random_parent_sets,
)
from mixedbn import (
    Dataset,
    DiscretizationPolicy,
    InitSpec,
    NetworkPolicy,
    PriorSpec,
    SearchConfig,
    ValidationError,
    continuous_terms,
    coordinate_ascent,
    hill_climb_structure,
    initial_policy,
    network_score,
    optimize_variable,
    random_mechanism,
    sample_dataset,
    trivial_network_policy,
)
from mixedbn.dataset import discretize_all
from mixedbn.generator import Mechanism
from mixedbn.graph import CycleError, _blanket, empty_structure, validate_dag
from mixedbn import cutdp, scoring, search
from mixedbn.cutdp import TIE_TOLERANCE, _CutProblem
from mixedbn.search import _edit_candidates, _SearchState
from oracles import (
    DenseCutProblem,
    edited,
    exhaustive_policy_search,
    family_score,
    local_score,
    reference_edit_candidates,
    reference_prefix_tables,
    reference_scan,
    reference_slice_terms,
)


def edit_list(candidates):
    """The index arrays of :func:`_edit_candidates` as ``(op, parent,
    child)`` tuples."""
    kind, u, v = candidates
    return [
        (search._EDIT_OPS[k], a, b)
        for k, a, b in zip(kind.tolist(), u.tolist(), v.tolist())
    ]


def bare_problem(i, ds, prior, r_cap):
    """The cut problem of ``i`` as a lone solve builds it: holding nothing,
    on an lnΓ store of its own with room 0."""
    return _CutProblem(i, ds, prior, r_cap, 0, scoring.LogGammaTables(ds.n_cases, 0))


def cut_problem(i, policy, structure, ds, prior):
    """The cut problem of ``i``, holding nothing, under the default interval
    cap, tallied from a fresh code matrix."""
    problem = bare_problem(i, ds, prior, min(12, len(ds.candidate_thresholds(i)) + 1))
    problem._tally(policy, structure, discretize_all(ds, policy))
    return problem


# The row recurrence sums a block's slice terms in another order than the
# state-by-state sums, so its costs, and the DP layers built on them, may
# differ from theirs by rounding.  The bound was fixed before the recurrence
# first ran: a block here sums at most a few hundred rows, each rounding by
# half an ulp of partial sums under a few thousand nats.
RECURRENCE_RTOL, RECURRENCE_ATOL = 1e-12, 1e-10


def within_recurrence_bound(got, want):
    return np.allclose(got, want, rtol=RECURRENCE_RTOL, atol=RECURRENCE_ATOL)


def spy_recurrence(problem):
    """Record the blocks, as ``(lo, hi)``, that ``problem`` builds by the
    row recurrence."""
    built = []
    real = problem._recurrence

    def spy(r, tables, counts, lo, hi):
        built.append((lo, hi))
        return real(r, tables, counts, lo, hi)

    problem._recurrence = spy
    return built


class LoggedTable(np.ndarray):
    """An lnΓ table that logs the state count of each gather from it."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            # One state's counts are a matrix, a chunk of states' counts 3-D.
            self.gathers.append(len(key) if key.ndim == 3 else 1)
        got = super().__getitem__(key)
        return got.view(np.ndarray) if isinstance(got, np.ndarray) else got


def spy_gathers(problem):
    """Record the state count of each gather of ``problem``'s slice terms
    from the tables of its lnΓ store."""
    gathers = []
    real = problem.log_gamma.table

    def spy(a, form=""):
        table = real(a, form)
        if form == "steps":
            return table
        table = table.view(LoggedTable)
        table.gathers = gathers
        return table

    problem.log_gamma.table = spy
    return gathers


def assert_chunk_rule(gathers, live, cells):
    """``gathers``, as :func:`spy_gathers` logs them, are one slice-terms
    sum over ``live`` states of ``cells`` counts each: one state's one
    gather, two or more states' chunks that cover them all, each of at most
    ``_BLOCK_FLOATS`` cells or one state, each but the last the largest
    such."""
    if live == 1:
        assert gathers == [1]
        return
    assert sum(gathers) == live, gathers
    for k, states in enumerate(gathers):
        assert states == 1 or states * cells <= cutdp._BLOCK_FLOATS, gathers
        if k < len(gathers) - 1:
            assert (states + 1) * cells > cutdp._BLOCK_FLOATS, gathers


def with_twin(ds):
    """``ds`` with its last column replaced by a copy of its first, so that
    edits touching either score alike."""
    values = ds.values.copy()
    values[:, -1] = values[:, 0]
    twin = dataclasses.replace(ds.variables[0], name=ds.variables[-1].name)
    return Dataset(variables=(*ds.variables[:-1], twin), values=values)


def dependent_pair_mechanism(seed, flip=0.1):
    strong = 1.0 - flip
    return Mechanism(
        structure=validate_dag([set(), {0}]),
        cpts=(
            np.array([[0.5, 0.5]]),
            np.array([[strong, flip], [flip, strong]]),
        ),
        policies=(
            DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
            DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
        ),
        seed=seed,
    )


def independent_pair_mechanism(seed):
    return Mechanism(
        structure=empty_structure(2),
        cpts=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])),
        policies=(
            DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
            DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
        ),
        seed=seed,
    )


PRIOR_COMBINATIONS = tuple(
    itertools.product(
        ("k2", "bdeu"), ("uniform", "poisson"), ("uniform", "multinomial")
    )
)


def cycled_prior(trial, rng):
    """Dirichlet mode x policy prior x density, one combination per trial."""
    mode, policy_prior, density = PRIOR_COMBINATIONS[trial % len(PRIOR_COMBINATIONS)]
    weight = float(rng.uniform(0.5, 6.0))
    return PriorSpec(
        dirichlet_mode=mode,
        alpha=weight if mode == "k2" else 1.0,
        ess=weight if mode == "bdeu" else 1.0,
        policy_prior=policy_prior,
        poisson_rate=2.0,
        density_model=density,
    )


class TestConfigs:
    def test_init_validation(self):
        with pytest.raises(ValidationError):
            InitSpec(kind="quantile")
        with pytest.raises(ValidationError):
            InitSpec(kind="eqfreq", r0=1)
        with pytest.raises(ValidationError):
            InitSpec(kind="given")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SearchConfig(r_max=0)
        with pytest.raises(ValidationError):
            SearchConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            SearchConfig(max_sweeps=0)
        with pytest.raises(ValidationError):
            SearchConfig(max_parents=0)
        with pytest.raises(ValidationError, match="seed"):
            SearchConfig(seed=-1)

    def test_resolved_r_max(self):
        assert SearchConfig().resolved_r_max(100) == 12
        assert SearchConfig().resolved_r_max(5) == 4
        assert SearchConfig().resolved_r_max(1) == 1
        assert SearchConfig(r_max=3).resolved_r_max(100) == 3


class TestInitialPolicy:
    def test_eqfreq_splits_counts(self):
        ds = continuous_dataset(np.arange(6.0).reshape(-1, 1))
        policy = initial_policy(ds, SearchConfig(init=InitSpec(kind="eqfreq", r0=3)))
        assert policy[0].thresholds == (1.5, 3.5)

    def test_eqwidth_splits_range(self):
        ds = continuous_dataset(
            np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]).reshape(-1, 1)
        )
        policy = initial_policy(
            ds, SearchConfig(init=InitSpec(kind="eqwidth", r0=2))
        )
        assert policy[0].thresholds == (3.5,)

    def test_thresholds_always_candidates(self):
        rng = np.random.default_rng(2)
        for kind in ("eqfreq", "eqwidth"):
            for _ in range(10):
                ds = random_mixed_dataset(rng)
                policy = initial_policy(
                    ds, SearchConfig(init=InitSpec(kind=kind, r0=4))
                )
                for i in ds.continuous_indices():
                    cands = set(ds.candidate_thresholds(i).tolist())
                    assert set(policy[i].thresholds) <= cands

    def test_constant_column_stays_single_interval(self):
        ds = continuous_dataset(np.array([[2.0], [2.0], [2.0]]))
        policy = initial_policy(ds, SearchConfig())
        assert policy[0].thresholds == ()

    def test_discrete_columns_stay_trivial(self):
        ds = mixed_dataset([("d", [0, 1, 0, 1], 2), ("c", [0.0, 1, 2, 3], None)])
        policy = initial_policy(ds, SearchConfig())
        assert policy[0].trivial

    @pytest.mark.parametrize(
        "n_cases, r_max, arity",
        [(6, 2, 2), (6, 1, 1), (3, None, 2), (3, 12, 2), (20, None, 3)],
        ids=["r-max-2", "r-max-1", "n-minus-1", "n-minus-1-under-r-max", "r0"],
    )
    def test_interval_count_is_capped(self, n_cases, r_max, arity):
        # min(r0 = 3, r_max, N - 1) intervals.
        ds = continuous_dataset(np.arange(float(n_cases)).reshape(-1, 1))
        for kind in ("eqfreq", "eqwidth"):
            config = SearchConfig(r_max=r_max, init=InitSpec(kind=kind))
            assert initial_policy(ds, config)[0].arity == arity


class TestOptimizeVariable:
    def test_worked_optimum(self):
        ds = continuous_dataset(
            np.array([[0.0], [1.0], [9.0], [10.0]]), bounds=[(0.0, 10.0)]
        )
        best = optimize_variable(
            0,
            trivial_network_policy(ds),
            empty_structure(1),
            ds,
            PriorSpec(),
            SearchConfig(),
        )
        assert best.thresholds == (0.5, 9.5)

    def test_discrete_target_rejected(self):
        ds = mixed_dataset([("d", [0, 1], 2)])
        with pytest.raises(ValidationError):
            optimize_variable(
                0,
                trivial_network_policy(ds),
                empty_structure(1),
                ds,
                PriorSpec(),
                SearchConfig(),
            )

    def test_r_cap_one_gives_single_interval(self):
        ds = continuous_dataset(np.array([[0.0], [1.0], [2.0]]))
        best = optimize_variable(
            0,
            trivial_network_policy(ds),
            empty_structure(1),
            ds,
            PriorSpec(),
            SearchConfig(r_max=1),
        )
        assert best.thresholds == ()

    def test_constant_column(self):
        ds = continuous_dataset(np.array([[5.0], [5.0]]))
        best = optimize_variable(
            0,
            trivial_network_policy(ds),
            empty_structure(1),
            ds,
            PriorSpec(),
            SearchConfig(),
        )
        assert best.thresholds == ()
        assert best.lower == best.upper == 5.0

    def test_matches_exhaustive_univariate(self):
        rng = np.random.default_rng(17)
        for trial in range(4 * len(PRIOR_COMBINATIONS)):
            n_cases = int(rng.integers(3, 10))
            values = np.round(rng.uniform(0.0, 4.0, size=n_cases), 1)
            ds = continuous_dataset(values.reshape(-1, 1), bounds=[(-0.5, 4.5)])
            prior = cycled_prior(trial, rng)
            config = SearchConfig()
            policy0 = trivial_network_policy(ds)
            structure = empty_structure(1)
            got = optimize_variable(0, policy0, structure, ds, prior, config)
            want, want_score = exhaustive_policy_search(
                0, policy0, structure, ds, prior,
                config.resolved_r_max(ds.n_cases),
            )
            assert got.thresholds == want.thresholds
            final = local_score(
                0, policy0.with_policy(0, got), structure, ds, prior
            )
            assert final == pytest.approx(want_score, abs=1e-9)

    def test_matches_exhaustive_with_family(self):
        """Middle of a chain: parent and child terms enter the objective."""
        rng = np.random.default_rng(23)
        for trial in range(2 * len(PRIOR_COMBINATIONS)):
            n_cases = int(rng.integers(5, 10))
            ds = mixed_dataset(
                [
                    ("d", rng.integers(0, 2, size=n_cases), 2),
                    ("c", np.round(rng.uniform(0, 3, size=n_cases), 1), (-1.0, 4.0)),
                    ("c", np.round(rng.uniform(0, 3, size=n_cases), 1), (-1.0, 4.0)),
                ]
            )
            structure = validate_dag([set(), {0}, {1}])
            policy = random_network_policy(rng, ds)
            prior = cycled_prior(trial, rng)
            config = SearchConfig()
            got = optimize_variable(1, policy, structure, ds, prior, config)
            want, _ = exhaustive_policy_search(
                1, policy, structure, ds, prior, config.resolved_r_max(n_cases)
            )
            assert got.thresholds == want.thresholds

    def test_exhaustive_guard(self):
        values = np.arange(30.0).reshape(-1, 1)
        ds = continuous_dataset(values)
        with pytest.raises(ValidationError):
            exhaustive_policy_search(
                0,
                trivial_network_policy(ds),
                empty_structure(1),
                ds,
                PriorSpec(),
                4,
            )


class TestCutProblem:
    """Interval costs of the segmentation add up to the score terms."""

    @pytest.mark.parametrize("density", ["uniform", "multinomial"])
    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    def test_density_sums_match_emission(self, mode, density):
        rng = np.random.default_rng(41)
        distinct = np.sort(rng.choice(1000, size=70, replace=False)) / 100.0
        values = np.repeat(distinct, rng.integers(1, 6, size=len(distinct)))
        assert set(np.unique(values, return_counts=True)[1]) == {1, 2, 3, 4, 5}
        ds = continuous_dataset(
            rng.permutation(values).reshape(-1, 1), bounds=[(-1.0, 11.0)]
        )
        prior = PriorSpec(
            dirichlet_mode=mode, alpha=2.5, ess=4.0, density_model=density
        )
        problem = cut_problem(
            0, trivial_network_policy(ds), empty_structure(1), ds, prior
        )
        cands = ds.candidate_thresholds(0)
        lo, hi = ds.policy_bounds(0)
        for _ in range(20):
            size = int(rng.integers(0, 15))
            cuts = sorted(rng.choice(np.arange(1, len(cands) + 1), size, replace=False))
            chain = [0, *cuts, len(cands) + 1]
            got = sum(
                problem._emission(u, u + 1)[0, v - u - 1]
                for u, v in zip(chain, chain[1:])
            )
            policy = DiscretizationPolicy(
                tuple(float(cands[c - 1]) for c in cuts), lo, hi
            )
            want, _ = continuous_terms(ds, 0, policy, prior)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("data", ["tied", "untied", "bounds"])
    @pytest.mark.parametrize(
        "mode,density",
        [("k2", "uniform"), ("k2", "multinomial"), ("bdeu", "multinomial")],
    )
    def test_emission_matches_dense_density(self, rows, data, mode, density):
        rng = np.random.default_rng(43)
        x = rng.uniform(0.0, 3.0, 60)
        if data != "untied":
            x = np.round(x, 1)
        # Declared bounds at the column's min and max make the outer
        # intervals as narrow as the data allows.
        bounds = [(float(x.min()), float(x.max()))] if data == "bounds" else None
        ds = continuous_dataset(x.reshape(-1, 1), bounds=bounds)
        prior = PriorSpec(dirichlet_mode=mode, alpha=1.5, ess=3.0, density_model=density)
        policy = trivial_network_policy(ds)
        problem = cut_problem(0, policy, empty_structure(1), ds, prior)
        want = DenseCutProblem(0, policy, empty_structure(1), ds, prior).density
        m = problem.m
        assert (m + 1 < len(x)) == (data != "untied")
        step = rows or cutdp._BLOCK_FLOATS // (m + 2)
        for hi in range(m + 1, 0, -step):
            lo = max(0, hi - step)
            got = problem._emission(lo, hi)
            assert got.shape == (hi - lo, m + 1 - lo)
            # Row u of the block is cut lo + t, column j is cut lo + 1 + j:
            # v > u wherever j >= t.
            live = np.triu(np.ones(got.shape, dtype=bool))
            block = want[lo:hi, lo + 1:]
            assert np.array_equal(got[live], block[live]), (lo, hi)
            assert np.array_equal(np.signbit(got[live]), np.signbit(block[live]))

    def test_prefix_tables_match_reference(self):
        def live(prefix):
            return prefix[prefix[:, -1] != 0]

        rng = np.random.default_rng(67)
        n_vars, n_cases = 6, 40
        seen = set()
        for _ in range(30):
            spec = []
            for _ in range(n_vars):
                if rng.random() < 0.4:
                    arity = int(rng.integers(2, 4))
                    spec.append(("d", rng.integers(0, arity, n_cases), arity))
                elif rng.random() < 0.5:
                    # Tied: one decimal within declared bounds.
                    values = np.round(rng.uniform(0.0, 1.0, n_cases), 1)
                    spec.append(("c", values, (0.0, 1.0)))
                else:
                    spec.append(("c", rng.normal(size=n_cases), None))
            ds = mixed_dataset(spec)
            policy = random_network_policy(rng, ds)
            structure = validate_dag(random_parent_sets(rng, n_vars, 0.5, 3))
            for i in ds.continuous_indices():
                problem = cut_problem(i, policy, structure, ds, PriorSpec())
                positions, q_own, own_prefix, child_tables = reference_prefix_tables(
                    i, policy, structure, ds
                )
                assert np.array_equal(problem.positions, positions)
                assert problem.q_own == q_own
                assert problem.own_prefix.dtype == own_prefix.dtype == np.int64
                # The cut problem keeps the reference's live rows, in order,
                # and the totals of all of them.
                assert np.array_equal(problem.own_prefix, live(own_prefix))
                assert np.array_equal(problem.own_totals, own_prefix[:, -1])
                if len(own_prefix) > len(problem.own_prefix):
                    seen.add("dead states")
                assert len(problem.child_tables) == len(child_tables)
                for got, want in zip(problem.child_tables, child_tables):
                    assert got[:2] == want[:2]
                    assert np.array_equal(got[2], live(want[2]))
                    assert np.array_equal(got[3], live(want[3]))
                    if len(want[2]) > len(got[2]):
                        seen.add("dead cells")

                tied = len(ds.candidate_thresholds(i)) + 1 < n_cases
                seen.add("tied" if tied else "untied")
                if not structure.parents[i]:
                    seen.add("no parents")
                for c in structure.children[i]:
                    others = structure.parents[c] - {i}
                    if not others:
                        continue
                    if i < min(others):
                        seen.add("before")
                    elif i > max(others):
                        seen.add("after")
                    else:
                        seen.add("between")
                for v in _blanket(structure, i):
                    seen.add("continuous" if ds.is_continuous(v) else "discrete")
        assert seen == {
            "tied", "untied", "no parents", "before", "between", "after",
            "continuous", "discrete", "dead states", "dead cells",
        }


def chain_problem(n=600):
    """Untied chain x0 -> x1 -> x2 with x0 and x2 cut at their medians; the
    solve of x1 reads a parent and a child."""
    rng = np.random.default_rng(1)
    x0 = rng.uniform(0.0, 1.0, n)
    x1 = x0 + rng.normal(0.0, 0.3, n)
    x2 = x1 + rng.normal(0.0, 0.3, n)
    ds = continuous_dataset(np.c_[x0, x1, x2])
    policy = trivial_network_policy(ds)
    for v in (0, 2):
        cut = (float(np.median(ds.column(v))),)
        policy = policy.with_policy(
            v, DiscretizationPolicy(cut, *ds.policy_bounds(v))
        )
    return ds, policy, validate_dag([set(), {0}, {1}])


def children_problem(children=6, n=600):
    """Untied x0 with ``children`` children, each x0 plus noise cut at its
    median: under shared sample size a solve of x0 holds a block of counts
    for each of its 13 tables."""
    rng = np.random.default_rng(1)
    x0 = rng.uniform(0.0, 1.0, n)
    ds = continuous_dataset(
        np.c_[tuple([x0] + [x0 + rng.normal(0.0, 0.3, n) for _ in range(children)])]
    )
    policy = trivial_network_policy(ds)
    for v in range(1, children + 1):
        cut = (float(np.median(ds.column(v))),)
        policy = policy.with_policy(
            v, DiscretizationPolicy(cut, *ds.policy_bounds(v))
        )
    return ds, policy, validate_dag([set()] + [{0}] * children)


def solve_peak(ds, policy, structure, prior, i=1):
    """Tracemalloc peak of solving ``x{i}``, in bytes."""
    tracemalloc.start()
    try:
        optimize_variable(i, policy, structure, ds, prior, SearchConfig())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedCutProblem:
    """The row-blocked DP equals the dense-matrix DP: its layers bit for bit
    where every block sums its slice terms state by state, and within the
    recurrence bound where the row recurrence builds a block; its backtracks
    and solved policies exactly."""

    @staticmethod
    def problem_inputs(n=48, tied=True, tie_at=None):
        """x0 with a parent and a child, the child with another parent; x0
        rounded to one decimal if ``tied``, or given one tie, its value of
        rank ``tie_at`` set to the next one up."""
        rng = np.random.default_rng(17)
        x = rng.uniform(0.0, 3.0, n)
        if tied:
            x = np.round(x, 1)
        if tie_at is not None:
            order = np.argsort(x)
            x[order[tie_at]] = x[order[tie_at + 1]]
        parent = (x + rng.normal(0.0, 0.8, n) > 1.5).astype(float)
        child = np.round(x + rng.normal(0.0, 1.0, n), 1)
        other = np.round(rng.uniform(0.0, 1.0, n), 2)
        ds = continuous_dataset(np.c_[x, parent, child, other])
        policy = trivial_network_policy(ds)
        for v, cuts in ((1, (0.5,)), (2, (0.8, 1.6, 2.4)), (3, (0.5,))):
            policy = policy.with_policy(
                v, DiscretizationPolicy(cuts, *ds.policy_bounds(v))
            )
        family = validate_dag([{1}, set(), {0, 3}, set()])
        return ds, policy, family

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("with_family", [False, True])
    @pytest.mark.parametrize("mode,policy_prior,density", PRIOR_COMBINATIONS)
    def test_matches_dense_reference(
        self, monkeypatch, rows, with_family, mode, policy_prior, density
    ):
        ds, policy, family = self.problem_inputs()
        m = len(ds.candidate_thresholds(0))
        assert m > 20
        if rows is not None:
            monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", rows * (m + 2))
        self.check(ds, policy, family if with_family else empty_structure(4),
                   mode, policy_prior, density)

    @pytest.mark.parametrize("with_family", [False, True])
    @pytest.mark.parametrize("mode,policy_prior,density", PRIOR_COMBINATIONS)
    def test_default_blocks_match_dense_reference(
        self, with_family, mode, policy_prior, density
    ):
        ds, policy, family = self.problem_inputs(n=300, tied=False)
        m = len(ds.candidate_thresholds(0))
        assert m == 299
        # Rows 0..M of the upper triangle, a default block's worth at a time.
        assert math.ceil((m + 1) / (cutdp._BLOCK_FLOATS // (m + 2))) >= 3
        self.check(ds, policy, family if with_family else empty_structure(4),
                   mode, policy_prior, density)

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("mode,policy_prior,density", PRIOR_COMBINATIONS)
    def test_full_row_sweep_adds_only_to_minus_inf(
        self, monkeypatch, rows, mode, policy_prior, density
    ):
        # Each max-plus step adds a whole cost row, columns u+1..M+1, to a
        # layer's rows u+1..M+1.  The end column's sum never wins a max only
        # while the layers' row M+1 stays -inf and no cost is +inf or NaN.
        ds, policy, family = self.problem_inputs()
        m = len(ds.candidate_thresholds(0))
        if rows is not None:
            monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", rows * (m + 2))
        prior = PriorSpec(
            dirichlet_mode=mode, alpha=1.5, ess=3.0, policy_prior=policy_prior,
            poisson_rate=2.0, density_model=density,
        )
        problem = cut_problem(0, policy, family, ds, prior)
        assert family.parents[0] and family.children[0]
        blocks = []
        costs = problem._costs

        def spy(r, lo, hi, emission, counts=None):
            g = costs(r, lo, hi, emission, counts)
            blocks.append(g.copy())
            return g

        monkeypatch.setattr(problem, "_costs", spy)
        per_count = mode == "bdeu"
        layers = problem._layers(range(1, 13) if per_count else [12])
        assert len(blocks) >= (1 if rows is None else m // rows)
        for g in blocks:
            assert not np.isnan(g).any() and not np.isposinf(g).any()
        for table in layers.values():
            assert table.shape[1] == m + 2
            assert np.isneginf(table[:, m + 1]).all()

    @staticmethod
    def check(ds, policy, structure, mode, policy_prior, density):
        prior = PriorSpec(
            dirichlet_mode=mode, alpha=1.5, ess=3.0, policy_prior=policy_prior,
            poisson_rate=2.0, density_model=density,
        )
        r_cap = 12
        dense = DenseCutProblem(0, policy, structure, ds, prior)
        problem = cut_problem(0, policy, structure, ds, prior)
        built = spy_recurrence(problem)
        per_count = mode == "bdeu"
        layers = problem._layers(range(1, r_cap + 1) if per_count else [r_cap])
        same = within_recurrence_bound if built else np.array_equal
        for r in range(1, r_cap + 1):
            table = layers[r if per_count else r_cap]
            want = dense.table(r)[1]
            assert same(table[r - 1, 0], want[r][0])
            # The top layer, k = len(table), is defined only at row 0, which
            # the line above compares; every layer below it at every row.
            for k in range(1, min(r + 1, len(table))):
                assert same(table[k - 1], want[k])
            # Backtracking every interval count walks rows on both sides
            # of the kept top block.
            cost_r = r if per_count else r_cap
            assert problem._reconstruct(cost_r, table, r) == (
                dense._dense_reconstruct(*dense.table(r), r)
            )
        got = bare_problem(0, ds, prior, r_cap).solve(
            policy, structure, discretize_all(ds, policy)
        )
        assert got == dense.dense_solve()
        return set(built)

    def test_dense_reference_tallies_apart(self, monkeypatch):
        # The dense DP takes its counts from reference_prefix_tables alone,
        # so it checks the package's tally instead of running it.
        ds, policy, family = self.problem_inputs()
        tallies = []
        monkeypatch.setattr(
            cutdp, "family_tables", lambda *a, **k: tallies.append(a)
        )
        dense = DenseCutProblem(0, policy, family, ds, PriorSpec())
        assert tallies == []
        assert dense.q_own == 2 and len(dense.child_tables) == 1

    @pytest.mark.parametrize("rows", [3, None])
    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    @pytest.mark.parametrize("inputs", ["untied", "tied", "one-state"])
    def test_held_counts_match_one_count_builds(self, monkeypatch, inputs, mode, rows):
        # Several interval counts read a block's counts from one held build;
        # a single count builds them table by table as it reads them.
        ds, policy, family = self.problem_inputs(n=120, tied=inputs == "tied")
        structure = empty_structure(4) if inputs == "one-state" else family
        m = len(ds.candidate_thresholds(0))
        if rows is not None:
            monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", rows * (m + 2))
        prior = PriorSpec(dirichlet_mode=mode, alpha=1.5, ess=3.0)
        problem = cut_problem(0, policy, structure, ds, prior)
        assert problem.one_state == (inputs == "one-state")
        built = spy_recurrence(problem)
        kept = []
        counts = problem._counts

        def spy(lo, hi, keep=False):
            kept.append(keep)
            return counts(lo, hi, keep)

        problem._counts = spy
        every = problem._layers(range(1, 13))
        # Tied blocks of many states build their counts per interval count.
        assert any(kept) == (inputs != "tied")
        if inputs == "untied":
            # Every block of two or more rows recurs, for every count past
            # one.
            step = problem.step
            blocks = [(max(0, hi - step), hi) for hi in range(m + 1, 0, -step)]
            multi = [(lo, hi) for lo, hi in blocks if hi - lo > 1]
            assert built == [b for b in multi for _ in range(2, 13)]
        else:
            assert not built
        for r in range(1, 13):
            kept.clear()
            one = problem._layers([r])[r]
            assert not any(kept)
            assert self.same_bits(every[r], one), r

    @pytest.mark.parametrize("rows", [2, 3, None])
    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    @pytest.mark.parametrize("a", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("tied", [False, True])
    def test_recurrence_matches_reference(self, monkeypatch, tied, a, mode, rows):
        # x0 with a 2-state parent and a child with a 2-state other parent:
        # an own, a cell and a margin table of two or more live states.
        ds, policy, family = self.problem_inputs(n=120, tied=tied)
        m = len(ds.candidate_thresholds(0))
        if rows is not None:
            monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", rows * (m + 2))
        prior = PriorSpec(dirichlet_mode=mode, alpha=a, ess=a)
        problem = cut_problem(0, policy, family, ds, prior)
        dense = DenseCutProblem(0, policy, family, ds, prior)
        assert problem.q_own == 2 and len(problem.child_tables) == 1
        built = spy_recurrence(problem)
        kinds = set()
        for r in (2, 12):
            want = dense._interval_matrix(r)
            # Bottom-up, as the DP builds them: a block under the row
            # recurrence is anchored on the row the block below handed up.
            for hi in range(m + 1, 0, -problem.step):
                lo = max(0, hi - problem.step)
                got = problem._costs(r, lo, hi, problem._emission(lo, hi))
                cells = want[lo:hi, lo + 1:]
                # Only the cells v > u are costs.
                upper = ~np.tri(*got.shape, k=-1, dtype=bool)
                untied = (np.diff(problem.positions[lo:hi + 1]) == 1).all()
                if hi - lo > 1 and untied:
                    kinds.add("recurrence")
                    assert built == [(lo, hi)]
                    assert within_recurrence_bound(got[upper], cells[upper])
                else:
                    # A block holding a tie is summed state by state.
                    kinds.add("exact")
                    assert built == []
                    assert np.array_equal(got[upper], cells[upper])
                built.clear()
        if tied:
            assert "exact" in kinds
        else:
            assert kinds == {"recurrence"}

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    def test_anchor_chain_matches_dense_reference(self, monkeypatch, mode, rows):
        # Every block above the bottom one is anchored on the row the block
        # below handed up, so one chain of increments runs through 40 or
        # more blocks.  The one tied segment, mid-range, sends its block to
        # the exact path, which hands its row up to blocks that recur.
        n = 150
        ds, policy, family = self.problem_inputs(n, tied=False, tie_at=n // 2)
        m = len(ds.candidate_thresholds(0))
        assert m == n - 2
        monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", rows * (m + 2))
        blocks = [(max(0, hi - rows), hi) for hi in range(m + 1, 0, -rows)]
        assert len(blocks) >= 40
        positions, _ = ds.cut_segments(0)
        (tie,) = np.flatnonzero(np.diff(positions) == 2)
        exact = {(lo, hi) for lo, hi in blocks if hi - lo == 1 or lo <= tie < hi}
        built = self.check(ds, policy, family, mode, "uniform", "uniform")
        assert built == set(blocks) - exact
        # The tied block is multi-row and blocks above it recur.
        ((lo, hi),) = [b for b in exact if b[0] <= tie < b[1]]
        assert hi - lo > 1 and any(b[1] <= lo for b in built)

    def test_bdeu_single_interval_builds_row_zero(self, monkeypatch):
        # r = 1 reads its one layer only at row 0, cell M+1, which no block
        # below anchors: it builds that row alone, state by state, so the
        # cell is the dense reference's bit for bit while every other count
        # takes the row recurrence.
        ds, policy, family = self.problem_inputs(n=120, tied=False)
        m = len(ds.candidate_thresholds(0))
        monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", 3 * (m + 2))
        prior = PriorSpec(dirichlet_mode="bdeu", ess=3.0)
        problem = cut_problem(0, policy, family, ds, prior)
        built = spy_recurrence(problem)
        calls = []
        costs = problem._costs

        def spy(r, lo, hi, emission, counts=None):
            calls.append((r, lo, hi))
            return costs(r, lo, hi, emission, counts)

        problem._costs = spy
        layers = problem._layers(range(1, 13))
        assert [c for c in calls if c[0] == 1] == [(1, 0, 1)]
        assert built and (0, 1) not in built
        want = DenseCutProblem(0, policy, family, ds, prior).table(1)[1][1][0]
        assert layers[1][0, 0] == want

    @pytest.mark.parametrize("path", ["one-chunk", "chunks", "recurrence"])
    def test_count_outside_the_log_gamma_table_raises(self, monkeypatch, path):
        # 27 live states; the tied cuts sum the one block state by state, as
        # one chunk unless it is made not to fit, the untied ones by the row
        # recurrence.
        ds, policy, structure = self.three_parent_inputs(tied=path != "recurrence")
        problem = cut_problem(0, policy, structure, ds, PriorSpec())
        cells = (problem.m + 1) ** 2
        assert problem.step > problem.m
        if path != "recurrence":
            assert 27 * cells <= cutdp._BLOCK_FLOATS
        if path == "chunks":
            monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", 27 * cells - 1)
        # A last prefix entry above N makes the counts of the intervals that
        # end there exceed N; the gather must refuse them, not wrap around.
        problem.own_prefix = problem.own_prefix.copy()
        problem.own_prefix[0, -1] += ds.n_cases + 1
        built = spy_recurrence(problem)
        gathers = spy_gathers(problem)
        with pytest.raises(IndexError):
            problem._layers([3])
        if path == "recurrence":
            # The increments refuse it; no row is summed state by state.
            assert built and gathers == []
        else:
            # The first chunk of the own table, which holds the state,
            # refuses it.
            assert not built and gathers == [27 if path == "one-chunk" else 26]

    @staticmethod
    def three_parent_inputs(tied):
        """x0 with three parents of three states each, every state holding
        three cases: 27 live rows in the own prefix table."""
        rng = np.random.default_rng(31)
        n = 81
        x = rng.uniform(0.0, 3.0, n)
        if tied:
            x = np.round(x, 1)
        state = rng.permutation(n)
        parents = [(state // 3**j) % 3 + rng.uniform(0.0, 0.5, n) for j in range(3)]
        ds = continuous_dataset(np.c_[x, *parents])
        policy = trivial_network_policy(ds)
        for v in (1, 2, 3):
            policy = policy.with_policy(
                v, DiscretizationPolicy((0.75, 1.75), *ds.policy_bounds(v))
            )
        return ds, policy, validate_dag([{1, 2, 3}, set(), set(), set()])

    @staticmethod
    def same_bits(got, want):
        return np.array_equal(got, want) and np.array_equal(
            np.signbit(got), np.signbit(want)
        )

    @pytest.mark.parametrize("chunks", ["default", "whole", "uneven", "single"])
    @pytest.mark.parametrize("a", [1.0, 1.5])
    @pytest.mark.parametrize("tied", [True, False])
    def test_state_sums_match_reference(self, monkeypatch, tied, a, chunks):
        ds, policy, structure = self.three_parent_inputs(tied)
        problem = cut_problem(0, policy, structure, ds, PriorSpec())
        m = problem.m
        assert (m + 1 < ds.n_cases) == tied
        assert problem.q_own == 27 and (problem.own_prefix[:, -1] == 3).all()
        full = cutdp._BLOCK_FLOATS // (m + 2)
        # By default the whole untied matrix takes chunks of 4 states, the
        # last of 3.  Otherwise every block gathers its 27 states as one
        # chunk, the whole matrix takes chunks of 5, the last of 2, or every
        # state is gathered alone.
        square = (m + 1) ** 2
        limit = {"whole": 27 * square, "uneven": 5 * square, "single": 1}.get(chunks)
        if limit is not None:
            monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", limit)
        gathers = spy_gathers(problem)
        same_bits = self.same_bits
        # The sum starts from the first state's terms, so also check the
        # table of the last state alone.
        last_only = problem.own_prefix[-1:]
        for rows in (1, 3, full):
            for hi in range(m + 1, 0, -rows):
                lo = max(0, hi - rows)
                cells = (hi - lo) * (m + 1 - lo)
                for live in range(1, 28):
                    prefix = problem.own_prefix[:live]
                    gathers.clear()
                    counts = problem._state_counts(prefix, lo, hi)
                    got = problem._slice_terms(counts, a)
                    want = reference_slice_terms(problem, prefix, a, lo, hi)
                    assert same_bits(got, want), (rows, lo, live)
                    assert_chunk_rule(gathers, live, cells)
                # The chunks hold the states' counts in state order.
                chunked = np.concatenate(list(problem._state_counts(prefix, lo, hi)))
                stack = prefix[:, None, lo + 1:] - prefix[:, lo:hi, None]
                assert np.array_equal(chunked, stack)
                counts = problem._state_counts(last_only, lo, hi)
                got = problem._slice_terms(counts, a)
                want = reference_slice_terms(problem, last_only, a, lo, hi)
                assert same_bits(got, want), (rows, lo)

    @pytest.mark.parametrize("a", [1.0, 1.5])
    def test_chunked_gather_adds_states_in_order(self, monkeypatch, a):
        # Nine live states, each holding cases in the last three fine
        # segments: the one-cell block at the bottom sums nine nonzero
        # terms per cell, where numpy's pairwise sum over the states would
        # round differently from the states' order.
        ds, policy, structure = self.three_parent_inputs(tied=True)
        problem = cut_problem(0, policy, structure, ds, PriorSpec())
        m = problem.m
        gathers = spy_gathers(problem)

        def check(lo, hi):
            gathers.clear()
            counts = problem._state_counts(prefix, lo, hi)
            got = problem._slice_terms(counts, a)
            want = reference_slice_terms(problem, prefix, a, lo, hi)
            assert self.same_bits(got, want), (seed, lo, hi)
            return gathers

        square = (m + 1) ** 2
        for seed in range(6):
            rng = np.random.default_rng(seed)
            counts = rng.integers(0, 3, size=(9, m + 1))
            counts[:, -3:] += 1
            prefix = np.zeros((9, m + 2), dtype=np.int64)
            np.cumsum(counts, axis=1, out=prefix[:, 1:])
            assert prefix[:, -1].max() <= ds.n_cases
            # One-row blocks, down to the one-column block at the bottom:
            # one chunk each, then, over a limit of two rows, in chunks of
            # two states or more, the widest row in chunks of two.
            for limit, widest in (
                (cutdp._BLOCK_FLOATS, [9]),
                (2 * (m + 1), [2, 2, 2, 2, 1]),
            ):
                monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", limit)
                for lo in range(m, -1, -1):
                    assert_chunk_rule(check(lo, lo + 1), 9, m + 1 - lo)
                assert gathers == widest
                assert check(m, m + 1) == [9]
            # The whole matrix as one block, its 9 (M+1)² counts just within
            # the limit, then just over it, then in chunks of 4 states, which
            # do not divide the 9, and of one state.
            for limit, want in (
                (9 * square, [9]),
                (9 * square - 1, [8, 1]),
                (4 * square, [4, 4, 1]),
                (square, [1] * 9),
            ):
                monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", limit)
                assert check(0, m + 1) == want, limit
            monkeypatch.undo()
        # A count past N is refused by the gather of its chunk, the one
        # chunk of a row or the second of three.
        prefix[5, -1] += ds.n_cases + 1
        with pytest.raises(IndexError):
            check(m, m + 1)
        assert gathers == [9]
        monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", 4 * square)
        with pytest.raises(IndexError):
            check(0, m + 1)
        assert gathers == [4, 4]

    @pytest.mark.parametrize("a", [1.0, 1.5])
    def test_tally_keeps_live_states_of_full_tables(self, a):
        # x2 never takes code 2 and x3 never code 0: the own family of x1,
        # whose parent is x2, and the family of its child x4, whose other
        # parent is x3, hold states with no case.
        rng = np.random.default_rng(11)
        n = 60
        ds = mixed_dataset([
            ("c", rng.normal(size=n), None),
            ("d", rng.integers(0, 2, n), 3),
            ("d", rng.integers(1, 3, n), 3),
            ("d", rng.integers(0, 2, n), 2),
        ])
        policy = trivial_network_policy(ds)
        structure = validate_dag([{1}, set(), set(), {0, 2}])
        problem = cut_problem(0, policy, structure, ds, PriorSpec())
        m = problem.m
        _, q_own, own_prefix, child_tables = reference_prefix_tables(
            0, policy, structure, ds
        )
        # State counts and own totals are the full tables'.
        assert problem.q_own == q_own == 3
        assert np.array_equal(problem.own_totals, own_prefix[:, -1])
        ((r_child, q_other, cell_prefix, margin_prefix),) = child_tables
        ((got_r, got_q, got_cells, got_margins),) = problem.child_tables
        assert (got_r, got_q) == (r_child, q_other) == (2, 3)
        pairs = [
            (problem.own_prefix, own_prefix),
            (got_cells, cell_prefix),
            (got_margins, margin_prefix),
        ]
        for got, full in pairs:
            live = full[:, -1] != 0
            # The dead states are dropped, the live ones kept in order; a
            # tally over N >= 1 cases leaves every table a live state.
            assert 0 < live.sum() < len(live)
            assert np.array_equal(got, full[live])
            # The reference skips the full table's dead states; the live
            # rows alone sum to what it gives.
            for lo in (0, m // 2, m):
                want = reference_slice_terms(problem, full, a, lo, m + 1)
                counts = problem._state_counts(got, lo, m + 1)
                assert self.same_bits(problem._slice_terms(counts, a), want)

    def test_no_log_gamma_table_holds_negative_zero(self):
        # _slice_terms starts its sum from gathered lnΓ terms instead of
        # adding them to zeros; the two agree unless a term is -0.0.
        ds, policy, structure = chain_problem()
        assert ds.n_cases == 600
        problem = cut_problem(1, policy, structure, ds, PriorSpec())
        # K2: α for a family's cells, α times the child's arity for its
        # margins.
        weights = {alpha * k for alpha in (0.5, 1.0, 1.5, 2.0) for k in (1, 2, 3, 4)}
        for ess in (1.0, 3.0, 4.0, 10.0):
            bdeu = PriorSpec(dirichlet_mode="bdeu", ess=ess)
            for r in range(1, 13):
                for q in range(1, 31):
                    weights.add(bdeu.cell_weight(r, q))
                    # A child's margins, for child arities 2..4.
                    for r_child in (2, 3, 4):
                        weights.add(bdeu.cell_weight(r_child, r * q) * r_child)
        zeros = 0
        for a in sorted(weights):
            lut = problem.log_gamma.table(a)
            assert len(lut) == 601
            assert not np.signbit(lut[lut == 0.0]).any(), a
            zeros += int((lut == 0.0).sum())
        # lnΓ(1) and lnΓ(2) are zeros, +0.0: a = 1 and a = 2 hold three.
        assert zeros >= 3

    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    def test_count_penalties_match_reference(self, mode):
        prior = PriorSpec(dirichlet_mode=mode, alpha=1.5, ess=3.0)
        ds, policy, structure = self.three_parent_inputs(tied=True)
        problem = cut_problem(0, policy, structure, ds, prior)
        dense = DenseCutProblem(0, policy, structure, ds, prior)
        assert problem.q_own == 27
        rng = np.random.default_rng(5)
        # Also long rows, where numpy sums pairwise in blocks.
        for q in (27, 1, 130, 9000):
            if q != 27:
                totals = rng.integers(0, 50, q)
                for p in (problem, dense):
                    p.q_own, p.own_totals = q, totals
            penalties = problem.count_penalties(12)
            assert penalties.shape == (12,)
            for r in range(1, 13):
                assert penalties[r - 1] == dense.count_penalty(r), (q, r)

    def test_bdeu_solve_memory(self):
        ds, policy, structure = chain_problem()
        m = len(ds.candidate_thresholds(1))
        assert m == 599
        peak = solve_peak(ds, policy, structure, PriorSpec(dirichlet_mode="bdeu"))
        # Less than one dense cost matrix: the blocked DP measures 0.96 of
        # one here (0.77 before its blocks held their counts across interval
        # counts), where the dense DP peaked at 18.3.
        assert peak < 8 * (m + 2) ** 2


class TestMemoryGuard:
    """Solves too large for the memory budget fail before allocating."""

    def solve(self, ds, prior):
        return optimize_variable(
            0, trivial_network_policy(ds), empty_structure(1), ds, prior,
            SearchConfig(),
        )

    def test_message_names_the_problem(self, monkeypatch):
        ds = continuous_dataset(np.arange(40.0).reshape(-1, 1), names=["depth"])
        monkeypatch.setattr(scoring, "MEMORY_LIMIT_BYTES", 1)
        with pytest.raises(ValidationError) as info:
            self.solve(ds, PriorSpec())
        message = str(info.value)
        for part in ("'depth'", "N=40", "M=39", "round the column", "discrete"):
            assert part in message

    @pytest.mark.parametrize("inputs", ["chain", "children", "one-chunk", "untied"])
    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    @pytest.mark.parametrize("density", ["uniform", "multinomial"])
    def test_guard_charges_the_measured_peak(self, monkeypatch, mode, density, inputs):
        if inputs == "chain":
            i, (ds, policy, structure) = 1, chain_problem()
        elif inputs == "children":
            # Under shared sample size and the multinomial emission the 13
            # held count blocks take the peak past the rest of the charge.
            i, (ds, policy, structure) = 0, children_problem()
        else:
            # 27 live states: over M = 28 tied cuts every block of the own
            # family gathers its states as one chunk; over M = 80 untied
            # ones it takes the row recurrence.
            i = 0
            ds, policy, structure = TestBlockedCutProblem.three_parent_inputs(
                inputs == "one-chunk"
            )
            cells = (len(ds.candidate_thresholds(0)) + 1) ** 2
            assert (27 * cells <= cutdp._BLOCK_FLOATS) == (inputs == "one-chunk")
        prior = PriorSpec(dirichlet_mode=mode, density_model=density)
        peak = solve_peak(ds, policy, structure, prior, i)
        monkeypatch.setattr(scoring, "MEMORY_LIMIT_BYTES", peak - 1)
        with pytest.raises(ValidationError, match="policy solve"):
            optimize_variable(i, policy, structure, ds, prior, SearchConfig())

    def test_shared_sample_size_counts_every_cost_matrix(self, monkeypatch):
        ds = continuous_dataset(np.arange(40.0).reshape(-1, 1))
        # M=39, r_cap=12, no family: one prefix table, the working blocks,
        # 12 layer vectors and 12 log-gamma tables fit.  K2 needs one table;
        # BDeu needs all 12, and 1+2+...+12 = 78 layer vectors.
        blocks = cutdp._WORK_BLOCKS * cutdp._BLOCK_FLOATS
        limit = 8 * ((1 + 12) * 41 + 12 * 41 + blocks)
        monkeypatch.setattr(scoring, "MEMORY_LIMIT_BYTES", limit)
        self.solve(ds, PriorSpec())
        with pytest.raises(ValidationError):
            self.solve(ds, PriorSpec(dirichlet_mode="bdeu"))


class TestHeldInvariants:
    """A search keeps one cut problem per continuous variable.  Its solves
    read what the problem holds across them bit for bit as a bare solve
    builds it, within the problem's share of the budget, and hold emission
    blocks only from the second solve on.  Every problem reads its lnΓ
    tables from the search's one store, which its family scores read too."""

    @staticmethod
    def inputs(rows, monkeypatch):
        """The inputs of :class:`TestBlockedCutProblem`, ``x0`` cut once so
        that the Poisson prior scores the start, under ``rows``-row blocks
        (``None``: the default, three or more blocks)."""
        ds, policy, family = TestBlockedCutProblem.problem_inputs(
            n=48 if rows else 300, tied=rows is not None
        )
        cands = ds.candidate_thresholds(0)
        m = len(cands)
        policy = policy.with_policy(
            0, DiscretizationPolicy((float(cands[m // 2]),), *ds.policy_bounds(0))
        )
        if rows is not None:
            monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", rows * (m + 2))
        step = cutdp._BLOCK_FLOATS // (m + 2)
        assert math.ceil((m + 1) / step) >= 3
        return ds, policy, family, m

    @staticmethod
    def held(problem):
        tables = itertools.chain.from_iterable(problem._tables.values())
        return [*problem._blocks.values(), *tables]

    @staticmethod
    def spy_emission(monkeypatch, problem):
        built = []
        real = problem._emission

        def spy(lo, hi):
            built.append((lo, hi))
            return real(lo, hi)

        monkeypatch.setattr(problem, "_emission", spy)
        return built

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("with_family", [False, True])
    @pytest.mark.parametrize("mode,policy_prior,density", PRIOR_COMBINATIONS)
    def test_held_solve_matches_bare_solve(
        self, monkeypatch, rows, with_family, mode, policy_prior, density
    ):
        ds, policy, family, m = self.inputs(rows, monkeypatch)
        structure = family if with_family else empty_structure(4)
        prior = PriorSpec(
            dirichlet_mode=mode, alpha=1.5, ess=3.0, policy_prior=policy_prior,
            poisson_rate=2.0, density_model=density,
        )
        config = SearchConfig(r_max=12)
        bare = optimize_variable(0, policy, structure, ds, prior, config)
        state = _SearchState(structure, policy, ds, prior, config)
        # Small blocks outgrow a share of the budget; here every block is
        # to be held.
        problem = state.problems[0] = _CutProblem(
            0, ds, prior, 12, 1 << 30, state.problems.log_gamma
        )
        assert state.solve(0) == bare
        assert not problem._blocks
        again = optimize_variable(
            0, policy, structure, ds, prior, config,
            codes=state.codes, problems=state.problems,
        )
        assert again == bare
        assert state.problems == {0: problem}
        assert len(problem._blocks) == math.ceil((m + 1) / problem.step)

        # A third solve reads every emission block and row from the held ones.
        built = self.spy_emission(monkeypatch, problem)
        problem._tally(policy, structure, state.codes)
        fresh = cut_problem(0, policy, structure, ds, prior)
        counts = range(1, 13) if mode == "bdeu" else [12]
        got, want = problem._layers(counts), fresh._layers(counts)
        assert got.keys() == want.keys()
        for r in counts:
            assert np.array_equal(got[r], want[r])
            for u in range(m + 1):
                row, first = problem._cost_row(r, u)
                want_row, want_first = fresh._cost_row(r, u)
                assert first == want_first
                assert np.array_equal(row, want_row), (r, u)
        for r in range(1, 13):
            cost_r = r if mode == "bdeu" else 12
            assert problem._reconstruct(cost_r, got[cost_r], r) == (
                fresh._reconstruct(cost_r, want[cost_r], r)
            )
        assert problem.solve(policy, structure, state.codes) == bare
        assert built == []

    def test_one_solve_per_variable_holds_no_block(self):
        # discretize under no structure: coordinate ascent over the empty
        # graph solves each variable once; the confirming sweep reads the
        # memo.
        ds, _ = sample_dataset(random_mechanism(3, 3, 2, seed=1), 120)
        prior, config = PriorSpec(dirichlet_mode="bdeu"), SearchConfig()
        state = _SearchState(
            empty_structure(3), initial_policy(ds, config), ds, prior, config
        )
        state.ascend()
        assert state.trace.stats.solves == 3
        assert state.trace.stats.solve_hits >= 3
        assert sorted(state.problems) == [0, 1, 2]
        store = state.problems.log_gamma
        for problem in state.problems.values():
            assert problem.solves == 1
            assert problem._blocks == {}
            assert problem.log_gamma is store
        # The store holds lnΓ tables from the first solve.
        assert store.tables
        assert not any(t.flags.writeable for t in store.tables.values())

    def test_budget_caps_what_is_held(self, monkeypatch):
        ds, policy, family, m = self.inputs(None, monkeypatch)
        # The budget split over the four continuous variables: a share of
        # one block's worth of floats each.
        assert len(ds.continuous_indices()) == 4
        monkeypatch.setattr(cutdp, "_WORK_BLOCKS", 4)
        share = cutdp._BLOCK_FLOATS
        prior, config = PriorSpec(), SearchConfig(r_max=12)
        state = _SearchState(family, policy, ds, prior, config)
        bare = optimize_variable(0, policy, family, ds, prior, config)
        for _ in range(3):
            got = optimize_variable(
                0, policy, family, ds, prior, config,
                codes=state.codes, problems=state.problems,
            )
            assert got == bare
        problem = state.problems[0]
        held = self.held(problem)
        assert 0 <= problem.room
        assert sum(a.size for a in held) + problem.room == share
        assert 0 < len(problem._blocks) < math.ceil((m + 1) / problem.step)

        built = self.spy_emission(monkeypatch, problem)
        problem._tally(policy, family, state.codes)
        fresh = cut_problem(0, policy, family, ds, prior)
        got, want = problem._layers([12]), fresh._layers([12])
        assert np.array_equal(got[12], want[12])
        # The blocks past the budget are built, the held ones read.
        assert built and not set(built) & set(problem._blocks)
        assert problem.room == share - sum(a.size for a in held)

    def test_held_arrays_are_read_only(self, monkeypatch):
        ds, policy, family, _ = self.inputs(3, monkeypatch)
        prior = PriorSpec(density_model="multinomial")
        state = _SearchState(family, policy, ds, prior, SearchConfig(r_max=12))
        for _ in range(2):
            optimize_variable(
                0, policy, family, ds, prior, state.config,
                codes=state.codes, problems=state.problems,
            )
        problem = state.problems[0]
        tables = state.problems.log_gamma.tables
        assert tables and problem._blocks
        for array in [*self.held(problem), *tables.values()]:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_learn_keeps_one_problem_per_variable(self, monkeypatch):
        # A budget of six small blocks, split over five continuous
        # variables: each share holds some small blocks, and the lnΓ store
        # one small block of tables.
        monkeypatch.setattr(cutdp, "_BLOCK_FLOATS", 4096)
        monkeypatch.setattr(cutdp, "_WORK_BLOCKS", 6)
        ds, _ = sample_dataset(random_mechanism(5, 3, 2, seed=4), 150)
        assert len(ds.continuous_indices()) == 5
        built, solved = [], set()
        init, solve = _CutProblem.__init__, _CutProblem.solve

        def spy_init(problem, i, *args):
            built.append(problem)
            init(problem, i, *args)

        def spy_solve(problem, *args):
            solved.add(problem.i)
            return solve(problem, *args)

        monkeypatch.setattr(_CutProblem, "__init__", spy_init)
        monkeypatch.setattr(_CutProblem, "solve", spy_solve)
        prior = PriorSpec(dirichlet_mode="bdeu", ess=10.0)
        _, _, trace = hill_climb_structure(ds, prior, SearchConfig())
        assert sorted(p.i for p in built) == sorted(solved)
        assert trace.stats.solves > len(built)
        assert any(p._blocks for p in built)
        # Between solves a problem keeps only held arrays, and the store
        # only held tables, though under BDeu's many pseudo-counts some of
        # them did not fit.
        held = [a for p in built for a in self.held(p)]
        assert not any(a.flags.writeable for a in held)
        budget = cutdp._WORK_BLOCKS * cutdp._BLOCK_FLOATS
        assert sum(a.size for a in held) <= budget
        (store,) = {id(p.log_gamma): p.log_gamma for p in built}.values()
        assert not any(t.flags.writeable for t in store.tables.values())
        assert sum(t.size for t in store.tables.values()) + store.room == 4096
        assert store.room <= ds.n_cases

    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    def test_search_builds_each_log_gamma_table_once(self, monkeypatch, mode):
        """A learn's family scores and every cut problem read the state's
        one lnΓ store, and the store builds each (pseudo-count, form) table
        once: here every table fits in its block, so none is rebuilt."""
        ds, _ = sample_dataset(random_mechanism(6, 2, 3, seed=1), 300)
        prior = PriorSpec(dirichlet_mode=mode, policy_prior="poisson", poisson_rate=2.0)
        states, problems, readers, built = [], [], set(), []
        init_state, init_problem = _SearchState.__init__, _CutProblem.__init__
        table, scores = scoring.LogGammaTables.table, search.family_scores

        def spy_state(state, *args):
            states.append(state)
            init_state(state, *args)

        def spy_problem(problem, *args):
            problems.append(problem)
            init_problem(problem, *args)

        def spy_table(store, a, form=""):
            if (a, form) not in store.tables:
                built.append((id(store), a, form))
            return table(store, a, form)

        def spy_scores(tables, prior, log_gamma):
            readers.add(id(log_gamma))
            return scores(tables, prior, log_gamma)

        monkeypatch.setattr(_SearchState, "__init__", spy_state)
        monkeypatch.setattr(_CutProblem, "__init__", spy_problem)
        monkeypatch.setattr(scoring.LogGammaTables, "table", spy_table)
        monkeypatch.setattr(search, "family_scores", spy_scores)
        hill_climb_structure(ds, prior, SearchConfig())
        (state,) = states
        store = state.problems.log_gamma
        assert sorted(p.i for p in problems) == list(ds.continuous_indices())
        assert all(p.log_gamma is store for p in problems)
        assert readers == {id(store)}
        assert len(built) == len(set(built)) > 0
        assert {(id(store), *key) for key in store.tables} == set(built)
        assert {form for _, _, form in built} == {"", "shifted", "steps"}

    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    def test_kept_count_tables_tally_only_changed_families(self, monkeypatch, mode):
        """A problem keeps the count tables of its last solve's families,
        read-only and charged to its room, and tallies only the families
        whose key changed: a child's policy retallies that child's family,
        a co-parent's the family it is in, a parent's the own family.  A
        replaced family gives its room back.  Each solve returns what a
        throwaway problem, which keeps nothing, returns."""
        ds, _ = sample_dataset(random_mechanism(5, 2, 3, seed=6), 200)
        assert len(ds.continuous_indices()) == 5
        # x1's own family {x2}; child x3 with co-parent x4; child x5.
        structure = validate_dag([{1}, set(), {0, 3}, set(), {0}])
        prior = PriorSpec(dirichlet_mode=mode)
        config = SearchConfig(r_max=6)
        state = _SearchState(structure, initial_policy(ds, config), ds, prior, config)
        tallied = []
        real = cutdp.family_tables

        def spy(codes, arities, families, *, names):
            # A solve whose families are all kept tallies nothing.
            assert families
            tallied.append(sorted(names[c] for c, _, _ in families))
            return real(codes, arities, families, names=names)

        monkeypatch.setattr(cutdp, "family_tables", spy)

        def solve():
            tallied.clear()
            got = optimize_variable(
                0, state.policy, state.structure, ds, prior, config,
                codes=state.codes, problems=state.problems,
            )
            bare = optimize_variable(0, state.policy, state.structure, ds, prior, config)
            assert got == bare
            problem = state.problems[0]
            held = self.held(problem)
            share = budget // len(ds.continuous_indices())
            assert sum(a.size for a in held) + problem.room == share
            assert not any(a.flags.writeable for a in held)
            kept = sorted(ds.names[key[0]] for key in problem._tables)
            return tallied[:-1], kept

        def recut(v):
            # A policy of v that differs from its current one.
            cands = ds.candidate_thresholds(v)
            current = state.policy[v].thresholds
            cut = next(float(c) for c in cands[1::2] if (float(c),) != current)
            state.set_policy(v, DiscretizationPolicy((cut,), *ds.policy_bounds(v)))

        budget = cutdp._WORK_BLOCKS * cutdp._BLOCK_FLOATS
        # The bare solve's one tally is dropped from each log: [:-1].
        assert solve() == ([["x1", "x3", "x5"]], ["x1", "x3", "x5"])
        assert solve() == ([], ["x1", "x3", "x5"])
        recut(4)
        assert solve() == ([["x5"]], ["x1", "x3", "x5"])
        recut(3)
        assert solve() == ([["x3"]], ["x1", "x3", "x5"])
        recut(1)
        assert solve() == ([["x1"]], ["x1", "x3", "x5"])
        # A policy of x1 itself is in no key.
        recut(0)
        assert solve() == ([], ["x1", "x3", "x5"])
        # Without the edge to x5, its family is released.
        state.structure = validate_dag([{1}, set(), {0, 3}, set(), set()])
        problem = state.problems[0]
        room = problem.room
        assert solve() == ([], ["x1", "x3"])
        assert problem.room > room
        for array in self.held(problem):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("work_blocks", [16, 7])
    def test_kept_count_tables_push_out_no_held_array(self, monkeypatch, work_blocks):
        """learn-cont's learn (six continuous columns, N = 300, Poisson
        prior) builds no more emission blocks, and holds the same blocks
        and lnΓ tables, as one whose problems keep no count tables: at the
        default budget, and at a smaller one where the kept tables give up
        their room to blocks."""
        monkeypatch.setattr(cutdp, "_WORK_BLOCKS", work_blocks)
        ds, _ = sample_dataset(random_mechanism(6, 2, 3, seed=1), 300)
        prior = PriorSpec(policy_prior="poisson", poisson_rate=2.0)
        init, emission, tally, hold = (
            _CutProblem.__init__, _CutProblem._emission, _CutProblem._tally,
            _CutProblem._hold,
        )

        def learn(keep):
            problems, built, released = [], [], []

            def spy_init(problem, *args):
                problems.append(problem)
                init(problem, *args)

            def spy_emission(problem, lo, hi):
                built.append((problem.i, lo, hi))
                return emission(problem, lo, hi)

            def spy_tally(problem, *args):
                tally(problem, *args)
                if not keep:
                    tables = problem._tables.values()
                    problem.room += sum(a.size for t in tables for a in t)
                    problem._tables = {}

            def spy_hold(problem, array):
                kept = bool(problem._tables)
                fits = hold(problem, array)
                released.append(kept and not problem._tables)
                return fits

            monkeypatch.setattr(_CutProblem, "__init__", spy_init)
            monkeypatch.setattr(_CutProblem, "_emission", spy_emission)
            monkeypatch.setattr(_CutProblem, "_tally", spy_tally)
            monkeypatch.setattr(_CutProblem, "_hold", spy_hold)
            structure, policy, trace = hill_climb_structure(ds, prior, SearchConfig())
            held = {p.i: sorted(p._blocks) for p in problems}
            held["lnΓ"] = sorted(problems[0].log_gamma.tables)
            return (structure, policy, trace.records), built, held, any(released)

        kept, forgot = learn(True), learn(False)
        assert kept[0] == forgot[0]
        assert len(kept[1]) == len(forgot[1])
        assert kept[2] == forgot[2]
        # Only the smaller budget makes kept tables give way.
        assert kept[3] == (work_blocks < 16) and not forgot[3]

class TestBlanket:
    """Hand-built structures for the re-solve sets of ``_SearchState``."""

    def state(self, parent_sets, discrete=()):
        rng = np.random.default_rng(59)
        spec = [
            ("d", rng.integers(0, 2, size=30), 2) if i in discrete
            else ("c", rng.random(30), None)
            for i in range(len(parent_sets))
        ]
        ds = mixed_dataset(spec)
        config = SearchConfig()
        return _SearchState(
            validate_dag(parent_sets), initial_policy(ds, config), ds,
            PriorSpec(), config,
        )

    def test_chain_through_discrete_is_blocked(self, monkeypatch):
        # continuous 0 -> discrete 1 -> continuous 2
        state = self.state([set(), {0}, {1}], discrete={1})
        assert _blanket(state.structure, 0) == {1}
        calls = []
        solve = state.solve
        monkeypatch.setattr(state, "solve", lambda i: calls.append(i) or solve(i))
        state.ascend({0})
        assert set(calls) == {0}

    def test_chain_through_continuous_stops_at_neighbour(self):
        # 0 -> 1 -> 2 all continuous: the solve of 2 reads 1, never 0.
        state = self.state([set(), {0}, {1}])
        assert _blanket(state.structure, 0) == {1}
        assert _blanket(state.structure, 1) == {0, 2}
        assert _blanket(state.structure, 2) == {1}

    def test_collider_queues_coparent(self):
        # 0 -> 2 <- 1: each parent's solve reads the other through 2's family.
        state = self.state([set(), set(), {0, 1}])
        assert _blanket(state.structure, 0) == {1, 2}
        assert _blanket(state.structure, 1) == {0, 2}
        assert _blanket(state.structure, 2) == {0, 1}

    def test_reversal_rekeys_both_families(self):
        # 4 -> 3 -> 0 -> 1 <- 2; reversing 0 -> 1 gives 3 -> 0 <- 1 <- 2.
        # 2 loses co-parent 0 and 3 gains co-parent 1; 4's key is untouched.
        state = self.state([{3}, {0, 2}, set(), {4}, set()])
        before = {j: state.solve_key(j) for j in range(5)}
        rekeyed = state.apply_edit(("reverse", 0, 1), 0.0)
        assert rekeyed == {0, 1, 2, 3}
        assert rekeyed == {j for j in range(5) if state.solve_key(j) != before[j]}
        assert state.structure.parents[0] == {1, 3}
        assert state.structure.parents[1] == {2}


class TestCoordinateAscent:
    def test_improves_and_is_monotone(self):
        rng = np.random.default_rng(41)
        ds = random_mixed_dataset(rng, n_vars=3, n_cases=40)
        structure = validate_dag(random_parent_sets(rng, 3))
        prior = PriorSpec()
        config = SearchConfig()
        policy0 = initial_policy(ds, config)
        total0 = network_score(policy0, structure, ds, prior).total
        policy, trace = coordinate_ascent(policy0, structure, ds, prior, config)
        total1 = network_score(policy, structure, ds, prior).total
        assert total1 >= total0
        totals = trace.totals()
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert trace.termination == "converged"
        assert trace.final_total == pytest.approx(total1, abs=1e-9)

    def test_fixed_point_is_stable(self):
        """A second pass from the optimum accepts nothing."""
        rng = np.random.default_rng(43)
        ds = random_mixed_dataset(rng, n_vars=3, n_cases=30)
        structure = validate_dag(random_parent_sets(rng, 3))
        config = SearchConfig()
        policy, _ = coordinate_ascent(
            initial_policy(ds, config), structure, ds, PriorSpec(), config
        )
        again, trace = coordinate_ascent(
            policy, structure, ds, PriorSpec(), config
        )
        assert all(p.thresholds == q.thresholds for p, q in zip(policy, again))
        assert not [r for r in trace.records if r["kind"] == "policy"]

    def test_max_sweeps_cap(self):
        rng = np.random.default_rng(47)
        ds = random_mixed_dataset(rng, n_vars=4, n_cases=50)
        structure = validate_dag(random_parent_sets(rng, 4))
        config = SearchConfig(max_sweeps=1)
        policy, trace = coordinate_ascent(
            initial_policy(ds, config), structure, ds, PriorSpec(), config
        )
        sweeps = [r for r in trace.records if r["kind"] == "sweep"]
        assert len(sweeps) <= 1
        assert trace.termination in ("converged", "max_sweeps")

    def test_subset_restriction(self):
        rng = np.random.default_rng(53)
        ds = random_mixed_dataset(rng, n_vars=4, n_cases=30)
        config = SearchConfig()
        policy0 = initial_policy(ds, config)
        target = ds.continuous_indices()[0]
        # Under the empty structure every blanket is empty, so an ascent
        # started at the target never leaves it.
        state = _SearchState(empty_structure(4), policy0, ds, PriorSpec(), config)
        state.ascend({target})
        policy = state.policy
        for i in range(4):
            if i != target:
                assert policy[i].thresholds == policy0[i].thresholds

    def test_deterministic(self):
        rng = np.random.default_rng(59)
        ds = random_mixed_dataset(rng, n_vars=3, n_cases=40)
        structure = validate_dag(random_parent_sets(rng, 3))
        config = SearchConfig()
        first, trace_a = coordinate_ascent(
            initial_policy(ds, config), structure, ds, PriorSpec(), config
        )
        second, trace_b = coordinate_ascent(
            initial_policy(ds, config), structure, ds, PriorSpec(), config
        )
        assert [p.thresholds for p in first] == [p.thresholds for p in second]
        assert trace_a.records == trace_b.records

    def test_start_outside_the_prior_support_raises(self):
        # N = 3 gives the Poisson prior's mass to 2 intervals only.
        ds = continuous_dataset(np.array([[0.5, 0.1], [0.6, 0.3], [0.7, 0.2]]))
        prior, config = PriorSpec(policy_prior="poisson"), SearchConfig()
        start = initial_policy(ds, config)
        assert [p.arity for p in start] == [2, 2]
        coordinate_ascent(start, empty_structure(2), ds, prior, config)
        for arity in (1, 3):
            cuts = tuple(ds.candidate_thresholds(0)[: arity - 1].tolist())
            outside = start.with_policy(
                0, DiscretizationPolicy(cuts, *ds.policy_bounds(0))
            )
            with pytest.raises(ValidationError, match="start policy"):
                coordinate_ascent(outside, empty_structure(2), ds, prior, config)

    def test_validates_input_policy(self):
        ds = continuous_dataset(np.array([[0.0], [1.0]]))
        bad = trivial_network_policy(
            continuous_dataset(np.array([[0.0], [1.0], [2.0]]))
        )
        wrong_len = type(bad)(policies=bad.policies + bad.policies)
        with pytest.raises(ValidationError):
            coordinate_ascent(
                wrong_len, empty_structure(1), ds, PriorSpec(), SearchConfig()
            )


class TestHillClimb:
    def test_recovers_dependent_pair(self):
        ds, _ = sample_dataset(dependent_pair_mechanism(3), 200)
        structure, policy, trace = hill_climb_structure(
            ds, PriorSpec(), SearchConfig()
        )
        assert len(structure.edges()) == 1
        assert trace.termination == "no_improving_edit"

    def test_empty_for_independent_pair(self):
        ds, _ = sample_dataset(independent_pair_mechanism(4), 200)
        structure, _, _ = hill_climb_structure(ds, PriorSpec(), SearchConfig())
        assert structure.edges() == []

    def test_monotone_trace(self):
        mech = random_mechanism(4, 2, 2, seed=11)
        ds, _ = sample_dataset(mech, 120)
        _, _, trace = hill_climb_structure(ds, PriorSpec(), SearchConfig())
        totals = trace.totals()
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_max_parents_respected(self):
        mech = random_mechanism(5, 3, 2, seed=13)
        ds, _ = sample_dataset(mech, 150)
        config = SearchConfig(max_parents=1)
        structure, _, _ = hill_climb_structure(ds, PriorSpec(), config)
        assert all(len(ps) <= 1 for ps in structure.parents)

    def test_deterministic_given_seed(self):
        mech = random_mechanism(3, 2, 2, seed=17)
        ds, _ = sample_dataset(mech, 100)
        a = hill_climb_structure(ds, PriorSpec(), SearchConfig(seed=5))
        b = hill_climb_structure(ds, PriorSpec(), SearchConfig(seed=5))
        assert a[0].edges() == b[0].edges()
        assert [p.thresholds for p in a[1]] == [p.thresholds for p in b[1]]

    def test_structure_score_not_worse_than_empty(self):
        mech = random_mechanism(3, 2, 3, seed=19)
        ds, _ = sample_dataset(mech, 80)
        prior = PriorSpec()
        config = SearchConfig()
        structure, policy, _ = hill_climb_structure(ds, prior, config)
        empty_policy, _ = coordinate_ascent(
            initial_policy(ds, config), empty_structure(ds.n_variables),
            ds, prior, config,
        )
        learned = network_score(policy, structure, ds, prior).total
        baseline = network_score(
            empty_policy, empty_structure(ds.n_variables), ds, prior
        ).total
        assert learned >= baseline - 1e-9


class TestJointFixedPoint:
    """The learned pair is a joint fixed point and its trace total is exact."""

    @settings(max_examples=40)
    @given(
        n_vars=st.integers(3, 4),
        n_cases=st.integers(8, 60),
        seed=st.integers(0, 2**16),
        mixed=st.booleans(),
    )
    def test_search_properties_on_random_mechanisms(self, n_vars, n_cases, seed, mixed):
        mechanism = random_mechanism(n_vars, 2, 2, seed=seed)
        if mixed:
            ds = odd_columns_discrete(mechanism, n_cases)
        else:
            ds, _ = sample_dataset(mechanism, n_cases)
        prior, config = PriorSpec(), SearchConfig()
        structure, policy, trace = hill_climb_structure(ds, prior, config)
        totals = trace.totals()
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        for i in ds.continuous_indices():
            best = optimize_variable(i, policy, structure, ds, prior, config)
            learned = local_score(i, policy, structure, ds, prior)
            solved = local_score(i, policy.with_policy(i, best), structure, ds, prior)
            assert solved <= learned + TIE_TOLERANCE
        best_delta = trace.stats.best_edit_delta
        assert best_delta is None or best_delta <= config.epsilon
        total = network_score(policy, structure, ds, prior).total
        assert abs(trace.final_total - total) <= 1e-6 * max(1.0, abs(total))

        # The cases are a set: shuffling the rows changes nothing learned.
        rows = np.random.default_rng(seed).permutation(n_cases)
        shuffled = Dataset(ds.variables, ds.values[rows])
        structure_p, policy_p, trace_p = hill_climb_structure(shuffled, prior, config)
        assert structure_p.parents == structure.parents
        assert policy_p == policy
        assert abs(trace_p.final_total - total) <= 1e-6 * max(1.0, abs(total))

    @pytest.mark.parametrize(
        "prior, seed, n_cases, mixed",
        [
            (PriorSpec(), 7, 30, False),
            (PriorSpec(), 3, 30, False),
            (
                PriorSpec(dirichlet_mode="bdeu", ess=8.0, density_model="multinomial"),
                31,
                30,
                False,
            ),
            (PriorSpec(), 9, 100, True),
        ],
        ids=["k2-uniform-7", "k2-uniform-3", "bdeu-multinomial-31", "k2-mixed-9"],
    )
    def test_hill_climb_result(self, prior, seed, n_cases, mixed):
        mechanism = random_mechanism(4, 2, 2, seed=seed)
        if mixed:
            ds = odd_columns_discrete(mechanism, n_cases)
        else:
            ds, _ = sample_dataset(mechanism, n_cases)
        config = SearchConfig()
        structure, policy, trace = hill_climb_structure(ds, prior, config)
        if mixed:
            # A discrete child with two continuous parents: each parent's
            # solve reads the other's policy through the child's family.
            discrete = set(ds.discrete_indices())
            assert any(
                len(structure.parents[c] - discrete) >= 2 for c in discrete
            )
        total = network_score(policy, structure, ds, prior).total
        scale = max(1.0, abs(total))
        assert abs(trace.final_total - total) <= 1e-6 * scale

        for i in ds.continuous_indices():
            best = optimize_variable(i, policy, structure, ds, prior, config)
            learned = local_score(i, policy, structure, ds, prior)
            solved = local_score(
                i, policy.with_policy(i, best), structure, ds, prior
            )
            assert solved <= learned + 1e-9 * max(1.0, abs(learned))

        assert structure.edges()
        edits = []
        for u, v in itertools.permutations(range(ds.n_variables), 2):
            if u in structure.parents[v]:
                edits.append(("delete", u, v))
                if len(structure.parents[u]) < config.max_parents:
                    edits.append(("reverse", u, v))
            elif len(structure.parents[v]) < config.max_parents:
                edits.append(("add", u, v))
        for op, u, v in edits:
            try:
                after = edited(structure, op, u, v)
            except CycleError:
                continue
            gain = network_score(policy, after, ds, prior).total - total
            # Edits were scored by family deltas; allow summation-order noise.
            assert gain <= config.epsilon + 1e-9 * scale


class TestEditCandidates:
    def test_matches_cycle_checks(self):
        """Ancestor-set legality equals building each edited graph, and the
        index arrays list the edits in the reference's order."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            max_parents = int(rng.integers(1, 4))
            candidates = _edit_candidates(structure, max_parents)
            assert all(axis.dtype == np.intp for axis in candidates)
            expected = reference_edit_candidates(structure, max_parents)
            assert edit_list(candidates) == expected


class TestSearchState:
    """Cached family scores and memoized solves equal fresh computations."""

    def check(self, state, ds, prior, config):
        assert np.array_equal(state.codes, discretize_all(ds, state.policy))
        for v in ds.continuous_indices():
            fresh = optimize_variable(
                v, state.policy, state.structure, ds, prior, config
            )
            assert state.solve(v) == fresh
        for v in range(ds.n_variables):
            fresh = local_score(v, state.policy, state.structure, ds, prior)
            assert state.local(v) == fresh
        # Every family ``local`` read is now fresh on the diagonal.
        assert state._fresh[1].diagonal().all()
        self.check_table(state, prior)

    def check_table(self, state, prior):
        """Every fresh edge-scan table entry equals a fresh ``family_score``;
        returns how many entries are fresh."""
        codes = discretize_all(state.dataset, state.policy)
        arities = state.policy.arities()
        parents = state.structure.parents
        fresh = np.argwhere(state._fresh).tolist()
        for k, u, v in fresh:
            family = parents[v] | {u} if k == 0 else parents[v] - {u}
            expected = family_score(codes, arities, v, family, prior)
            assert state._table[k, u, v] == expected, (k, u, v)
        return len(fresh)

    def test_scripted_edits_and_policy_changes(self):
        ds, _ = sample_dataset(random_mechanism(4, 2, 3, seed=11), 60)
        prior, config = PriorSpec(), SearchConfig()
        state = _SearchState(
            empty_structure(4), initial_policy(ds, config), ds, prior, config
        )
        lo, hi = ds.policy_bounds(1)
        coarse = DiscretizationPolicy((), lo, hi)

        def edit(op, u, v):
            candidates = _edit_candidates(state.structure, config.max_parents)
            deltas = state.edit_deltas(candidates)
            pick = edit_list(candidates).index((op, u, v))
            state.apply_edit((op, u, v), deltas[pick])

        def try_and_revert(v, candidate):
            # The ascent's reject path: score the candidate, then set back.
            current = state.policy[v]
            state.set_policy(v, candidate)
            state.local(v)
            state.set_policy(v, current)

        steps = [
            lambda: edit("add", 0, 2),
            lambda: edit("add", 1, 2),
            lambda: edit("add", 3, 1),
            # 1 is a co-parent of 0 in the family of 2.
            lambda: state.set_policy(1, coarse),
            lambda: try_and_revert(0, DiscretizationPolicy((), *ds.policy_bounds(0))),
            lambda: state.set_policy(2, state.solve(2)),
            lambda: edit("reverse", 0, 2),
            lambda: state.set_policy(0, state.solve(0)),
            lambda: edit("delete", 3, 1),
            lambda: edit("add", 3, 0),
        ]
        self.check(state, ds, prior, config)
        kept = []
        for step in steps:
            step()
            # Entries still fresh after the step are exact: the step made
            # every entry it changed stale.  Then rescan and check again.
            kept.append(self.check_table(state, prior))
            self.check(state, ds, prior, config)
            state.edit_deltas(_edit_candidates(state.structure, config.max_parents))
            assert self.check_table(state, prior) > kept[-1]
        assert state.trace.stats.solve_hits > 0
        assert all(kept)

    def test_a_solve_applies_no_policy(self, monkeypatch):
        """A solve reads its blanket's codes from the state's code matrix;
        :meth:`_SearchState.set_policy` is the one place the search applies a
        policy."""
        ds, _ = sample_dataset(random_mechanism(4, 2, 3, seed=11), 60)
        prior, config = PriorSpec(), SearchConfig()
        structure = validate_dag([set(), {0}, {0, 1}, {2}])
        state = _SearchState(structure, initial_policy(ds, config), ds, prior, config)
        calls = []
        real = search.apply_policy

        def spy(column, policy):
            calls.append(policy)
            return real(column, policy)

        monkeypatch.setattr(search, "apply_policy", spy)
        for v in range(4):
            state.solve(v)
        assert state.trace.stats.solves == 4 and calls == []
        state.set_policy(0, state.solve(0))
        assert calls == [state.policy[0]]

    def test_the_code_matrix_follows_every_change(self):
        """After edits and accepted or reverted policy changes, the state's
        code matrix is the policy's, and a solve from it equals one from a
        code matrix built afresh."""
        rng = np.random.default_rng(97)
        prior, config = PriorSpec(), SearchConfig()
        moves = {"kept": 0, "reverted": 0}
        for _ in range(12):
            n = int(rng.integers(2, 6))
            ds = random_mixed_dataset(rng, n_vars=n, n_cases=30)
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            policy = random_network_policy(rng, ds)
            state = _SearchState(structure, policy, ds, prior, config)
            for _ in range(3):
                for v in ds.continuous_indices():
                    current = state.policy[v]
                    state.set_policy(v, state.solve(v))
                    if rng.random() < 0.5:
                        state.set_policy(v, current)
                        moves["reverted"] += 1
                    else:
                        moves["kept"] += 1
                self.check(state, ds, prior, config)
                edits = edit_list(_edit_candidates(state.structure, 3))
                if edits:
                    edit = edits[int(rng.integers(len(edits)))]
                    state.apply_edit(edit, 0.0)
        assert min(moves.values()) > 0

    def test_ascent_rejects_a_worse_candidate(self, monkeypatch):
        ds, _ = sample_dataset(random_mechanism(3, 2, 2, seed=11), 60)
        prior, config = PriorSpec(), SearchConfig()
        state = _SearchState(
            validate_dag([set(), {0}, {1}]), initial_policy(ds, config), ds, prior,
            config,
        )
        state.ascend()
        policy, total = state.policy, state.total
        assert all(policy[v].arity > 1 for v in range(3))
        # Offer a single interval, worse than each learned policy.
        monkeypatch.setattr(
            state, "solve", lambda v: DiscretizationPolicy((), *ds.policy_bounds(v))
        )
        kept = len(state.trace.records)
        assert not state.ascend()
        assert [r["kind"] for r in state.trace.records[kept:]] == ["sweep"]
        assert state.policy == policy
        assert state.total == total
        monkeypatch.undo()
        self.check(state, ds, prior, config)

    def test_ascend_returns_whether_it_accepted_a_change(self):
        """``ascend`` returns True exactly when it appended a ``policy``
        record to the state's one trace."""
        rng = np.random.default_rng(71)
        prior = PriorSpec()
        outcomes = set()
        for _ in range(8):
            n = int(rng.integers(2, 5))
            ds = random_mixed_dataset(rng, n_vars=n, n_cases=30)
            structure = validate_dag(random_parent_sets(rng, n, max_parents=2))
            config = SearchConfig(max_sweeps=int(rng.integers(1, 3)))
            state = _SearchState(
                structure, random_network_policy(rng, ds), ds, prior, config
            )
            for start in (None, ds.continuous_indices()[:1], None):
                kept = len(state.trace.records)
                accepted = state.ascend(start)
                kinds = [r["kind"] for r in state.trace.records[kept:]]
                assert kinds[-1] == "sweep"
                assert accepted == ("policy" in kinds)
                outcomes.add(accepted)
        assert outcomes == {True, False}

    def test_solve_keys_change_exactly_where_requeued(self):
        """A policy change at v re-keys exactly blanket(v); an edit re-keys
        exactly the variables ``apply_edit`` returns."""
        rng = np.random.default_rng(67)
        prior, config = PriorSpec(), SearchConfig()
        for _ in range(25):
            n = int(rng.integers(2, 7))
            ds = random_mixed_dataset(rng, n_vars=n, n_cases=20)
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            state = _SearchState(
                structure, random_network_policy(rng, ds), ds, prior, config
            )
            continuous = set(ds.continuous_indices())

            def keys():
                return {j: state.solve_key(j) for j in continuous}

            def changed(before):
                after = keys()
                return {j for j in continuous if after[j] != before[j]}

            for v in range(n):
                current = state.policy[v]
                if current.trivial:
                    other = DiscretizationPolicy.identity(current.arity + 1)
                elif current.thresholds:
                    other = DiscretizationPolicy((), current.lower, current.upper)
                else:
                    cut = float(ds.candidate_thresholds(v)[0])
                    other = DiscretizationPolicy((cut,), current.lower, current.upper)
                before = keys()
                state.set_policy(v, other)
                assert changed(before) == _blanket(state.structure, v) & continuous
                state.set_policy(v, current)

            for edit in edit_list(_edit_candidates(state.structure, 3)):
                saved = state.structure
                before = keys()
                rekeyed = state.apply_edit(edit, 0.0)
                assert changed(before) == rekeyed & continuous, edit
                state.structure = saved

    def test_edits_match_edited_graphs(self):
        """Every candidate edit's table delta is the family difference summed
        left to right, ``((a - b) + c) - d`` for a reversal, and matches a
        fresh score of the edited graph, which ``apply_edit`` builds."""
        rng = np.random.default_rng(73)
        prior, config = PriorSpec(), SearchConfig()
        # Reversals whose delta would change under ``(a - b) + (c - d)``.
        order_sensitive = 0
        for _ in range(40):
            n = int(rng.integers(2, 7))
            ds = random_mixed_dataset(rng, n_vars=n, n_cases=20)
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            policy = random_network_policy(rng, ds)
            state = _SearchState(structure, policy, ds, prior, config)
            total = network_score(policy, structure, ds, prior).total
            parents = structure.parents
            candidates = _edit_candidates(structure, 3)
            deltas = state.edit_deltas(candidates)
            codes, arities = discretize_all(ds, policy), policy.arities()

            def fam(c, ps, codes=codes, arities=arities):
                return family_score(codes, arities, c, ps, prior)

            for edit, delta in zip(edit_list(candidates), deltas.tolist()):
                op, u, v = edit
                new_v = parents[v] | {u} if op == "add" else parents[v] - {u}
                expected = fam(v, new_v) - fam(v, parents[v])
                if op == "reverse":
                    c = fam(u, parents[u] | {v})
                    d = fam(u, parents[u])
                    order_sensitive += expected + (c - d) != expected + c - d
                    expected = expected + c - d
                assert delta == expected, edit
                after = edited(structure, op, u, v)
                fresh = network_score(policy, after, ds, prior).total - total
                assert abs(delta - fresh) <= 1e-9 * max(1.0, abs(total)), edit
                state.apply_edit(edit, 0.0)
                assert state.structure.parents == after.parents, edit
                state.structure = structure
        assert order_sensitive > 0

    def test_only_fill_writes_the_table(self):
        """A new state holds no fresh entry, an edit makes every entry of each
        replaced family's column stale but the diagonal and the edited
        parent's entry, which it carries from the scan, and through edits
        and policy changes every fresh entry equals a fresh family score:
        ``_fill`` alone writes the table."""
        rng = np.random.default_rng(89)
        prior, config = PriorSpec(), SearchConfig()
        ops = set()
        for _ in range(20):
            n = int(rng.integers(3, 7))
            ds = random_mixed_dataset(rng, n_vars=n, n_cases=20)
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            state = _SearchState(
                structure, random_network_policy(rng, ds), ds, prior, config
            )
            assert not state._fresh.any()
            for _ in range(4):
                candidates = _edit_candidates(state.structure, 3)
                state.edit_deltas(candidates)
                edits = edit_list(candidates)
                edit = edits[int(rng.integers(len(edits)))]
                ops.add(edit[0])
                replaced = state.replaced(edit)
                state.apply_edit(edit, 0.0)
                for c, new in replaced:
                    assert state.structure.parents[c] == new
                    a = edit[1] + edit[2] - c
                    fresh = np.argwhere(state._fresh[:, :, c]).tolist()
                    assert sorted(fresh) == sorted([[1, c], [int(a in new), a]])
                assert self.check_table(state, prior) > 0
                if not ds.continuous_indices():
                    continue
                v = int(rng.choice(ds.continuous_indices()))
                state.set_policy(v, state.solve(v))
                state.local(v)
                assert self.check_table(state, prior) > 0
        assert ops == {"add", "delete", "reverse"}

    def test_batched_refill_matches_a_sequential_refill(self, monkeypatch):
        """On random mixed DAGs with arities 2 to 4, the batched refill fills
        the table, and counts its work, exactly as refilling one entry at a
        time through one-entry ``_fill`` calls does."""
        rng = np.random.default_rng(83)
        prior, config = PriorSpec(), SearchConfig()
        places = set()
        real_tables = search.family_tables

        def spy(codes, arities, families, *, names):
            families = list(families)
            for _, parents, sets in families:
                for s in sets:
                    for a in s - parents:
                        places.add(
                            "before" if all(a < p for p in parents)
                            else "after" if all(a > p for p in parents)
                            else "between"
                        )
            return real_tables(codes, arities, families, names=names)

        monkeypatch.setattr(search, "family_tables", spy)
        for _ in range(12):
            n = int(rng.integers(4, 8))
            spec = []
            for i in range(n):
                if i == 0 or rng.random() < 0.5:
                    spec.append(("c", np.round(rng.uniform(0, 1, 40), 2), (0.0, 1.0)))
                else:
                    arity = int(rng.integers(2, 5))
                    spec.append(("d", rng.permutation(np.arange(40) % arity), arity))
            ds = mixed_dataset(spec)
            policies = []
            for i in range(n):
                if not ds.is_continuous(i):
                    policies.append(DiscretizationPolicy.identity(spec[i][2]))
                    continue
                cands = ds.candidate_thresholds(i)
                cuts = np.sort(rng.choice(cands, int(rng.integers(1, 4)), replace=False))
                policies.append(DiscretizationPolicy(tuple(cuts.tolist()), 0.0, 1.0))
            policy = NetworkPolicy(tuple(policies))
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            state = _SearchState(structure, policy, ds, prior, config)
            twin = _SearchState(structure, policy, ds, prior, config)

            def sequential(entries, known=(), twin=twin):
                _SearchState._fill(twin, [], known)
                return [_SearchState._fill(twin, [entry])[0] for entry in entries]

            twin._fill = sequential
            for step in range(5):
                candidates = _edit_candidates(state.structure, config.max_parents)
                deltas = state.edit_deltas(candidates)
                assert np.array_equal(deltas, twin.edit_deltas(candidates))
                assert np.array_equal(state._fresh, twin._fresh)
                fresh = state._fresh
                assert np.array_equal(state._table[fresh], twin._table[fresh])
                assert state.trace.stats == twin.trace.stats
                assert self.check_table(state, prior) > 0
                edits = edit_list(candidates)
                edit = edits[int(rng.integers(len(edits)))]
                for st in (state, twin):
                    st.apply_edit(edit, 0.0)
                if step % 2:
                    v = int(rng.choice(ds.continuous_indices()))
                    current = state.policy[v]
                    other = DiscretizationPolicy(
                        current.thresholds[:-1] or (float(ds.candidate_thresholds(v)[0]),),
                        current.lower, current.upper,
                    )
                    for st in (state, twin):
                        st.set_policy(v, other)
        assert places == {"before", "between", "after"}

    @pytest.mark.parametrize("code", [3, -1], ids=["high", "negative"])
    def test_out_of_range_code_in_a_refill_raises(self, code):
        ds = mixed_dataset([
            ("c", np.linspace(0.0, 1.0, 12), None),
            ("d", np.arange(12) % 3, 3),
            ("c", np.linspace(1.0, 2.0, 12) ** 2, None),
        ])
        prior, config = PriorSpec(), SearchConfig()
        state = _SearchState(
            validate_dag([set(), {0}, set()]), initial_policy(ds, config), ds,
            prior, config,
        )
        state.codes[5, 1] = code
        with pytest.raises(ValueError):
            state.edit_deltas(_edit_candidates(state.structure, config.max_parents))

    def test_scan_keeps_the_first_best_edit_in_scan_order(self):
        """Through edits and policy changes on random DAGs, the table's pick
        equals a sequential ``>`` scan over the candidates in permutation
        order, with deltas from fresh family scores."""
        rng = np.random.default_rng(79)
        prior, config = PriorSpec(), SearchConfig()
        ties = 0
        for _ in range(15):
            n = int(rng.integers(3, 7))
            ds = with_twin(random_mixed_dataset(rng, n_vars=n, n_cases=20))
            policy = random_network_policy(rng, ds)
            policy = policy.with_policy(n - 1, policy[0])
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            state = _SearchState(structure, policy, ds, prior, config)
            for step in range(6):
                codes = discretize_all(ds, state.policy)
                arities = state.policy.arities()
                parents = state.structure.parents

                def fam(c, ps):
                    return family_score(codes, arities, c, ps, prior)

                seed = int(rng.integers(2**32))
                candidates = edit_list(
                    _edit_candidates(state.structure, config.max_parents)
                )
                best, best_delta, deltas = None, -np.inf, []
                for idx in np.random.default_rng(seed).permutation(len(candidates)):
                    op, u, v = candidates[idx]
                    new_v = parents[v] | {u} if op == "add" else parents[v] - {u}
                    delta = fam(v, new_v) - fam(v, parents[v])
                    if op == "reverse":
                        delta = delta + fam(u, parents[u] | {v}) - fam(u, parents[u])
                    deltas.append(delta)
                    if delta > best_delta:
                        best, best_delta = candidates[idx], delta
                ties += deltas.count(best_delta) > 1
                assert state.scan(np.random.default_rng(seed)) == (best, best_delta)
                assert state.trace.stats.best_edit_delta == best_delta
                if step % 2 == 0:
                    state.apply_edit(best, best_delta)
                    continue
                v = int(rng.choice(ds.continuous_indices()))
                current = state.policy[v]
                if current.thresholds:
                    other = DiscretizationPolicy((), current.lower, current.upper)
                else:
                    cut = float(ds.candidate_thresholds(v)[0])
                    other = DiscretizationPolicy((cut,), current.lower, current.upper)
                state.set_policy(v, other)
        # Exact ties for the best edit, which only the scan order resolves.
        assert ties > 0

    def test_scan_matches_the_tuple_list_scan(self):
        """On random DAGs and seeds, through edits and policy changes, the
        index-array scan returns the edit, as a tuple of ``str`` and
        ``int``, and the delta of the tuple-list scan
        (:func:`reference_scan`), counts the same work, and leaves its
        generator where the tuple-list scan leaves its own."""
        rng = np.random.default_rng(101)
        prior = PriorSpec()
        ops = set()
        for _ in range(25):
            n = int(rng.integers(2, 7))
            ds = random_mixed_dataset(rng, n_vars=n, n_cases=20)
            structure = validate_dag(random_parent_sets(rng, n, max_parents=3))
            policy = random_network_policy(rng, ds)
            config = SearchConfig(max_parents=int(rng.integers(1, 4)))
            state = _SearchState(structure, policy, ds, prior, config)
            twin = _SearchState(structure, policy, ds, prior, config)
            for step in range(5):
                seed = int(rng.integers(2**32))
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                edit, delta = state.scan(ours)
                assert (edit, delta) == reference_scan(twin, theirs)
                assert ours.integers(2**62) == theirs.integers(2**62)
                assert state.trace.stats == twin.trace.stats
                assert [type(x) for x in edit] == [str, int, int]
                ops.add(edit[0])
                for st in (state, twin):
                    st.apply_edit(edit, delta)
                if step % 2 and ds.continuous_indices():
                    v = int(rng.choice(ds.continuous_indices()))
                    for st in (state, twin):
                        st.set_policy(v, st.solve(v))
        assert ops == {"add", "delete", "reverse"}

    def test_scan_with_no_legal_edit(self):
        """One variable has no legal edit: the scan still draws its
        permutation, returns ``(None, -inf)`` and clears ``best_edit_delta``."""
        ds = mixed_dataset([("c", np.linspace(0.0, 1.0, 12), None)])
        prior, config = PriorSpec(), SearchConfig()
        state = _SearchState(
            empty_structure(1), initial_policy(ds, config), ds, prior, config
        )
        twin = _SearchState(
            empty_structure(1), initial_policy(ds, config), ds, prior, config
        )
        assert all(len(axis) == 0 for axis in _edit_candidates(state.structure, 3))
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        state.trace.stats.best_edit_delta = 1.0
        assert state.scan(ours) == (None, -np.inf)
        assert reference_scan(twin, theirs) == (None, -np.inf)
        assert ours.integers(2**62) == theirs.integers(2**62)
        assert state.trace.stats.best_edit_delta is None
        assert state.trace.stats == twin.trace.stats

    def test_coparent_across_discrete_collider_is_requeued(self, monkeypatch):
        # j -> d <- v with d discrete: j and v are d-separated by the empty
        # set, yet j's solve reads v's policy through the family of d.
        j, d, v = 0, 1, 2
        flat = DiscretizationPolicy((0.5,), 0.0, 1.0)
        mechanism = Mechanism(
            structure=validate_dag([set(), {j, v}, set()]),
            cpts=(
                np.array([[0.5, 0.5]]),
                np.array([[0.9, 0.1], [0.5, 0.5], [0.5, 0.5], [0.1, 0.9]]),
                np.array([[0.5, 0.5]]),
            ),
            policies=(flat, flat, flat),
            seed=3,
        )
        ds = odd_columns_discrete(mechanism, 120)
        assert ds.discrete_indices() == (d,)
        assert mechanism.structure.topo_order.index(j) < (
            mechanism.structure.topo_order.index(v)
        )

        def run(start, config):
            state = _SearchState(
                mechanism.structure, initial_policy(ds, config), ds, PriorSpec(),
                config,
            )
            calls = []
            solve = state.solve

            def recording(i):
                calls.append(i)
                return solve(i)

            monkeypatch.setattr(state, "solve", recording)
            state.ascend(start)
            records = state.trace.records
            changed = [r["variable"] for r in records if r["kind"] == "policy"]
            sweeps = [r for r in records if r["kind"] == "sweep"]
            return calls, changed, len(sweeps)

        # One sweep: v's accepted change re-queues j behind it.
        calls, changed, _ = run(None, SearchConfig(max_sweeps=1))
        assert changed[:2] == [j, v]
        assert calls[:3] == [j, v, j]
        # Started at v alone, the ascent still re-solves j, and j joins the
        # swept set: the second sweep visits j, then v, in topological order.
        calls, changed, sweeps = run({v}, SearchConfig())
        assert changed[:2] == [v, j]
        assert sweeps == 2
        assert calls[-2:] == [j, v]


class TestSearchTrace:
    def test_jsonl_round_trip(self):
        mech = random_mechanism(3, 2, 2, seed=29)
        ds, _ = sample_dataset(mech, 60)
        _, _, trace = hill_climb_structure(ds, PriorSpec(), SearchConfig())
        lines = trace.to_jsonl().strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["kind"] == "termination"
        assert parsed[-1]["reason"] == trace.termination
        for record in parsed[:-1]:
            assert "kind" in record
        for record in parsed:
            for v in record.values():
                assert isinstance(v, (str, int, float))

    def test_totals_are_floats(self):
        rng = np.random.default_rng(61)
        ds = random_mixed_dataset(rng, n_vars=3, n_cases=30)
        _, trace = coordinate_ascent(
            initial_policy(ds, SearchConfig()),
            empty_structure(3),
            ds,
            PriorSpec(),
            SearchConfig(),
        )
        for total in trace.totals():
            assert isinstance(total, float)
            assert math.isfinite(total)
