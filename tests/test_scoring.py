import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from conftest import (
    continuous_dataset,
    mixed_dataset,
    random_discrete_instance,
    random_mixed_dataset,
    random_network_policy,
    random_parent_sets,
)
from mixedbn import (
    Dataset,
    DiscretizationPolicy,
    NetworkPolicy,
    PriorSpec,
    ScoreBreakdown,
    ValidationError,
    candidate_thresholds,
    continuous_component,
    continuous_terms,
    network_score,
)
from mixedbn import scoring
from mixedbn.graph import empty_structure, validate_dag
from mixedbn.scoring import (
    family_scores,
    family_tables,
    interval_count_log_priors,
)
from oracles import (
    closed_form_family_score,
    family_counts,
    local_score,
    multinomial_component,
    plain_multinomial_emission,
    sequential_log_marginal,
)


def labels(arities):
    """Variable names for a code matrix with one column per arity."""
    return [f"x{j}" for j in range(len(arities))]


def tally(codes, arities, child, parents):
    """The table :func:`family_tables` gives one family's own parent set."""
    parents = frozenset(parents)
    (table,) = family_tables(
        codes, arities, [(child, parents, [parents])], names=labels(arities)
    )
    return table


def family_score(codes, arities, child, parents, prior):
    return family_scores([tally(codes, arities, child, parents)], prior)[0]


class TestPriorSpec:
    def test_defaults(self):
        prior = PriorSpec()
        assert prior.dirichlet_mode == "k2"
        assert prior.alpha == 1.0
        assert prior.policy_prior == "uniform"
        assert prior.density_model == "uniform"

    def test_validation(self):
        with pytest.raises(ValidationError):
            PriorSpec(alpha=0.0)
        with pytest.raises(ValidationError):
            PriorSpec(dirichlet_mode="bdeu", ess=-1.0)
        with pytest.raises(ValidationError):
            PriorSpec(dirichlet_mode="other")
        with pytest.raises(ValidationError):
            PriorSpec(policy_prior="poisson", poisson_rate=1.5)
        with pytest.raises(ValidationError):
            PriorSpec(density_model="spline")

    @pytest.mark.parametrize("field", ["alpha", "ess"])
    def test_subnormal_weight_rejected(self, field):
        """lnΓ of a subnormal weight is inf, so every score would be nan."""
        tiny = np.finfo(float).tiny
        assert getattr(PriorSpec(**{field: tiny}), field) == tiny
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            PriorSpec(**{field: tiny / 2})

    def test_cell_weight(self):
        assert PriorSpec(alpha=2.0).cell_weight(3, 4) == 2.0
        assert PriorSpec(dirichlet_mode="bdeu", ess=6.0).cell_weight(3, 2) == 1.0

    def test_subnormal_cell_weight_rejected(self):
        """A normal ess may still leave a large family a subnormal weight."""
        tiny = np.finfo(float).tiny
        prior = PriorSpec(dirichlet_mode="bdeu", ess=6 * tiny)
        assert prior.cell_weight(3, 2) == tiny
        with pytest.raises(ValidationError, match="^ess "):
            prior.cell_weight(3, 4)


class TestOneFamilyScore:
    def test_hand_example(self):
        """Codes (0,0,1) with two states: (1/2)(2/3)(1/4) = 1/12."""
        codes = np.array([[0], [0], [1]])
        score = family_score(codes, [2], 0, [], PriorSpec())
        assert score == pytest.approx(math.log(1.0 / 12.0), abs=1e-12)

    def test_oracle_self_check(self):
        got = sequential_log_marginal(np.array([[0], [0], [1]]), [2], 0, [])
        assert got == pytest.approx(-2.4849066497880004, abs=1e-12)

    def test_matches_sequential_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            codes, arities, parent_sets = random_discrete_instance(rng)
            child = int(rng.integers(0, len(arities)))
            parents = sorted(parent_sets[child])
            if trial % 2:
                prior = PriorSpec(
                    dirichlet_mode="bdeu", ess=float(rng.uniform(0.5, 8.0))
                )
                oracle = sequential_log_marginal(
                    codes, arities, child, parents, mode="bdeu", ess=prior.ess
                )
            else:
                prior = PriorSpec(alpha=float(rng.uniform(0.25, 4.0)))
                oracle = sequential_log_marginal(
                    codes, arities, child, parents, alpha=prior.alpha
                )
            assert family_score(codes, arities, child, parents, prior) == pytest.approx(
                oracle, abs=1e-9
            )

    def test_single_state_child_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_cases = int(rng.integers(1, 50))
            codes = np.zeros((n_cases, 2), dtype=np.int64)
            codes[:, 1] = rng.integers(0, 3, size=n_cases)
            assert family_score(codes, [1, 3], 0, [1], PriorSpec()) == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            r = int(rng.integers(2, 5))
            codes = rng.integers(0, r, size=(12, 1))
            perm = rng.permutation(r)
            relabeled = perm[codes]
            for prior in (PriorSpec(), PriorSpec(dirichlet_mode="bdeu", ess=3.0)):
                a = family_score(codes, [r], 0, [], prior)
                b = family_score(relabeled, [r], 0, [], prior)
                assert a == pytest.approx(b, abs=1e-12)


class TestFamilyScores:
    PRIORS = (
        PriorSpec(),
        PriorSpec(alpha=0.3),
        PriorSpec(dirichlet_mode="bdeu", ess=1.0),
        PriorSpec(dirichlet_mode="bdeu", ess=7.5),
    )

    @staticmethod
    def random_table(rng, cells):
        # numpy sums fewer than 8 values in a plain loop, up to 128 in one
        # unrolled block, and more by splitting the range in halves.
        r = int(rng.integers(1, 5))
        q = max(1, cells // r)
        return rng.integers(0, int(rng.integers(1, 300)), size=(q, r))

    @pytest.mark.parametrize("prior", PRIORS, ids=["k2", "k2-0.3", "bdeu-1", "bdeu-7.5"])
    def test_batch_is_bitwise_each_table_alone(self, prior):
        rng = np.random.default_rng(17)
        for _ in range(40):
            cells = rng.choice([3, 7, 8, 40, 128, 129, 300, 1000], size=12)
            tables = [self.random_table(rng, int(c)) for c in cells]
            scores = family_scores(tables, prior)
            assert len(scores) == len(tables)
            for table, score in zip(tables, scores):
                assert score == closed_form_family_score(table, prior)
                assert score == family_scores([table], prior)[0]

    @pytest.mark.parametrize("prior", PRIORS, ids=["k2", "k2-0.3", "bdeu-1", "bdeu-7.5"])
    def test_stacked_tables_of_one_shape_are_bitwise_each_alone(self, prior):
        # Tables of one shape are scored as one stack: row sums along rows of
        # q terms and of q * r cell terms, on both sides of the lengths where
        # numpy's pairwise sum changes its blocking (8 and 128).
        rng = np.random.default_rng(29)
        shapes = [(q, r) for q in (7, 8, 9, 128, 129) for r in (1, 2, 15, 16, 17)]
        tables = [
            rng.integers(0, int(rng.integers(1, 300)), size=shape)
            for shape in shapes
            for _ in range(int(rng.integers(2, 6)))
        ]
        order = rng.permutation(len(tables))
        tables = [tables[t] for t in order]
        scores = family_scores(tables, prior)
        assert len(scores) == len(tables)
        for table, score in zip(tables, scores):
            assert score == closed_form_family_score(table, prior)
            assert score == family_scores([table], prior)[0]

    @pytest.mark.parametrize("prior", PRIORS, ids=["k2", "k2-0.3", "bdeu-1", "bdeu-7.5"])
    def test_single_code_child_is_exactly_zero(self, prior):
        rng = np.random.default_rng(23)
        for q in (1, 5, 8, 130, 700):
            ones = rng.integers(0, 50, size=(q, 1))
            others = self.random_table(rng, 30)
            scores = family_scores([others, ones, others], prior)
            assert scores[1] == 0.0
            assert scores[0] == scores[2]

    def test_no_tables(self):
        assert family_scores([], PriorSpec()) == []

    @given(
        prior=st.sampled_from(PRIORS),
        n_cases=st.integers(1, 400),
        rooms=st.sampled_from([0, 1, 3, 10**6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_held_log_gamma_tables_give_the_plain_floats(
        self, prior, n_cases, rooms, seed
    ):
        """Scored with a search's lnΓ tables, tables of ``n_cases`` cases get
        exactly the floats of the plain call: on a pseudo-count's first use,
        which computes, on its second and later ones, which gather while
        the held tables fit in the room, and with a room too small for any
        table (0 or N floats)."""
        rng = np.random.default_rng(seed)
        room = rooms * (n_cases + 1) - (rooms == 1)
        log_gamma = scoring.LogGammaTables(n_cases, room)

        def table(q, r):
            return rng.multinomial(n_cases, np.full(q * r, 1 / (q * r))).reshape(q, r)

        def check(tables):
            assert family_scores(tables, prior, log_gamma) == family_scores(
                tables, prior
            )
            held = [t for t in log_gamma.tables.values() if t is not None]
            assert sum(t.size for t in held) + log_gamma.room == room
            for t in held:
                assert t.shape == (n_cases + 1,) and not t.flags.writeable
            return held

        # First use: a cell and a row pseudo-count, each asked once.
        assert check([table(int(rng.integers(1, 6)), int(rng.integers(2, 5)))]) == []
        # Counts 0 and N: every case in one cell, the other rows empty.
        corner = np.zeros((3, 2), dtype=np.int64)
        corner[1, 0] = n_cases
        tables = [corner, *(table(*rng.integers(1, 6, size=2)) for _ in range(8))]
        check(tables)
        # Every pseudo-count of ``tables`` is asked again: each gets its table
        # while they fit.
        held = check(tables[::-1])
        asked = set()
        for q, r in (t.shape for t in tables):
            a = prior.cell_weight(r, q)
            asked |= {a, a * r}
        assert len(held) == min(len(asked), room // (n_cases + 1))
        check(tables)


class TestFamilyTables:
    @staticmethod
    def instance(rng, n_vars=6, n_cases=50):
        arities = [int(rng.integers(2, 5)) for _ in range(n_vars)]
        codes = np.column_stack(
            [rng.integers(0, d, size=n_cases) for d in arities]
        ).astype(np.int64)
        return np.asfortranarray(codes), arities

    def test_no_parents(self):
        codes = np.array([[0], [1], [0]])
        assert tally(codes, [2], 0, []).tolist() == [[2, 1]]

    def test_first_parent_most_significant(self):
        codes = np.array([[0, 1, 0], [1, 0, 2], [1, 0, 2]])
        table = tally(codes, [2, 2, 3], 0, [2, 1])
        # Sorted parents (1, 2): configurations 1 * 3 + 0 = 3 and 0 * 3 + 2 = 2.
        assert table.shape == (6, 2)
        assert table.sum(axis=1).tolist() == [0, 0, 2, 1, 0, 0]
        assert table[3].tolist() == [1, 0] and table[2].tolist() == [0, 2]

    def test_column_major_codes_tally_alike(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            codes, arities, parent_sets = random_discrete_instance(rng)
            child = int(rng.integers(0, len(arities)))
            parents = parent_sets[child]
            rows = tally(codes, arities, child, parents)
            cols = tally(np.asfortranarray(codes), arities, child, parents)
            assert np.array_equal(rows, cols)
            assert rows.sum() == codes.shape[0]

    def test_every_neighbour_matches_family_counts(self):
        rng = np.random.default_rng(31)
        places = set()
        for _ in range(60):
            codes, arities = self.instance(rng)
            child = int(rng.integers(0, 6))
            others = [v for v in range(6) if v != child]
            size = int(rng.integers(0, 4))
            parents = frozenset(
                int(v) for v in rng.choice(others, size=size, replace=False)
            )
            sets = [parents | {a} for a in others if a not in parents]
            sets += [parents - {a} for a in parents] + [parents]
            sets = [sets[i] for i in rng.permutation(len(sets))]
            tables = family_tables(
                codes, arities, [(child, parents, sets)], names=labels(arities)
            )
            for s, table in zip(sets, tables):
                expected = family_counts(codes, arities, child, sorted(s))
                assert np.array_equal(table, expected), (child, parents, s)
                for a in s - parents:
                    places.add(
                        "before" if all(a < p for p in parents)
                        else "after" if all(a > p for p in parents)
                        else "between"
                    )
        assert places == {"before", "between", "after"}

    def test_groups_of_several_children(self):
        rng = np.random.default_rng(37)
        codes, arities = self.instance(rng)
        families = [
            (0, frozenset({2, 4}), [frozenset({2, 4}), frozenset({1, 2, 4})]),
            (3, frozenset(), [frozenset({5}), frozenset()]),
            (5, frozenset({0}), [frozenset()]),
        ]
        tables = family_tables(codes, arities, families, names=labels(arities))
        expected = [
            family_counts(codes, arities, child, sorted(s))
            for child, _, sets in families
            for s in sets
        ]
        assert len(tables) == len(expected)
        for table, want in zip(tables, expected):
            assert np.array_equal(table, want)

    @pytest.mark.parametrize(
        "column, code",
        [(0, 3), (0, -1), (1, 2), (2, 5), (2, -4)],
        ids=["child-high", "child-negative", "parent-high", "added-high",
             "added-negative"],
    )
    def test_out_of_range_code_raises(self, column, code):
        # Child 0 with parent 1, read with 2 added: every column is read.
        codes = np.zeros((4, 3), dtype=np.int64)
        codes[1, column] = code
        families = [(0, frozenset({1}), [frozenset({1, 2})])]
        with pytest.raises(ValueError):
            family_tables(codes, [3, 2, 5], families, names=labels([3, 2, 5]))

    @pytest.mark.parametrize(
        "column, code, parents",
        [(2, 2, [1, 2]), (1, -1, [1]), (0, 2, []), (0, -1, [])],
        ids=["parent-aliased", "parent-negative", "no-parents-child-high",
             "no-parents-child-negative"],
    )
    def test_out_of_range_code_in_the_base_table_raises(self, column, code, parents):
        # In "parent-aliased" the bad code of the last parent would land on
        # configuration 0 * 2 + 2 = 2, inside the table, were it not checked.
        codes = np.array([[0, 0, 0], [1, 1, 1], [0, 0, 1]])
        codes[2, column] = code
        with pytest.raises(ValueError):
            tally(codes, [2, 2, 2], 0, parents)

    @pytest.mark.parametrize(
        "parents, s",
        [
            ({3}, {1}),
            ({3}, {1, 2, 3}),
            ({1, 2}, set()),
            ({1, 2}, {1, 3}),
        ],
        ids=["swap", "two-additions", "two-removals", "one-of-each"],
    )
    def test_a_set_not_one_edit_away_raises(self, parents, s):
        rng = np.random.default_rng(41)
        codes, arities = self.instance(rng, n_vars=4)
        families = [(0, frozenset(parents), [frozenset(parents), frozenset(s)])]
        with pytest.raises(ValueError, match=r"child 0") as raised:
            family_tables(codes, arities, families, names=labels(arities))
        assert str(sorted(s)) in str(raised.value)

    @pytest.mark.parametrize(
        "parents, s", [({1}, {1}), (set(), {1})], ids=["base", "added"]
    )
    def test_oversized_table_raises_before_tallying(self, parents, s):
        # 2**20 states of the child times 2**20 of its parent: 8 TiB of counts.
        codes = np.zeros((3, 2), dtype=np.int64)
        families = [(0, frozenset(parents), [frozenset(s)])]
        with pytest.raises(
            ValidationError, match=r"^variable 'depth': .* 1099511627776 cells"
        ):
            family_tables(codes, [2**20, 2**20], families, names=["depth", "width"])

    def test_table_at_the_memory_limit_is_tallied(self, monkeypatch):
        # Child arity 3 and an added parent of arity 4: 12 cells, 96 bytes.
        codes = np.zeros((5, 2), dtype=np.int64)
        families = [(0, frozenset(), [frozenset(), frozenset({1})])]
        monkeypatch.setattr(scoring, "MEMORY_LIMIT_BYTES", 96)
        names = labels([3, 4])
        assert [
            t.shape for t in family_tables(codes, [3, 4], families, names=names)
        ] == [(1, 3), (4, 3)]
        monkeypatch.setattr(scoring, "MEMORY_LIMIT_BYTES", 95)
        with pytest.raises(ValidationError, match="'x0'"):
            family_tables(codes, [3, 4], families, names=names)


class TestContinuousComponent:
    def test_known_widths(self):
        policy = DiscretizationPolicy(thresholds=(0.5, 9.5), lower=0.0, upper=10.0)
        x = np.array([0.0, 1.0, 9.0, 10.0])
        expected = -(math.log(0.5) + 2 * math.log(9.0) + math.log(0.5))
        assert continuous_component(x, policy) == pytest.approx(expected, rel=1e-12)

    def test_trivial_policy_contributes_nothing(self):
        assert continuous_component(
            np.array([0.0, 1.0]), DiscretizationPolicy.identity(2)
        ) == 0.0

    def test_constant_column_contributes_nothing(self):
        policy = DiscretizationPolicy(thresholds=(), lower=2.0, upper=2.0)
        assert continuous_component(np.array([2.0, 2.0]), policy) == 0.0

    def test_splitting_never_decreases(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = np.round(rng.uniform(0.0, 10.0, size=12), 2)
            cands = candidate_thresholds(x)
            if len(cands) < 2:
                continue
            size = int(rng.integers(0, len(cands) - 1))
            base = sorted(rng.choice(cands, size=size, replace=False).tolist())
            extra = float(rng.choice([c for c in cands if c not in base]))
            lo, hi = float(x.min()) - 1.0, float(x.max()) + 1.0
            coarse = DiscretizationPolicy(tuple(base), lo, hi)
            fine = DiscretizationPolicy(tuple(sorted([*base, extra])), lo, hi)
            assert continuous_component(x, fine) >= (
                continuous_component(x, coarse) - 1e-12
            )


class TestMultinomialComponent:
    def test_single_interval_hand_value(self):
        policy = DiscretizationPolicy(thresholds=(), lower=-1.0, upper=2.0)
        column = np.array([0.0, 0.0, 1.0])
        got = multinomial_component(column, policy, PriorSpec())
        assert got == pytest.approx(math.log(1.0 / 12.0), abs=1e-12)

    def test_empty_interval_skipped(self):
        """A middle interval holding no data costs nothing."""
        policy = DiscretizationPolicy(thresholds=(2.0, 3.0), lower=0.0, upper=5.0)
        column = np.array([0.0, 0.0, 4.0, 4.0])
        with_gap = multinomial_component(column, policy, PriorSpec())
        tight = DiscretizationPolicy(thresholds=(2.0,), lower=0.0, upper=5.0)
        assert with_gap == pytest.approx(
            multinomial_component(column, tight, PriorSpec()), abs=1e-12
        )

    def test_all_distinct_single_interval(self):
        """n distinct values in one interval: uniform over orderings."""
        column = np.array([0.0, 1.0, 2.0])
        policy = DiscretizationPolicy(thresholds=(), lower=0.0, upper=2.0)
        got = multinomial_component(column, policy, PriorSpec())
        # Gamma(3)/Gamma(6) * Gamma(2)^3 = 2/120
        assert got == pytest.approx(math.log(2.0 / 120.0), abs=1e-12)

    @pytest.mark.parametrize("mode", ["k2", "bdeu"])
    def test_matches_plain_loop(self, mode):
        # Random tied columns under random thresholds, which leave some
        # intervals empty; the bound was fixed before the first run, from
        # float64 rounding over a few hundred lnΓ terms of at most a few
        # thousand nats.
        rng = np.random.default_rng(23)
        empty = 0
        for trial in range(60):
            n = int(rng.integers(1, 120))
            column = np.round(rng.uniform(0.0, 4.0, n), int(rng.integers(0, 3)))
            cuts = np.sort(rng.uniform(0.0, 4.0, int(rng.integers(0, 9))))
            policy = DiscretizationPolicy(tuple(np.unique(cuts)), 0.0, 4.0)
            prior = PriorSpec(
                dirichlet_mode=mode, alpha=float(rng.uniform(0.2, 3.0)),
                ess=float(rng.uniform(0.5, 20.0)), density_model="multinomial",
            )
            codes = np.searchsorted(policy.thresholds, column, side="left")
            empty += policy.arity - len(np.unique(codes))
            want = plain_multinomial_emission(column, policy, prior)
            got = multinomial_component(column, policy, prior)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-10), trial
        assert empty > 0

    def test_emission_dispatch(self):
        policy = DiscretizationPolicy(thresholds=(), lower=0.0, upper=2.0)
        ds = continuous_dataset([0.0, 1.0, 2.0])
        uniform, _ = continuous_terms(ds, 0, policy, PriorSpec())
        multi, _ = continuous_terms(
            ds, 0, policy, PriorSpec(density_model="multinomial")
        )
        assert uniform == pytest.approx(-3.0 * math.log(2.0), rel=1e-12)
        assert multi == pytest.approx(math.log(2.0 / 120.0), abs=1e-12)


class TestPolicyPrior:
    def test_uniform_is_zero(self):
        prior = PriorSpec()
        assert interval_count_log_priors(3, 10, prior, 20)[-1] == 0.0

    def test_poisson_hand_value(self):
        """Rate 2, six cases, four candidates, two intervals."""
        prior = PriorSpec(policy_prior="poisson", poisson_rate=2.0)
        z = 2.0 + 4.0 / 3.0 + 2.0 / 3.0 + 4.0 / 15.0
        expected = math.log(2.0 / z) - math.log(4.0)
        assert interval_count_log_priors(2, 4, prior, 6)[-1] == pytest.approx(
            expected, abs=1e-12
        )

    def test_poisson_normalizes_over_support(self):
        prior = PriorSpec(policy_prior="poisson", poisson_rate=3.0)
        n_cases, n_candidates = 9, 20
        total = 0.0
        for r in range(2, n_cases):
            log_p = interval_count_log_priors(r, n_candidates, prior, n_cases)[-1]
            total += math.exp(log_p) * math.comb(n_candidates, r - 1)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_all_counts_match_single_count(self):
        """One normalizer for every count gives exactly the per-count values:
        each count's entry is the last entry of the list capped at it."""
        for prior in (
            PriorSpec(),
            PriorSpec(policy_prior="poisson", poisson_rate=2.5),
        ):
            for n_cases, n_candidates in ((20, 10), (9, 20), (6, 4), (4, 2)):
                r_cap = min(n_candidates + 1, 12)
                priors = interval_count_log_priors(r_cap, n_candidates, prior, n_cases)
                assert priors == [
                    interval_count_log_priors(r, n_candidates, prior, n_cases)[-1]
                    for r in range(1, r_cap + 1)
                ]
                if prior.policy_prior == "uniform":
                    assert priors == [0.0] * r_cap
                    continue
                # The per-count arithmetic, normalizer recomputed each time.
                rate = prior.poisson_rate
                for r in range(2, min(r_cap, n_cases - 1) + 1):
                    support = np.arange(2, n_cases)
                    log_norm = float(
                        logsumexp(support * math.log(rate) - gammaln(support + 1))
                    )
                    log_comb = float(
                        gammaln(n_candidates + 1)
                        - gammaln(r)
                        - gammaln(n_candidates - r + 2)
                    )
                    log_pmf = r * math.log(rate) - float(gammaln(r + 1))
                    assert priors[r - 1] == log_pmf - log_norm - log_comb

    def test_poisson_normalizer_is_computed_once(self):
        prior = PriorSpec(policy_prior="poisson", poisson_rate=2.5)
        scoring._poisson_log_norm.cache_clear()
        first = interval_count_log_priors(6, 10, prior, 40)
        assert interval_count_log_priors(6, 10, prior, 40) == first
        assert interval_count_log_priors(2, 10, prior, 40)[-1] == first[1]
        info = scoring._poisson_log_norm.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        support = np.arange(2, 40)
        log_norm = float(logsumexp(support * math.log(2.5) - gammaln(support + 1)))
        for r in range(2, 7):
            expected = (
                r * math.log(2.5) - float(gammaln(r + 1)) - log_norm
                - float(gammaln(11) - gammaln(r) - gammaln(12 - r))
            )
            assert first[r - 1] == expected

    def test_poisson_gives_single_interval_no_mass(self):
        prior = PriorSpec(policy_prior="poisson", poisson_rate=2.0)
        assert interval_count_log_priors(1, 10, prior, 20)[-1] == -math.inf

    def test_poisson_truncates_above(self):
        prior = PriorSpec(policy_prior="poisson", poisson_rate=2.0)
        assert interval_count_log_priors(8, 10, prior, 8)[-1] == -math.inf

    def test_rate_above_truncation_rejected(self):
        prior = PriorSpec(policy_prior="poisson", poisson_rate=6.0)
        with pytest.raises(ValidationError):
            interval_count_log_priors(2, 10, prior, 4)

    def test_infeasible_threshold_count_rejected(self):
        with pytest.raises(ValidationError):
            interval_count_log_priors(5, 2, PriorSpec(), 20)

    def test_continuous_terms_refuse_a_discrete_variable(self):
        ds = mixed_dataset([("d", [0, 1, 2, 1], 3), ("c", [0.0, 1.0, 2.0, 3.0], None)])
        prior = PriorSpec(policy_prior="poisson", poisson_rate=2.0)
        with pytest.raises(ValidationError, match="discrete"):
            continuous_terms(ds, 0, DiscretizationPolicy.identity(3), prior)

    @pytest.mark.parametrize("density", ["uniform", "multinomial"])
    @pytest.mark.parametrize("policy_prior", ["uniform", "poisson"])
    def test_continuous_terms_are_the_components(self, density, policy_prior):
        """The emission under the prior's density model and the last entry
        of the interval-count priors, bit for bit, and exactly what
        network_score reports for every continuous variable."""
        prior = PriorSpec(policy_prior=policy_prior, density_model=density)
        rng = np.random.default_rng(17)
        for _ in range(10):
            ds = random_mixed_dataset(rng, n_vars=5, n_cases=30)
            policy = random_network_policy(rng, ds)
            structure = validate_dag(random_parent_sets(rng, ds.n_variables))
            breakdown = network_score(policy, structure, ds, prior)
            for i in ds.continuous_indices():
                column, pol = ds.column(i), policy[i]
                if density == "multinomial":
                    emission = multinomial_component(column, pol, prior)
                else:
                    emission = continuous_component(column, pol)
                log_prior = interval_count_log_priors(
                    pol.arity, len(ds.candidate_thresholds(i)), prior, ds.n_cases
                )[-1]
                assert continuous_terms(ds, i, pol, prior) == (emission, log_prior)
                assert breakdown.emission[i] == emission
                assert breakdown.log_prior[i] == log_prior


class TestUnivariateScore:
    """Parent-free score of one continuous column on [0, 10]."""

    @staticmethod
    def score(thresholds):
        ds = continuous_dataset(
            np.array([[0.0], [1.0], [9.0], [10.0]]), bounds=[(0.0, 10.0)]
        )
        policy = NetworkPolicy(
            (DiscretizationPolicy(thresholds=thresholds, lower=0.0, upper=10.0),)
        )
        return network_score(policy, empty_structure(1), ds, PriorSpec()).total

    def test_worked_optimum_value(self):
        got = self.score((0.5, 9.5))
        assert got == pytest.approx(-math.log(3645.0), abs=1e-9)

    def test_single_interval_is_pure_emission(self):
        assert self.score(()) == pytest.approx(-4.0 * math.log(10.0), rel=1e-12)


def shuffled_dataset(dataset, rng):
    perm = rng.permutation(dataset.n_cases)
    return Dataset(variables=dataset.variables, values=dataset.values[perm])


class TestNetworkScore:
    def test_breakdown_shape_and_decomposability(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ds = random_mixed_dataset(rng)
            structure = validate_dag(random_parent_sets(rng, ds.n_variables))
            policy = random_network_policy(rng, ds)
            breakdown = network_score(policy, structure, ds, PriorSpec())
            recomputed = math.fsum(
                breakdown.emission[i] + breakdown.discrete[i]
                + breakdown.log_prior[i]
                for i in range(ds.n_variables)
            )
            assert breakdown.total == pytest.approx(recomputed, abs=1e-12)

    def test_discrete_variables_carry_no_emission_or_prior(self):
        ds = mixed_dataset([("d", [0, 1, 0], 2), ("c", [0.0, 0.5, 1.0], None)])
        policy = random_network_policy(np.random.default_rng(0), ds)
        breakdown = network_score(
            policy, empty_structure(2), ds, PriorSpec()
        )
        assert breakdown.emission[0] == 0.0
        assert breakdown.log_prior[0] == 0.0

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            ds = random_mixed_dataset(rng)
            structure = validate_dag(random_parent_sets(rng, ds.n_variables))
            policy = random_network_policy(rng, ds)
            prior = PriorSpec(density_model="multinomial") if rng.random() < 0.5 \
                else PriorSpec()
            before = network_score(policy, structure, ds, prior).total
            after = network_score(
                policy, structure, shuffled_dataset(ds, rng), prior
            ).total
            assert after == pytest.approx(before, abs=1e-12)

    def test_finite_total_names_the_term_that_is_not_finite(self):
        names = ("a", "b", "c")
        finite = np.zeros(3)
        no_mass = ScoreBreakdown(finite, finite, np.array([0.0, -math.inf, -1.0]))
        with pytest.raises(ValidationError) as err:
            no_mass.finite_total(names, "policy")
        assert "the policy of 'b' has no mass under the policy prior" in str(err.value)
        nan = ScoreBreakdown(finite, np.array([0.0, -1.0, math.nan]), finite)
        with pytest.raises(ValidationError) as err:
            nan.finite_total(names, "policy")
        assert "the discrete term of 'c' is nan" in str(err.value)
        assert "policy prior" not in str(err.value)
        assert ScoreBreakdown(finite, finite, finite).finite_total(names, "") == 0.0

    def test_to_obj_is_json_ready(self):
        import json

        ds = continuous_dataset(np.array([[0.0], [1.0]]))
        breakdown = network_score(
            random_network_policy(np.random.default_rng(1), ds),
            empty_structure(1),
            ds,
            PriorSpec(),
        )
        obj = breakdown.to_obj(ds.names)
        text = json.dumps(obj)
        assert obj["schema_version"] == 1
        assert "total" in text


class TestLocalScore:
    def test_matches_network_delta(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            ds = random_mixed_dataset(rng)
            structure = validate_dag(random_parent_sets(rng, ds.n_variables))
            policy = random_network_policy(rng, ds)
            continuous = ds.continuous_indices()
            i = int(rng.choice(continuous))
            other = random_network_policy(rng, ds)
            perturbed = policy.with_policy(i, other[i])
            prior = PriorSpec()
            network_delta = (
                network_score(perturbed, structure, ds, prior).total
                - network_score(policy, structure, ds, prior).total
            )
            local_delta = local_score(
                i, perturbed, structure, ds, prior
            ) - local_score(i, policy, structure, ds, prior)
            assert local_delta == pytest.approx(network_delta, abs=1e-9)

    def test_locality_of_breakdown(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            ds = random_mixed_dataset(rng)
            structure = validate_dag(random_parent_sets(rng, ds.n_variables))
            policy = random_network_policy(rng, ds)
            continuous = ds.continuous_indices()
            i = int(rng.choice(continuous))
            perturbed = policy.with_policy(
                i, random_network_policy(rng, ds)[i]
            )
            prior = PriorSpec()
            before = network_score(policy, structure, ds, prior)
            after = network_score(perturbed, structure, ds, prior)
            touched = {i} | set(structure.children[i])
            for j in range(ds.n_variables):
                if j in touched:
                    continue
                assert before.emission[j] == after.emission[j]
                assert before.discrete[j] == after.discrete[j]
                assert before.log_prior[j] == after.log_prior[j]
