"""End-to-end acceptance checks.

Eleven numbered criteria, one test each.  Every test prints a single PASS
line with its measured numbers once its assertions hold, so running
``pytest -v -s tests/test_acceptance.py`` doubles as the acceptance report.
"""

import itertools
import math
import time

import numpy as np
import pytest

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
    Mechanism,
    PriorSpec,
    SearchConfig,
    VariableMeta,
    apply_policy,
    coordinate_ascent,
    hill_climb_structure,
    initial_policy,
    network_score,
    optimize_variable,
    random_mechanism,
    sample_dataset,
    trivial_network_policy,
)
from mixedbn.graph import empty_structure, validate_dag
from mixedbn.scoring import family_scores, family_tables
from oracles import (
    brute_univariate_best,
    d_separated,
    exhaustive_policy_search,
    ks_statistic,
    local_score,
    moral_dsep,
    sequential_log_marginal,
)


def pass_line(number, text):
    print(f"ACCEPTANCE {number:02d} PASS {text}")


def family_score(codes, arities, child, parents, prior):
    """The package's score of one family: its table, then its score."""
    parents = frozenset(parents)
    tables = family_tables(
        codes,
        arities,
        [(child, parents, [parents])],
        names=[f"x{j}" for j in range(len(arities))],
    )
    return family_scores(tables, prior)[0]


def recovery_mechanism(seed, dependent=True):
    """Two-variable mechanism with true thresholds at zero."""
    policies = (
        DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
        DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
    )
    if dependent:
        return Mechanism(
            structure=validate_dag([set(), {0}]),
            cpts=(
                np.array([[0.5, 0.5]]),
                np.array([[0.9, 0.1], [0.1, 0.9]]),
            ),
            policies=policies,
            seed=seed,
        )
    return Mechanism(
        structure=empty_structure(2),
        cpts=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])),
        policies=policies,
        seed=seed,
    )


class TestAcceptance:
    def test_01_dirichlet_score_matches_sequential_oracle(self):
        """Closed form equals the chain-rule oracle on 200 random instances."""
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        worst = 0.0
        checked = 0
        for trial in range(200):
            codes, arities, parent_sets = random_discrete_instance(rng)
            if trial % 4 == 0:
                prior = PriorSpec(
                    dirichlet_mode="bdeu", ess=float(rng.uniform(0.5, 8.0))
                )
            elif trial % 4 == 1:
                prior = PriorSpec(alpha=float(rng.uniform(0.25, 4.0)))
            else:
                prior = PriorSpec()
            for child in range(len(arities)):
                parents = sorted(parent_sets[child])
                got = family_score(codes, arities, child, parents, prior)
                if prior.dirichlet_mode == "bdeu":
                    want = sequential_log_marginal(
                        codes, arities, child, parents,
                        mode="bdeu", ess=prior.ess,
                    )
                else:
                    want = sequential_log_marginal(
                        codes, arities, child, parents, alpha=prior.alpha
                    )
                worst = max(worst, abs(got - want))
                checked += 1
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9
        assert elapsed < 5.0
        pass_line(
            1,
            f"closed form vs chain rule: max |diff| {worst:.2e} over "
            f"{checked} families from 200 instances in {elapsed:.2f}s",
        )

    def test_02_hand_example_one_twelfth(self):
        """Codes (0,0,1), two states, unit pseudo-counts: log(1/12)."""
        codes = np.array([[0], [0], [1]])
        got = family_score(codes, [2], 0, [], PriorSpec())
        want = math.log(1.0 / 12.0)
        assert got == pytest.approx(want, abs=1e-12)
        oracle = sequential_log_marginal(codes, [2], 0, [])
        assert oracle == pytest.approx(want, abs=1e-12)
        pass_line(2, f"log(1/12) reproduced to {abs(got - want):.1e}")

    def test_03_single_state_cancellation(self):
        """A one-state child scores exactly zero on any dataset."""
        rng = np.random.default_rng(33)
        for _ in range(50):
            n_cases = int(rng.integers(1, 60))
            n_parents = int(rng.integers(0, 3))
            arities = [1] + [int(rng.integers(2, 4)) for _ in range(n_parents)]
            codes = np.zeros((n_cases, 1 + n_parents), dtype=np.int64)
            for p in range(1, 1 + n_parents):
                codes[:, p] = rng.integers(0, arities[p], size=n_cases)
            prior = (
                PriorSpec(dirichlet_mode="bdeu", ess=float(rng.uniform(0.5, 8.0)))
                if rng.random() < 0.5
                else PriorSpec(alpha=float(rng.uniform(0.25, 4.0)))
            )
            parents = range(1, 1 + n_parents)
            assert family_score(codes, arities, 0, parents, prior) == 0.0
        pass_line(3, "single-state child scored exactly 0.0 on 50 random datasets")

    def test_04_dp_matches_exhaustive(self):
        """Dynamic program equals brute-force subset search, ties included."""
        rng = np.random.default_rng(404)
        started = time.perf_counter()
        priors = [
            PriorSpec(),
            PriorSpec(alpha=0.5),
            PriorSpec(dirichlet_mode="bdeu", ess=4.0),
            PriorSpec(policy_prior="poisson", poisson_rate=2.0),
            PriorSpec(density_model="multinomial"),
            PriorSpec(dirichlet_mode="bdeu", ess=2.0, density_model="multinomial"),
        ]
        worst = 0.0
        config = SearchConfig()

        for trial in range(100):
            n_cases = int(rng.integers(3, 13))
            values = np.round(rng.uniform(0.0, 4.0, size=n_cases), 1)
            ds = continuous_dataset(values.reshape(-1, 1), bounds=[(-0.5, 4.5)])
            prior = priors[trial % len(priors)]
            policy0 = trivial_network_policy(ds)
            structure = empty_structure(1)
            got = optimize_variable(0, policy0, structure, ds, prior, config)
            want, want_score = exhaustive_policy_search(
                0, policy0, structure, ds, prior,
                config.resolved_r_max(n_cases),
            )
            assert got.thresholds == want.thresholds
            got_score = local_score(
                0, policy0.with_policy(0, got), structure, ds, prior
            )
            worst = max(worst, abs(got_score - want_score))

        for trial in range(100):
            n_cases = int(rng.integers(5, 11))
            ds = mixed_dataset(
                [
                    ("d", rng.integers(0, 2, size=n_cases), 2),
                    (
                        "c",
                        np.round(rng.uniform(0.0, 3.0, size=n_cases), 1),
                        (-1.0, 4.0),
                    ),
                    (
                        "c",
                        np.round(rng.uniform(0.0, 3.0, size=n_cases), 1),
                        (-1.0, 4.0),
                    ),
                ]
            )
            structure = validate_dag([set(), {0}, {1}])
            policy = random_network_policy(rng, ds)
            prior = priors[trial % len(priors)]
            got = optimize_variable(1, policy, structure, ds, prior, config)
            want, want_score = exhaustive_policy_search(
                1, policy, structure, ds, prior, config.resolved_r_max(n_cases)
            )
            assert got.thresholds == want.thresholds
            got_score = local_score(
                1, policy.with_policy(1, got), structure, ds, prior
            )
            worst = max(worst, abs(got_score - want_score))

        elapsed = time.perf_counter() - started
        assert worst <= 1e-9
        assert elapsed < 30.0
        pass_line(
            4,
            f"dynamic program vs exhaustive: identical policies on 200 "
            f"instances, max score |diff| {worst:.2e}, in {elapsed:.2f}s",
        )

    def test_05_worked_optimum_brute_force(self):
        """x=[0,1,9,10] on [0,10]: thresholds {0.5, 9.5}, score -8.2011."""
        values = np.array([0.0, 1.0, 9.0, 10.0])
        ds = continuous_dataset(values.reshape(-1, 1), bounds=[(0.0, 10.0)])
        candidates = ds.candidate_thresholds(0)
        assert candidates.tolist() == [0.5, 5.0, 9.5]

        oracle_thresholds, oracle_score = brute_univariate_best(
            values, 0.0, 10.0, candidates.tolist()
        )
        assert oracle_thresholds == (0.5, 9.5)
        assert oracle_score == pytest.approx(-8.2011, abs=1e-3)
        assert oracle_score == pytest.approx(-math.log(3645.0), abs=1e-12)

        policy0 = trivial_network_policy(ds)
        structure = empty_structure(1)
        got = optimize_variable(
            0, policy0, structure, ds, PriorSpec(), SearchConfig(r_max=4)
        )
        assert got.thresholds == (0.5, 9.5)
        got_score = local_score(
            0, policy0.with_policy(0, got), structure, ds, PriorSpec()
        )
        assert got_score == pytest.approx(oracle_score, abs=1e-9)
        pass_line(
            5,
            f"brute force over 8 policies agrees: thresholds (0.5, 9.5), "
            f"score {got_score:.7f}",
        )

    def test_06_locality_bit_identity(self):
        """Perturbing one policy leaves unrelated breakdown entries bit-equal."""
        rng = np.random.default_rng(606)
        for _ in range(100):
            ds = random_mixed_dataset(rng, n_vars=int(rng.integers(3, 6)))
            structure = validate_dag(random_parent_sets(rng, ds.n_variables))
            policy = random_network_policy(rng, ds)
            i = int(rng.choice(ds.continuous_indices()))
            perturbed = policy.with_policy(i, random_network_policy(rng, ds)[i])
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
        pass_line(
            6,
            "100 perturbation triples: untouched breakdown entries "
            "bit-identical",
        )

    def test_07_monotone_traces(self):
        """Every recorded total sequence is nondecreasing and bounded."""
        checked = 0
        for seed in range(5):
            mech = random_mechanism(3 + seed % 2, 2, 2, seed=seed)
            ds, _ = sample_dataset(mech, 80)
            config = SearchConfig()
            policy0 = initial_policy(ds, config)
            structure = empty_structure(ds.n_variables)
            _, trace = coordinate_ascent(
                policy0, structure, ds, PriorSpec(), config
            )
            totals = trace.totals()
            assert all(b >= a for a, b in zip(totals, totals[1:]))
            sweeps = [r for r in trace.records if r["kind"] == "sweep"]
            assert len(sweeps) <= config.max_sweeps
            assert trace.termination in ("converged", "max_sweeps")
            checked += 1

            _, _, hill_trace = hill_climb_structure(ds, PriorSpec(), config)
            totals = hill_trace.totals()
            assert all(b >= a for a, b in zip(totals, totals[1:]))
            assert hill_trace.termination == "no_improving_edit"
            checked += 1
        pass_line(
            7, f"{checked} search traces monotone nondecreasing, all terminated"
        )

    def test_08_threshold_recovery(self):
        """Coordinate ascent recovers two intervals split next to zero.

        The interval-count prior is the Poisson one; under the uniform
        prior the likelihood alone rewards spurious extra intervals, which
        is the stated reason that prior exists.  Threshold placement is
        judged by classification agreement rather than by landing between
        the two samples straddling zero: a boundary sample whose partner
        value falls on its minority side (probability 0.1 per side under
        the 0.9/0.1 table) genuinely moves the sample optimum past that
        sample, so a handful of boundary cases may land on either side.
        A seed counts as recovered when both variables come back with
        exactly one threshold that classifies at least 99 percent of the
        cases the same way as the generating threshold at zero.
        """
        structure = validate_dag([set(), {0}])
        config = SearchConfig()
        prior = PriorSpec(policy_prior="poisson", poisson_rate=2.0)
        n_cases = 500
        slack = n_cases // 100
        hits = 0
        slowest = 0.0
        for seed in range(20):
            mech = recovery_mechanism(seed, dependent=True)
            ds, _ = sample_dataset(mech, n_cases)
            started = time.perf_counter()
            policy, _ = coordinate_ascent(
                initial_policy(ds, config), structure, ds, prior, config
            )
            elapsed = time.perf_counter() - started
            slowest = max(slowest, elapsed)
            assert elapsed < 10.0
            ok = True
            for i in range(2):
                column = ds.column(i)
                thresholds = policy[i].thresholds
                if len(thresholds) != 1:
                    ok = False
                    continue
                t = thresholds[0]
                straddled = np.sum(
                    (column > min(0.0, t)) & (column <= max(0.0, t))
                )
                if straddled > slack:
                    ok = False
            hits += ok
        assert hits >= 16
        pass_line(
            8,
            f"both true interval counts and boundaries recovered at 99% "
            f"agreement in {hits}/20 seeds, slowest seed {slowest:.2f}s",
        )

    def test_09_structure_recovery(self):
        """Toy discrete pairs: an edge when dependent, none when independent."""

        def latent_dataset(mech, n_cases):
            _, codes = sample_dataset(mech, n_cases)
            variables = tuple(
                VariableMeta(name=f"x{i + 1}", kind="discrete", arity=2)
                for i in range(2)
            )
            return Dataset(
                variables=variables, values=codes.astype(np.float64)
            )

        def enumerate_best_edges(ds):
            prior = PriorSpec()
            candidates = [
                empty_structure(2),
                validate_dag([set(), {0}]),
                validate_dag([{1}, set()]),
            ]
            policy = trivial_network_policy(ds)
            best = None
            for s in candidates:
                total = network_score(policy, s, ds, prior).total
                if best is None or total > best[0] + 1e-12:
                    best = (total, len(s.edges()))
            return best[1]

        config = SearchConfig()
        dep_hits = 0
        ind_hits = 0
        for seed in range(20):
            ds = latent_dataset(recovery_mechanism(seed, dependent=True), 200)
            structure, _, _ = hill_climb_structure(ds, PriorSpec(), config)
            if len(structure.edges()) == 1 and enumerate_best_edges(ds) == 1:
                dep_hits += 1

            ds = latent_dataset(
                recovery_mechanism(1000 + seed, dependent=False), 200
            )
            structure, _, _ = hill_climb_structure(ds, PriorSpec(), config)
            if not structure.edges() and enumerate_best_edges(ds) == 0:
                ind_hits += 1
        assert dep_hits >= 18
        assert ind_hits >= 18
        pass_line(
            9,
            f"structure recovery: dependent {dep_hits}/20 (one edge), "
            f"independent {ind_hits}/20 (empty), both vs 3-structure "
            "enumeration",
        )

    def test_10_dsep_moral_oracle(self):
        """Trail reachability agrees with moralization on every query."""
        rng = np.random.default_rng(1010)
        queries = 0
        for _ in range(50):
            n = int(rng.integers(2, 7))
            parent_sets = random_parent_sets(rng, n)
            structure = validate_dag(parent_sets)
            for i, j in itertools.combinations(range(n), 2):
                rest = [v for v in range(n) if v not in (i, j)]
                for size in range(len(rest) + 1):
                    for z in itertools.combinations(rest, size):
                        assert d_separated(structure, i, j, z) == moral_dsep(
                            parent_sets, i, j, z
                        )
                        queries += 1
        pass_line(
            10, f"d-separation matches the moralization oracle on {queries} queries"
        )

    def test_11_generator_round_trip_and_uniformity(self):
        """Latent codes reproduce exactly; single-interval output is uniform."""
        rng = np.random.default_rng(1111)
        for seed in range(20):
            n = int(rng.integers(2, 6))
            arity = int(rng.integers(2, 5))
            mech = random_mechanism(n, 2, arity, seed=seed)
            ds, codes = sample_dataset(mech, 200)
            for i in range(n):
                recovered = apply_policy(ds.column(i), mech.policies[i])
                assert np.array_equal(recovered, codes[:, i])

        single = Mechanism(
            structure=empty_structure(1),
            cpts=(np.array([[1.0]]),),
            policies=(
                DiscretizationPolicy(thresholds=(), lower=0.0, upper=1.0),
            ),
            seed=7,
        )
        ds, _ = sample_dataset(single, 1000)
        stat = ks_statistic(ds.column(0), lambda v: min(max(v, 0.0), 1.0))
        bound = 1.63 / math.sqrt(1000.0)
        assert stat < bound
        pass_line(
            11,
            f"20 mechanisms round-trip exactly; KS statistic {stat:.4f} "
            f"< {bound:.4f}",
        )
