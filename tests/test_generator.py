import io
import json

import numpy as np
import pytest

from mixedbn import (
    DiscretizationPolicy,
    Mechanism,
    ValidationError,
    apply_policy,
    load_mechanism,
    mechanism_from_obj,
    mechanism_to_obj,
    random_mechanism,
    sample_dataset,
)
from mixedbn.graph import empty_structure, validate_dag
from oracles import ks_statistic


def two_node_mechanism(seed=0):
    return Mechanism(
        structure=validate_dag([set(), {0}]),
        cpts=(
            np.array([[0.7, 0.3]]),
            np.array([[0.9, 0.1], [0.1, 0.9]]),
        ),
        policies=(
            DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
            DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
        ),
        seed=seed,
    )


class TestMechanismValidation:
    def test_cpt_rows_must_be_distributions(self):
        with pytest.raises(ValidationError):
            Mechanism(
                structure=empty_structure(1),
                cpts=(np.array([[0.6, 0.6]]),),
                policies=(
                    DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
                ),
                seed=0,
            )

    def test_cpt_shape_must_match_parent_configs(self):
        with pytest.raises(ValidationError):
            Mechanism(
                structure=validate_dag([set(), {0}]),
                cpts=(
                    np.array([[0.5, 0.5]]),
                    np.array([[0.5, 0.5]]),
                ),
                policies=(
                    DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
                    DiscretizationPolicy(thresholds=(0.0,), lower=-1.0, upper=1.0),
                ),
                seed=0,
            )

    def test_policy_arity_must_match_cpt_columns(self):
        with pytest.raises(ValidationError):
            Mechanism(
                structure=empty_structure(1),
                cpts=(np.array([[0.5, 0.5]]),),
                policies=(
                    DiscretizationPolicy(
                        thresholds=(-0.5, 0.5), lower=-1.0, upper=1.0
                    ),
                ),
                seed=0,
            )

    def test_trivial_policies_rejected(self):
        with pytest.raises(ValidationError):
            Mechanism(
                structure=empty_structure(1),
                cpts=(np.array([[0.5, 0.5]]),),
                policies=(DiscretizationPolicy.identity(2),),
                seed=0,
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            two_node_mechanism(seed=-3)


class TestRandomMechanism:
    def test_negative_seed_rejected_before_drawing(self):
        with pytest.raises(ValidationError, match="seed"):
            random_mechanism(3, 1, 2, seed=-1)

    def test_shapes(self):
        mech = random_mechanism(4, 2, 3, seed=1)
        assert mech.n == 4
        assert mech.names() == ("x1", "x2", "x3", "x4")
        for i, cpt in enumerate(mech.cpts):
            assert cpt.shape[1] == 3
            assert np.allclose(cpt.sum(axis=1), 1.0, atol=1e-9)
            assert len(mech.structure.parents[i]) <= 2

    def test_deterministic(self):
        a = random_mechanism(3, 2, 2, seed=9)
        b = random_mechanism(3, 2, 2, seed=9)
        assert a.structure.edges() == b.structure.edges()
        for x, y in zip(a.cpts, b.cpts):
            assert np.array_equal(x, y)

    def test_seed_changes_output(self):
        a = random_mechanism(3, 2, 2, seed=1)
        b = random_mechanism(3, 2, 2, seed=2)
        same_edges = a.structure.edges() == b.structure.edges()
        same_cpts = all(np.array_equal(x, y) for x, y in zip(a.cpts, b.cpts))
        assert not (same_edges and same_cpts)

    def test_validation(self):
        with pytest.raises(ValidationError):
            random_mechanism(0, 2, 2, seed=0)
        with pytest.raises(ValidationError):
            random_mechanism(3, 2, 1, seed=0)


class TestSampleDataset:
    def test_shapes_and_metadata(self):
        mech = two_node_mechanism()
        ds, codes = sample_dataset(mech, 25)
        assert ds.n_cases == 25
        assert ds.names == ("x1", "x2")
        assert codes.shape == (25, 2)
        for var in ds.variables:
            assert var.kind == "continuous"
            assert var.bounds == (-1.0, 1.0)

    def test_case_count_validated(self):
        with pytest.raises(ValidationError):
            sample_dataset(two_node_mechanism(), 0)

    def test_values_lie_in_their_latent_interval(self):
        mech = random_mechanism(4, 2, 3, seed=5)
        ds, codes = sample_dataset(mech, 300)
        for i in range(mech.n):
            edges = mech.policies[i].interval_edges()
            x = ds.column(i)
            k = codes[:, i]
            lower = edges[k]
            upper = edges[k + 1]
            inside = (x <= upper) & ((x > lower) | ((k == 0) & (x >= lower)))
            assert inside.all()

    def test_round_trip_identity(self):
        for seed in range(5):
            mech = random_mechanism(3, 2, 3, seed=seed)
            ds, codes = sample_dataset(mech, 200)
            for i in range(mech.n):
                recovered = apply_policy(ds.column(i), mech.policies[i])
                assert np.array_equal(recovered, codes[:, i])

    def test_deterministic(self):
        mech = two_node_mechanism(seed=12)
        a_ds, a_codes = sample_dataset(mech, 40)
        b_ds, b_codes = sample_dataset(mech, 40)
        assert np.array_equal(a_ds.values, b_ds.values)
        assert np.array_equal(a_codes, b_codes)

    def test_root_marginal_matches_cpt(self):
        hits = 0
        for seed in range(20):
            mech = two_node_mechanism(seed=seed)
            _, codes = sample_dataset(mech, 10000)
            freq = float(np.mean(codes[:, 0] == 0))
            if abs(freq - 0.7) <= 0.02:
                hits += 1
        assert hits >= 19

    def test_single_interval_output_is_uniform(self):
        mech = Mechanism(
            structure=empty_structure(1),
            cpts=(np.array([[1.0]]),),
            policies=(DiscretizationPolicy(thresholds=(), lower=0.0, upper=1.0),),
            seed=3,
        )
        ds, _ = sample_dataset(mech, 1000)
        stat = ks_statistic(ds.column(0), lambda v: min(max(v, 0.0), 1.0))
        assert stat < 1.63 / np.sqrt(1000.0)


class TestMechanismJson:
    def test_round_trip(self):
        mech = random_mechanism(3, 2, 3, seed=8)
        obj = mechanism_to_obj(mech)
        assert obj["schema_version"] == 1
        back = mechanism_from_obj(obj)
        assert back.structure.edges() == mech.structure.edges()
        assert back.seed == mech.seed
        for x, y in zip(back.cpts, mech.cpts):
            assert np.array_equal(x, y)
        for p, q in zip(back.policies, mech.policies):
            assert p.thresholds == q.thresholds
            assert (p.lower, p.upper) == (q.lower, q.upper)

    def test_json_serializable(self):
        mech = random_mechanism(2, 1, 2, seed=0)
        text = json.dumps(mechanism_to_obj(mech))
        again = load_mechanism(io.StringIO(text))
        ds_a, codes_a = sample_dataset(mech, 10)
        ds_b, codes_b = sample_dataset(again, 10)
        assert np.array_equal(ds_a.values, ds_b.values)
        assert np.array_equal(codes_a, codes_b)

    def test_bad_payload_rejected(self):
        with pytest.raises(ValidationError):
            mechanism_from_obj({"schema_version": 1})
        with pytest.raises(ValidationError):
            load_mechanism(io.StringIO("not json"))
