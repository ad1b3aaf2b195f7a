import io
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import continuous_dataset, mixed_dataset
from mixedbn import dataset as dataset_module
from mixedbn import (
    Dataset,
    DiscretizationPolicy,
    NetworkPolicy,
    ValidationError,
    VariableMeta,
    apply_policy,
    candidate_thresholds,
    discretize_all,
    load_dataset,
    load_schema,
    policy_from_obj,
    policy_to_obj,
    trivial_network_policy,
    validate_network_policy,
)
from mixedbn.dataset import read_text
from oracles import reference_csv_values

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestVariableMeta:
    def test_discrete_requires_arity(self):
        with pytest.raises(ValidationError):
            VariableMeta(name="a", kind="discrete")

    def test_discrete_arity_floor(self):
        with pytest.raises(ValidationError):
            VariableMeta(name="a", kind="discrete", arity=1)

    def test_discrete_rejects_bounds(self):
        with pytest.raises(ValidationError):
            VariableMeta(name="a", kind="discrete", arity=2, bounds=(0.0, 1.0))

    def test_continuous_rejects_arity(self):
        with pytest.raises(ValidationError):
            VariableMeta(name="a", kind="continuous", arity=3)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValidationError):
            VariableMeta(name="a", kind="continuous", bounds=(1.0, 1.0))

    def test_bounds_must_be_finite(self):
        with pytest.raises(ValidationError):
            VariableMeta(name="a", kind="continuous", bounds=(0.0, np.inf))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            VariableMeta(name="a", kind="ordinal")

    def test_arity_and_bounds_are_keyword_only(self):
        with pytest.raises(TypeError):
            VariableMeta("a", "discrete", 2)


class TestDiscretizationPolicy:
    def test_arity_counts_intervals(self):
        policy = DiscretizationPolicy(thresholds=(0.5, 9.5), lower=0.0, upper=10.0)
        assert policy.arity == 3
        assert not policy.trivial

    def test_identity(self):
        policy = DiscretizationPolicy.identity(4)
        assert policy.trivial
        assert policy.arity == 4

    def test_thresholds_must_increase(self):
        with pytest.raises(ValidationError):
            DiscretizationPolicy(thresholds=(2.0, 2.0), lower=0.0, upper=10.0)

    def test_thresholds_must_lie_inside_bounds(self):
        with pytest.raises(ValidationError):
            DiscretizationPolicy(thresholds=(0.0,), lower=0.0, upper=10.0)
        with pytest.raises(ValidationError):
            DiscretizationPolicy(thresholds=(10.0,), lower=0.0, upper=10.0)

    def test_constant_column_policy_allowed(self):
        policy = DiscretizationPolicy(thresholds=(), lower=3.0, upper=3.0)
        assert policy.arity == 1

    def test_interval_edges(self):
        policy = DiscretizationPolicy(thresholds=(1.0, 2.0), lower=0.0, upper=4.0)
        assert policy.interval_edges().tolist() == [0.0, 1.0, 2.0, 4.0]


class TestApplyPolicy:
    def test_mapping_convention(self):
        """Left-open right-closed intervals, first one closed below."""
        policy = DiscretizationPolicy(thresholds=(0.5, 9.5), lower=0.0, upper=10.0)
        x = np.array([0.0, 0.5, 0.6, 9.5, 9.6, 10.0])
        assert apply_policy(x, policy).tolist() == [0, 0, 1, 1, 2, 2]

    def test_trivial_policy_casts(self):
        policy = DiscretizationPolicy.identity(3)
        assert apply_policy(np.array([0.0, 2.0, 1.0]), policy).tolist() == [0, 2, 1]

    def test_out_of_bounds_raises(self):
        policy = DiscretizationPolicy(thresholds=(0.5,), lower=0.0, upper=1.0)
        with pytest.raises(ValidationError):
            apply_policy(np.array([0.2, 1.5]), policy)

    def test_below_bounds_names_the_first_offender(self):
        policy = DiscretizationPolicy(thresholds=(0.5,), lower=0.0, upper=1.0)
        with pytest.raises(ValidationError, match="-0.25"):
            apply_policy(np.array([0.2, -0.25, 1.5, -0.5]), policy)

    def test_single_interval_maps_to_zero(self):
        policy = DiscretizationPolicy(thresholds=(), lower=0.0, upper=1.0)
        assert apply_policy(np.array([0.0, 0.7, 1.0]), policy).tolist() == [0, 0, 0]

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            min_size=0,
            max_size=5,
            unique=True,
        ),
    )
    def test_monotone(self, values, raw_thresholds):
        thresholds = tuple(sorted(raw_thresholds))
        lo = min([*values, *thresholds, 0.0]) - 1.0
        hi = max([*values, *thresholds, 0.0]) + 1.0
        policy = DiscretizationPolicy(thresholds=thresholds, lower=lo, upper=hi)
        x = np.sort(np.array(values))
        codes = apply_policy(x, policy)
        assert np.all(np.diff(codes) >= 0)

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            min_size=0,
            max_size=5,
            unique=True,
        ),
    )
    def test_membership_identity(self, values, raw_thresholds):
        """Each value lands in the interval its code names."""
        thresholds = tuple(sorted(raw_thresholds))
        lo = min([*values, *thresholds, 0.0]) - 1.0
        hi = max([*values, *thresholds, 0.0]) + 1.0
        policy = DiscretizationPolicy(thresholds=thresholds, lower=lo, upper=hi)
        edges = policy.interval_edges()
        codes = apply_policy(np.array(values), policy)
        for v, k in zip(values, codes):
            assert v <= edges[k + 1]
            if k == 0:
                assert v >= edges[0]
            else:
                assert v > edges[k]


class TestCandidateThresholds:
    def test_midpoints_between_distinct_values(self):
        x = np.array([0.0, 1.0, 9.0, 10.0])
        assert candidate_thresholds(x).tolist() == [0.5, 5.0, 9.5]

    def test_duplicates_collapse(self):
        x = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
        assert candidate_thresholds(x).tolist() == [1.5, 2.5]

    def test_constant_column_has_none(self):
        assert candidate_thresholds(np.array([4.0, 4.0])).size == 0

    def test_adjacent_floats_dropped_when_midpoint_collides(self):
        """A midpoint equal to either neighbor would break the strict chain."""
        a = 1.0
        b = np.nextafter(a, 2.0)
        mids = candidate_thresholds(np.array([a, b]))
        for t in mids:
            assert a < t < b

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_count_matches_distinct_values(self, values):
        x = np.array(values)
        mids = candidate_thresholds(x)
        distinct = len(set(values))
        assert len(mids) <= distinct - 1
        u = np.unique(x)
        for t in mids:
            left = u[u < t]
            right = u[u > t]
            assert len(left) and len(right)

    def test_exact_count_for_well_spaced_values(self):
        x = np.array([3.0, 1.0, 2.0, 1.0, 5.0])
        assert len(candidate_thresholds(x)) == len(set(x.tolist())) - 1

    def test_midpoints_near_the_float64_maximum(self):
        """The sum of two neighbours may overflow where their midpoint does
        not; the midpoints are kept all the same."""
        x = np.array([1e308, 1.5e308, 1.7e308])
        assert candidate_thresholds(x).tolist() == [1.25e308, 1.6e308]


class TestDataset:
    def test_basic_accessors(self):
        ds = mixed_dataset(
            [("c", [0.0, 1.0, 2.0], (0.0, 2.0)), ("d", [0, 1, 0], 2)]
        )
        assert ds.n_cases == 3
        assert ds.n_variables == 2
        assert ds.names == ("x1", "x2")
        assert ds.is_continuous(0) and not ds.is_continuous(1)
        assert ds.continuous_indices() == (0,)
        assert ds.discrete_indices() == (1,)
        assert ds.index_of("x2") == 1

    def test_unknown_name(self):
        ds = continuous_dataset([[1.0], [2.0]])
        with pytest.raises(ValidationError):
            ds.index_of("nope")

    def test_rejects_duplicate_names(self):
        var = VariableMeta(name="a", kind="continuous")
        var2 = VariableMeta(name="a", kind="continuous")
        with pytest.raises(ValidationError):
            Dataset(variables=(var, var2), values=np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        var = VariableMeta(name="a", kind="continuous")
        with pytest.raises(ValidationError):
            Dataset(variables=(var,), values=np.zeros((2, 2)))

    def test_rejects_empty(self):
        var = VariableMeta(name="a", kind="continuous")
        with pytest.raises(ValidationError):
            Dataset(variables=(var,), values=np.zeros((0, 1)))

    def test_rejects_nonfinite(self):
        var = VariableMeta(name="a", kind="continuous")
        with pytest.raises(ValidationError):
            Dataset(variables=(var,), values=np.array([[np.nan]]))

    def test_discrete_values_must_be_integral_codes(self):
        var = VariableMeta(name="a", kind="discrete", arity=2)
        with pytest.raises(ValidationError):
            Dataset(variables=(var,), values=np.array([[0.5]]))
        with pytest.raises(ValidationError):
            Dataset(variables=(var,), values=np.array([[2.0]]))
        with pytest.raises(ValidationError):
            Dataset(variables=(var,), values=np.array([[-1.0]]))

    @pytest.mark.parametrize(
        "column, bounds",
        [([1e308, -1e308, 0.0], None), ([0.0, 1.0], (-1e308, 1e308))],
        ids=["observed", "declared"],
    )
    def test_rejects_a_span_wider_than_float64(self, column, bounds):
        var = VariableMeta(name="a", kind="continuous", bounds=bounds)
        with pytest.raises(ValidationError, match="continuous column 'a' spans"):
            Dataset(variables=(var,), values=np.array(column)[:, None])

    def test_declared_bounds_must_cover_data(self):
        var = VariableMeta(name="a", kind="continuous", bounds=(0.0, 1.0))
        with pytest.raises(ValidationError) as err:
            Dataset(variables=(var,), values=np.array([[0.5], [1.5]]))
        assert "a" in str(err.value)

    def test_policy_bounds_fall_back_to_data_range(self):
        ds = continuous_dataset(np.array([[3.0], [7.0], [5.0]]))
        assert ds.policy_bounds(0) == (3.0, 7.0)

    def test_policy_bounds_prefer_declared(self):
        ds = continuous_dataset(np.array([[3.0], [7.0]]), bounds=[(0.0, 10.0)])
        assert ds.policy_bounds(0) == (0.0, 10.0)

    @pytest.mark.parametrize("tied", [False, True])
    def test_cut_segments_hold_the_fine_code(self, tied):
        rng = np.random.default_rng(23)
        if tied:
            # Rounded to one decimal within declared bounds: most values repeat.
            values = np.round(rng.uniform(0.0, 1.0, (200, 1)), 1)
            ds = continuous_dataset(values, bounds=[(0.0, 1.0)])
        else:
            ds = continuous_dataset(rng.normal(size=(50, 1)))
        cands = ds.candidate_thresholds(0)
        assert (len(cands) <= 10) if tied else (len(cands) == 49)
        positions, fine = ds.cut_segments(0)
        every_cut = DiscretizationPolicy(tuple(cands), *ds.policy_bounds(0))
        assert np.array_equal(fine, apply_policy(ds.column(0), every_cut))
        assert np.array_equal(positions, [0, *np.cumsum(np.bincount(fine))])
        below = [int(np.sum(ds.column(0) < c)) for c in cands]
        assert positions.tolist() == [0, *below, ds.n_cases]
        assert ds.cut_segments(0)[1] is fine

    @pytest.mark.parametrize("kind", ["untied", "tied", "signed zeros"])
    def test_distinct_prefixes_count_the_values_below_each_cut(self, kind):
        rng = np.random.default_rng(29)
        if kind == "untied":
            values = rng.normal(size=60)
        elif kind == "tied":
            values = np.round(rng.uniform(0.0, 1.0, 200), 1)
        else:
            values = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], 100)
        ds = continuous_dataset(values[:, None])
        d_pos, seen = ds.distinct_prefixes(0)
        # -0.0 == 0.0, so sets and counters hold them as one value.
        occurs = Counter(values.tolist())
        below = [
            {v for v in occurs if v < c} for c in ds.candidate_thresholds(0)
        ] + [set(occurs)]
        assert d_pos.tolist() == [0, *map(len, below)]
        assert [(int(c), s.tolist()) for c, s in seen] == [
            (c, [0, *(sum(occurs[v] == c for v in b) for b in below)])
            for c in sorted(set(occurs.values()))
        ]
        # The distinct values and their case counts are built once, frozen.
        distinct, counts = ds.distinct_values(0)
        assert dict(zip(distinct.tolist(), counts.tolist())) == occurs
        assert np.all(np.diff(distinct) > 0)
        assert ds.distinct_values(0)[0] is distinct
        assert not distinct.flags.writeable and not counts.flags.writeable

    def test_candidate_thresholds_cached_per_column(self):
        ds = continuous_dataset(np.array([[0.0], [1.0], [9.0], [10.0]]))
        first = ds.candidate_thresholds(0)
        again = ds.candidate_thresholds(0)
        assert first is again


class TestNetworkPolicy:
    def test_with_policy_replaces_one_entry(self):
        ds = continuous_dataset(np.array([[0.0, 5.0], [1.0, 6.0]]))
        policy = trivial_network_policy(ds)
        new = DiscretizationPolicy(thresholds=(0.5,), lower=0.0, upper=1.0)
        updated = policy.with_policy(0, new)
        assert updated[0] is new
        assert updated[1] is policy[1]
        assert policy[0] is not new

    def test_trivial_policy_shapes(self):
        ds = mixed_dataset([("c", [0.0, 1.0], None), ("d", [0, 1], 2)])
        policy = trivial_network_policy(ds)
        assert not policy[0].trivial
        assert policy[0].arity == 1
        assert policy[1].trivial
        assert policy.arities() == (1, 2)

    def test_validate_network_policy_checks_kind_match(self):
        ds = mixed_dataset([("c", [0.0, 1.0], None), ("d", [0, 1], 2)])
        policy = trivial_network_policy(ds)
        threshold_policy = DiscretizationPolicy(
            thresholds=(0.5,), lower=0.0, upper=1.0
        )
        bad = policy.with_policy(1, threshold_policy)
        with pytest.raises(ValidationError):
            validate_network_policy(bad, ds)

    def test_validate_network_policy_checks_coverage(self):
        ds = continuous_dataset(np.array([[0.0], [5.0]]))
        policy = NetworkPolicy(
            policies=(
                DiscretizationPolicy(thresholds=(1.0,), lower=0.0, upper=2.0),
            )
        )
        with pytest.raises(ValidationError):
            validate_network_policy(policy, ds)

    def test_discretize_all(self):
        ds = mixed_dataset(
            [("c", [0.0, 0.6, 1.0], (0.0, 1.0)), ("d", [2, 0, 1], 3)]
        )
        policy = trivial_network_policy(ds).with_policy(
            0, DiscretizationPolicy(thresholds=(0.5,), lower=0.0, upper=1.0)
        )
        codes = discretize_all(ds, policy)
        assert codes.dtype == np.int64
        assert codes.tolist() == [[0, 2], [1, 0], [1, 1]]


class TestLoadDataset:
    def test_round_trip_with_inference(self):
        text = "a,b\n0,1.5\n1,2.5\n0,3.5\n"
        ds = load_dataset(io.StringIO(text))
        assert ds.names == ("a", "b")
        assert ds.variables[0].kind == "discrete"
        assert ds.variables[0].arity == 2
        assert ds.variables[1].kind == "continuous"

    def test_integer_inference_uses_max_plus_one(self):
        ds = load_dataset(io.StringIO("a\n0\n3\n1\n"))
        assert ds.variables[0].arity == 4

    def test_constant_integer_column_gets_minimum_arity(self):
        ds = load_dataset(io.StringIO("a\n0\n0\n"))
        assert ds.variables[0].kind == "discrete"
        assert ds.variables[0].arity == 2

    def test_many_distinct_integers_stay_continuous(self):
        rows = "\n".join(str(i) for i in range(20))
        ds = load_dataset(io.StringIO("a\n" + rows + "\n"))
        assert ds.variables[0].kind == "continuous"

    def test_integers_past_the_inferred_arity_cap_stay_continuous(self):
        ds = load_dataset(io.StringIO("a,b,c\n0,0,0\n3,14,15\n20000,1,1\n"))
        assert [meta.kind for meta in ds.variables] == [
            "continuous", "discrete", "continuous"
        ]
        assert ds.variables[1].arity == 15

    def test_negative_integers_stay_continuous(self):
        ds = load_dataset(io.StringIO("a\n-1\n0\n1\n"))
        assert ds.variables[0].kind == "continuous"

    def test_schema_overrides_inference(self):
        schema = [
            VariableMeta(name="a", kind="continuous"),
        ]
        ds = load_dataset(io.StringIO("a\n0\n1\n"), schema)
        assert ds.variables[0].kind == "continuous"

    def test_schema_name_mismatch(self):
        schema = [VariableMeta(name="z", kind="continuous")]
        with pytest.raises(ValidationError):
            load_dataset(io.StringIO("a\n0\n1\n"), schema)

    def test_bad_cell_names_row_and_column(self):
        with pytest.raises(ValidationError) as err:
            load_dataset(io.StringIO("a,b\n1,2\n1,oops\n"))
        message = str(err.value)
        assert "b" in message and "2" in message

    def test_empty_cell_rejected(self):
        with pytest.raises(ValidationError):
            load_dataset(io.StringIO("a,b\n1,\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ValidationError):
            load_dataset(io.StringIO("a,b\n1,2\n3\n"))

    def test_no_data_rows_rejected(self):
        with pytest.raises(ValidationError):
            load_dataset(io.StringIO("a,b\n"))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            load_dataset(io.StringIO("a\ninf\n"))


BOM = "\ufeff"
# The zero of three non-ASCII decimal digit runs: Arabic-Indic, Devanagari
# and fullwidth.
DIGIT_ZEROS = ("\u0660", "\u0966", "\uff10")


@st.composite
def number_cells(draw):
    """A CSV cell that ``float`` reads as a finite number: a plain decimal,
    an exponent, a signed zero, digits grouped by ``_`` or non-ASCII
    digits, signed or not, maybe padded with whitespace and quoted."""
    kind = draw(st.sampled_from(["decimal", "exponent", "zero", "underscore", "script"]))
    if kind == "decimal":
        whole, frac = draw(st.integers(0, 10**6)), draw(st.integers(0, 999))
        body = draw(st.sampled_from([f"{whole}", f"{whole}.{frac}", f".{frac}", f"{whole}."]))
    elif kind == "exponent":
        mark = draw(st.sampled_from("eE"))
        body = f"{draw(st.integers(1, 999))}.{draw(st.integers(0, 99))}{mark}"
        body += str(draw(st.integers(-20, 20)))
    elif kind == "zero":
        body = draw(st.sampled_from(["0", "0.0", "0e0", "00"]))
    elif kind == "underscore":
        body = f"{draw(st.integers(1, 99))}_{draw(st.integers(0, 99))}"
    else:
        zero = ord(draw(st.sampled_from(DIGIT_ZEROS)))
        body = "".join(chr(zero + int(d)) for d in str(draw(st.integers(0, 10**4))))
    pad = st.sampled_from(["", " ", "  ", "\t", "\xa0"])
    cell = draw(pad) + draw(st.sampled_from(["", "-", "+"])) + body + draw(pad)
    return f'"{cell}"' if draw(st.booleans()) else cell


@st.composite
def cell_grids(draw, min_rows=1, min_cols=1):
    n_cols = draw(st.integers(min_cols, 4))
    n_rows = draw(st.integers(min_rows, 6))
    return [[draw(number_cells()) for _ in range(n_cols)] for _ in range(n_rows)]


def render_csv(draw, grid, width):
    """The UTF-8 bytes of ``grid`` under a header of ``width`` names, with
    blank and whitespace-only lines between rows and LF or CRLF line
    ends."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(f"c{j}" for j in range(width))]
    for row in grid:
        lines += draw(st.lists(st.sampled_from(["", " "]), max_size=2))
        lines.append(",".join(row))
    return (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()


def assert_same_error(source):
    """``load_dataset`` raises the message the cell-by-cell parse raises;
    returns it."""
    with pytest.raises(ValidationError) as want:
        reference_csv_values(source)
    with pytest.raises(ValidationError) as got:
        load_dataset(source)
    assert str(got.value) == str(want.value)
    return str(want.value)


class TestLoaderMatchesTheCellParse:
    """``load_dataset`` converts every cell in one call; it reads each table
    as :func:`reference_csv_values` does, cell by cell, and raises its
    message for the first bad cell."""

    @given(data=st.data())
    def test_values_and_signs(self, data):
        grid = data.draw(cell_grids())
        source = render_csv(data.draw, grid, len(grid[0]))
        expected = reference_csv_values(source)
        slow = mock.patch.object(
            dataset_module, "_parse_cells", side_effect=AssertionError("cell loop")
        )
        with slow:
            values = load_dataset(source).values
        assert np.array_equal(values, expected)
        assert np.array_equal(np.signbit(values), np.signbit(expected))

    @given(data=st.data())
    def test_ragged_row(self, data):
        grid = data.draw(cell_grids())
        width = len(grid[0])
        k = data.draw(st.integers(0, len(grid) - 1))
        if len(grid[k]) > 1 and data.draw(st.booleans()):
            grid[k] = grid[k][:-1]
        else:
            grid[k] = grid[k] + ["1"]
        source = render_csv(data.draw, grid, width)
        assert "fields, expected" in assert_same_error(source)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (st.sampled_from(["", " ", '""', "\t"]), "missing value"),
            (st.sampled_from(["abc", "1__0", "0x10", "1e", "--1", "_1"]), "non-numeric"),
            (st.sampled_from(["nan", "inf", "-Infinity", " NaN ", "1e999"]), "non-finite"),
        ],
        ids=["empty", "non-numeric", "non-finite"],
    )
    @given(data=st.data())
    def test_bad_cell(self, data, bad, message):
        # One empty cell alone on its row would make a blank row.
        grid = data.draw(cell_grids(min_cols=2))
        k = data.draw(st.integers(0, len(grid) - 1))
        j = data.draw(st.integers(0, len(grid[k]) - 1))
        grid[k][j] = data.draw(bad)
        assert message in assert_same_error(render_csv(data.draw, grid, len(grid[0])))

    @given(data=st.data())
    def test_non_finite_before_non_numeric(self, data):
        """A row order that the one-call conversion does not follow: it
        rejects the later non-numeric cell, and the message names the
        earlier non-finite one."""
        grid = data.draw(cell_grids(min_rows=2))
        k = data.draw(st.integers(0, len(grid) - 2))
        grid[k][0] = "inf"
        grid[data.draw(st.integers(k + 1, len(grid) - 1))][-1] = "abc"
        source = render_csv(data.draw, grid, len(grid[0]))
        assert "non-finite value 'inf'" in assert_same_error(source)


class TestByteOrderMark:
    CSV = "a,b\n0,0.5\n1,1.5\n0,2.5\n"
    SCHEMA = json.dumps([
        {"name": "a", "kind": "discrete", "arity": 2},
        {"name": "b", "kind": "continuous"},
    ])

    @pytest.mark.parametrize("given_as", ["path", "bytes"])
    def test_csv_and_schema_load_without_it(self, tmp_path, given_as):
        sources = []
        for name, text in (("data.csv", self.CSV), ("schema.json", self.SCHEMA)):
            raw = (BOM + text).encode("utf-8")
            if given_as == "path":
                (tmp_path / name).write_bytes(raw)
                sources.append(tmp_path / name)
            else:
                sources.append(raw)
        data, schema = sources
        metas = load_schema(schema)
        assert [m.name for m in metas] == ["a", "b"]
        assert load_dataset(data, metas).names == ("a", "b")
        assert load_dataset(data).names == ("a", "b")

    def test_stream(self):
        assert load_dataset(io.StringIO(BOM + self.CSV)).names == ("a", "b")

    def test_only_one_is_dropped(self):
        assert read_text((2 * BOM + "x").encode("utf-8"), "data") == BOM + "x"
        assert read_text(io.StringIO("x" + BOM), "data") == "x" + BOM


def test_a_mixed_wide_table_skips_the_cell_loop(tmp_path, monkeypatch):
    """A table shaped like the benchmark's wide mixed one (30 columns, the
    even-numbered ones codes of arity 3, the others one-decimal reals in
    [0, 1]) loads with its schema without the cell-by-cell parse."""
    rng = np.random.default_rng(3)
    n_cols, n_rows = 30, 300
    names = [f"x{j + 1}" for j in range(n_cols)]
    schema = [
        {"name": name, "kind": "discrete", "arity": 3} if j % 2
        else {"name": name, "kind": "continuous", "bounds": [0.0, 1.0]}
        for j, name in enumerate(names)
    ]
    lines = [",".join(names)]
    for _ in range(n_rows):
        lines.append(",".join(
            str(int(rng.integers(3))) if j % 2 else repr(round(float(rng.random()), 1))
            for j in range(n_cols)
        ))
    data = tmp_path / "input.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "input.schema.json").write_text(json.dumps(schema), encoding="utf-8")
    monkeypatch.setattr(
        dataset_module, "_parse_cells", mock.Mock(side_effect=AssertionError("cell loop"))
    )
    ds = load_dataset(data, load_schema(tmp_path / "input.schema.json"))
    assert ds.values.shape == (n_rows, n_cols)
    assert np.array_equal(ds.values, reference_csv_values(data))


class TestLoadSchema:
    def test_round_trip(self):
        text = json.dumps(
            [
                {"name": "a", "kind": "discrete", "arity": 3},
                {"name": "b", "kind": "continuous", "bounds": [0.0, 1.0]},
                {"name": "c", "kind": "continuous"},
            ]
        )
        schema = load_schema(io.StringIO(text))
        assert [v.name for v in schema] == ["a", "b", "c"]
        assert schema[0].arity == 3
        assert schema[1].bounds == (0.0, 1.0)
        assert schema[2].bounds is None

    def test_rejects_unknown_fields(self):
        text = json.dumps([{"name": "a", "kind": "discrete", "arity": 2, "x": 1}])
        with pytest.raises(ValidationError):
            load_schema(io.StringIO(text))

    def test_rejects_non_list(self):
        with pytest.raises(ValidationError):
            load_schema(io.StringIO("{}"))

    def test_rejects_bad_json(self):
        with pytest.raises(ValidationError):
            load_schema(io.StringIO("not json"))


class TestPolicyJson:
    def test_round_trip(self):
        ds = mixed_dataset(
            [("c", [0.0, 0.6, 1.0], (0.0, 1.0)), ("d", [0, 1, 2], 3)]
        )
        policy = trivial_network_policy(ds).with_policy(
            0, DiscretizationPolicy(thresholds=(0.5,), lower=0.0, upper=1.0)
        )
        obj = policy_to_obj(policy, ds.names)
        assert obj["schema_version"] == 1
        back = policy_from_obj(obj, ds)
        assert back[0].thresholds == (0.5,)
        assert back[1].trivial and back[1].arity == 3

    def test_missing_variable_rejected(self):
        ds = continuous_dataset(np.array([[0.0], [1.0]]))
        with pytest.raises(ValidationError):
            policy_from_obj({"schema_version": 1, "variables": {}}, ds)

    def test_json_values_are_plain_python(self):
        ds = continuous_dataset(np.array([[0.0], [1.0]]))
        policy = trivial_network_policy(ds)
        json.dumps(policy_to_obj(policy, ds.names))
