"""Columnar mixed-type datasets and interval threshold policies.

A dataset is a complete rectangular table whose columns are either discrete
(non-negative integer codes with a declared arity) or continuous reals.
Continuous columns can be reduced to integer codes through a
:class:`DiscretizationPolicy`, a strictly increasing threshold sequence with
explicit outer bounds.  Values map to the index of the first threshold at or
above them, so interval k is open below and closed above, and the first
interval is closed at the lower bound.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import KW_ONLY, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

CONTINUOUS = "continuous"
DISCRETE = "discrete"
SCHEMA_VERSION = 1

# Inference only: when no schema is given, integer-valued columns with
# values in [0, INFER_MAX_DISTINCT) load as discrete, so an inferred arity
# is at most this.
INFER_MAX_DISTINCT = 15


class ValidationError(ValueError):
    """Input data, schema, policy, or configuration failed validation."""


class InternalError(AssertionError):
    """An internal invariant was violated; indicates a bug, not bad input."""


@dataclass(frozen=True)
class VariableMeta:
    """Declared type of one column.

    Discrete variables carry an arity and their values are integer codes in
    ``[0, arity)``.  Continuous variables may carry declared domain bounds;
    absent bounds, the observed min and max delimit the domain.
    """

    name: str
    kind: str
    _: KW_ONLY
    arity: int | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("variable name must be non-empty")
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise ValidationError(
                f"variable {self.name!r}: kind must be "
                f"{CONTINUOUS!r} or {DISCRETE!r}, got {self.kind!r}"
            )
        if self.kind == DISCRETE:
            arity = self.arity
            integral = isinstance(arity, (int, np.integer)) and not isinstance(arity, bool)
            if not integral or arity < 2:
                raise ValidationError(
                    f"discrete variable {self.name!r} needs an integer arity of "
                    f"at least 2, got {arity!r}"
                )
            if self.bounds is not None:
                raise ValidationError(
                    f"discrete variable {self.name!r} cannot declare bounds"
                )
        else:
            if self.arity is not None:
                raise ValidationError(
                    f"continuous variable {self.name!r} cannot declare an arity"
                )
            if self.bounds is not None:
                lo, hi = self.bounds
                if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                    raise ValidationError(
                        f"variable {self.name!r}: bounds must be finite with "
                        f"lower < upper, got {self.bounds}"
                    )


@dataclass(frozen=True)
class DiscretizationPolicy:
    """Strictly increasing thresholds plus outer bounds for one variable.

    A policy with ``r - 1`` thresholds maps reals to ``r`` codes.  Discrete
    variables carry the identity policy, flagged ``trivial``, whose code count
    equals the variable arity.
    """

    thresholds: tuple[float, ...]
    lower: float
    upper: float
    trivial: bool = False
    trivial_arity: int | None = None

    def __post_init__(self) -> None:
        if self.trivial:
            if self.thresholds:
                raise ValidationError("identity policy cannot carry thresholds")
            if self.trivial_arity is None or self.trivial_arity < 2:
                raise ValidationError("identity policy needs an arity of at least 2")
            return
        if self.trivial_arity is not None:
            raise ValidationError("non-identity policy cannot carry a fixed arity")
        seq = (self.lower, *self.thresholds, self.upper)
        if not all(np.isfinite(v) for v in seq):
            raise ValidationError("policy thresholds and bounds must be finite")
        if self.thresholds:
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValidationError(
                    "thresholds must be strictly increasing and lie strictly "
                    f"between the bounds, got {list(self.thresholds)} within "
                    f"[{self.lower}, {self.upper}]"
                )
        elif self.lower > self.upper:
            raise ValidationError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @classmethod
    def identity(cls, arity: int) -> "DiscretizationPolicy":
        """Identity policy for a discrete variable of the given arity."""
        return cls((), 0.0, float(arity - 1), trivial=True, trivial_arity=arity)

    @property
    def arity(self) -> int:
        """Number of codes the policy produces."""
        if self.trivial:
            assert self.trivial_arity is not None
            return self.trivial_arity
        return len(self.thresholds) + 1

    def interval_edges(self) -> np.ndarray:
        """Interval boundaries: lower bound, thresholds, upper bound."""
        if self.trivial:
            raise ValidationError("identity policy has no interval edges")
        return np.asarray((self.lower, *self.thresholds, self.upper))


def apply_policy(column: np.ndarray, policy: DiscretizationPolicy) -> np.ndarray:
    """Map a continuous column to integer codes under a policy.

    A value equal to a threshold falls in the lower interval.  Values outside
    the policy bounds are rejected.  For the identity policy the column is
    already coded and is returned as integers.
    """
    values = np.asarray(column, dtype=np.float64)
    if policy.trivial:
        return values.astype(np.int64)
    lo, hi = policy.lower, policy.upper
    if values.min(initial=lo) < lo or values.max(initial=hi) > hi:
        offender = float(values[(values < lo) | (values > hi)][0])
        raise ValidationError(
            f"value {offender!r} lies outside policy bounds [{lo}, {hi}]"
        )
    return np.searchsorted(
        np.asarray(policy.thresholds), values, side="left"
    ).astype(np.int64, copy=False)


def candidate_thresholds(column: np.ndarray) -> np.ndarray:
    """Midpoints between adjacent distinct values of a continuous column.

    These are the only cut points worth considering: any threshold between
    the same pair of data values induces the same partition of the sample.
    A constant column has no candidates.
    """
    u = np.unique(np.asarray(column, dtype=np.float64))
    # Halving first cannot overflow, and halving a normal float is exact,
    # so each midpoint rounds as the halved sum would.
    mids = 0.5 * u[:-1] + 0.5 * u[1:]
    # Guard against adjacent representables collapsing onto an endpoint.
    keep = (mids > u[:-1]) & (mids < u[1:])
    return mids[keep]


@dataclass(frozen=True)
class NetworkPolicy:
    """One policy per variable, indexed by column."""

    policies: tuple[DiscretizationPolicy, ...]

    def __len__(self) -> int:
        return len(self.policies)

    def __getitem__(self, i: int) -> DiscretizationPolicy:
        return self.policies[i]

    def __iter__(self):
        return iter(self.policies)

    def with_policy(self, i: int, policy: DiscretizationPolicy) -> "NetworkPolicy":
        """Copy with the policy of variable ``i`` replaced."""
        items = list(self.policies)
        items[i] = policy
        return NetworkPolicy(tuple(items))

    def arities(self) -> tuple[int, ...]:
        return tuple(p.arity for p in self.policies)


def _freeze(value) -> None:
    """Make every array in ``value``, nested tuples included, read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


class Dataset:
    """Immutable table of complete cases over typed columns, stored
    column-major so that reading a column is a contiguous read.

    Continuous columns cache their candidate thresholds, each case's fine
    code under those cuts, their distinct values with their case counts,
    and how many cases and distinct values fall below each cut
    (:meth:`distinct_prefixes`): column-only inputs that every policy solve
    or emission score of the column reads again.
    """

    def __init__(self, variables: Sequence[VariableMeta], values: np.ndarray):
        metas = tuple(variables)
        data = np.array(values, dtype=np.float64, order="F")
        if data.ndim != 2:
            raise ValidationError(f"values must be 2-dimensional, got shape {data.shape}")
        n_cases, n_vars = data.shape
        if n_cases < 1:
            raise ValidationError("dataset needs at least one case")
        if n_vars != len(metas):
            raise ValidationError(
                f"{len(metas)} variables declared but values have {n_vars} columns"
            )
        seen: set[str] = set()
        for idx, meta in enumerate(metas):
            if meta.name in seen:
                raise ValidationError(f"duplicate variable name {meta.name!r}")
            seen.add(meta.name)
            col = data[:, idx]
            if not np.isfinite(col).all():
                raise ValidationError(
                    f"column {meta.name!r} contains non-finite values"
                )
            if meta.kind == DISCRETE:
                if not (col == np.floor(col)).all():
                    raise ValidationError(
                        f"discrete column {meta.name!r} contains non-integer values"
                    )
                if col.min() < 0 or col.max() >= meta.arity:
                    raise ValidationError(
                        f"discrete column {meta.name!r} has codes outside "
                        f"[0, {meta.arity})"
                    )
            else:
                lo, hi = meta.bounds or (col.min(), col.max())
                if col.min() < lo or col.max() > hi:
                    raise ValidationError(
                        f"column {meta.name!r} has values outside its declared "
                        f"bounds [{lo}, {hi}]"
                    )
                if not math.isfinite(float(hi) - float(lo)):
                    raise ValidationError(
                        f"continuous column {meta.name!r} spans [{lo}, {hi}], "
                        "wider than a float64 can hold; rescale it"
                    )
        data.setflags(write=False)
        self.variables = metas
        self.values = data
        self.n_cases = n_cases
        self.n_variables = n_vars
        self.names = tuple(m.name for m in metas)
        self._index = {m.name: i for i, m in enumerate(metas)}
        self._memos: dict[tuple[str, int], np.ndarray | tuple] = {}

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def is_continuous(self, i: int) -> bool:
        return self.variables[i].kind == CONTINUOUS

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]

    def _memo(self, kind: str, i: int, build):
        """Value ``kind`` of column ``i``, built once; its arrays are frozen."""
        key = (kind, i)
        value = self._memos.get(key)
        if value is None:
            value = self._memos[key] = build()
            _freeze(value)
        return value

    def candidate_thresholds(self, i: int) -> np.ndarray:
        """Candidate cut points of continuous column ``i``."""
        if not self.is_continuous(i):
            raise ValidationError(
                f"variable {self.names[i]!r} is discrete and has no candidate thresholds"
            )
        return self._memo(
            "candidates", i, lambda: candidate_thresholds(self.values[:, i])
        )

    def cut_segments(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Where the M candidate cuts of continuous column ``i`` fall: the
        number of cases below each cut, framed by 0 and N, and in case order
        each case's fine code, its interval under the policy of every cut;
        the positions are the fine code's cumulated counts."""

        def build():
            cands = self.candidate_thresholds(i)
            fine = np.searchsorted(cands, self.values[:, i], side="left")
            counts = np.bincount(fine, minlength=len(cands) + 1)
            return np.concatenate(([0], np.cumsum(counts))), fine

        return self._memo("cut_segments", i, build)

    def distinct_values(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values of column ``i``, ascending, and how many
        cases hold each."""
        return self._memo(
            "distinct_values", i,
            lambda: np.unique(self.values[:, i], return_counts=True),
        )

    def distinct_prefixes(
        self, i: int
    ) -> tuple[np.ndarray, tuple[tuple[int, np.ndarray], ...]]:
        """Counts of distinct values of continuous column ``i`` before each
        cut, and per occurrence count ``c`` the distinct values seen ``c``
        times before each cut."""

        def build():
            sorted_vals = np.sort(self.values[:, i])
            distinct, occ = self.distinct_values(i)
            row_distinct = np.searchsorted(distinct, sorted_vals)
            d_pos = np.append(row_distinct, len(distinct))[self.cut_segments(i)[0]]
            seen = tuple(
                (c, np.concatenate(([0], np.cumsum(occ == c)))[d_pos])
                for c in np.unique(occ)
            )
            return d_pos, seen

        return self._memo("distinct_prefixes", i, build)

    def policy_bounds(self, i: int) -> tuple[float, float]:
        """Outer interval bounds for column ``i``: declared, else observed."""
        meta = self.variables[i]
        if meta.kind != CONTINUOUS:
            raise ValidationError(f"variable {meta.name!r} is discrete")
        if meta.bounds is not None:
            return meta.bounds
        col = self.values[:, i]
        return float(col.min()), float(col.max())

    def discrete_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_variables) if not self.is_continuous(i))

    def continuous_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_variables) if self.is_continuous(i))


def trivial_network_policy(dataset: Dataset) -> NetworkPolicy:
    """Identity policies for discrete variables, single-interval elsewhere."""
    out = []
    for i, meta in enumerate(dataset.variables):
        if meta.kind == DISCRETE:
            out.append(DiscretizationPolicy.identity(meta.arity))
        else:
            lo, hi = dataset.policy_bounds(i)
            out.append(DiscretizationPolicy((), lo, hi))
    return NetworkPolicy(tuple(out))


def validate_network_policy(policy: NetworkPolicy, dataset: Dataset) -> None:
    """Check a policy assignment is total and type-consistent for a dataset."""
    if len(policy) != dataset.n_variables:
        raise ValidationError(
            f"policy covers {len(policy)} variables, dataset has {dataset.n_variables}"
        )
    for i, meta in enumerate(dataset.variables):
        pol = policy[i]
        if meta.kind == DISCRETE:
            if not pol.trivial:
                raise ValidationError(
                    f"variable {meta.name!r} is discrete and needs the identity policy"
                )
            if pol.arity != meta.arity:
                raise ValidationError(
                    f"variable {meta.name!r}: policy arity {pol.arity} does not "
                    f"match declared arity {meta.arity}"
                )
        else:
            if pol.trivial:
                raise ValidationError(
                    f"variable {meta.name!r} is continuous and cannot use the "
                    "identity policy"
                )
            col = dataset.column(i)
            if col.min() < pol.lower or col.max() > pol.upper:
                raise ValidationError(
                    f"variable {meta.name!r}: data exceeds policy bounds "
                    f"[{pol.lower}, {pol.upper}]"
                )


def discretize_all(dataset: Dataset, policy: NetworkPolicy) -> np.ndarray:
    """Code matrix for every column under a total policy assignment."""
    if len(policy) != dataset.n_variables:
        raise ValidationError(
            f"policy covers {len(policy)} variables, dataset has {dataset.n_variables}"
        )
    codes = np.empty((dataset.n_cases, dataset.n_variables), dtype=np.int64)
    for i in range(dataset.n_variables):
        codes[:, i] = apply_policy(dataset.column(i), policy[i])
    return codes


def read_text(source, what: str) -> str:
    """The text of ``source``, a path, UTF-8 bytes or a text stream, less
    one leading byte-order mark; input that is not UTF-8 raises
    ValidationError naming it as ``what``."""
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        elif isinstance(source, bytes):
            text = source.decode("utf-8")
        else:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} is not UTF-8 text: {exc}") from None
    return text.removeprefix("\ufeff")


def read_json(source, what: str):
    """The JSON value held by ``source``, read by :func:`read_text`; input
    that is not JSON raises ValidationError naming it as ``what``."""
    try:
        return json.loads(read_text(source, what))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def _infer_meta(name: str, col: np.ndarray) -> VariableMeta:
    integral = bool((col == np.floor(col)).all())
    if integral and col.min() >= 0 and col.max() < INFER_MAX_DISTINCT:
        arity = max(int(col.max()) + 1, 2)
        return VariableMeta(name, DISCRETE, arity=arity)
    return VariableMeta(name, CONTINUOUS)


def _parse_cells(
    names: Sequence[str], rows: Sequence[tuple[int, list[str]]]
) -> np.ndarray:
    """The values of numbered data rows, parsed one cell at a time; the
    first bad cell in row order raises ValidationError naming it."""
    parsed_rows = []
    for row_num, row in rows:
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
        parsed_rows.append(parsed)
    return np.asarray(parsed_rows, dtype=np.float64)


def load_dataset(source, schema: Sequence[VariableMeta] | None = None) -> Dataset:
    """Parse a CSV table with a header row into a :class:`Dataset`.

    ``source`` is a path, bytes, or a text stream.  Blank rows are skipped
    but counted in the data row numbers that errors name.  Every cell is
    converted by one numpy call, which parses a cell as ``float`` does;
    only a table it rejects (a ragged row, an empty or non-numeric cell, a
    non-finite value) is parsed again cell by cell, to name its first bad
    cell in row order.  With no schema, column types are inferred:
    integer-valued columns whose values all lie in ``[0,
    INFER_MAX_DISTINCT)`` become discrete with arity ``max + 1``;
    everything else is continuous, however few distinct values it has.
    With a schema, entries are matched to header names and must cover them
    exactly.
    """
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

    rows = [
        (row_num, row)
        for row_num, row in enumerate(reader, start=1)
        if row and (len(row) > 1 or row[0].strip())
    ]
    if not rows:
        raise ValidationError("dataset needs at least one case")
    try:
        values = np.array([row for _, row in rows], dtype=np.float64)
        converted = values.shape[1] == len(names) and np.isfinite(values).all()
    except ValueError:
        converted = False
    if not converted:
        values = _parse_cells(names, rows)

    if schema is None:
        metas = [_infer_meta(n, values[:, i]) for i, n in enumerate(names)]
    else:
        by_name = {m.name: m for m in schema}
        if len(by_name) != len(schema):
            raise ValidationError("schema contains duplicate variable names")
        missing = [n for n in names if n not in by_name]
        extra = [m.name for m in schema if m.name not in names]
        if missing or extra:
            raise ValidationError(
                f"schema does not match header: missing {missing}, extra {extra}"
            )
        metas = [by_name[n] for n in names]
    return Dataset(metas, values)


def load_schema(source) -> list[VariableMeta]:
    """Parse a JSON schema: a list of {name, kind, arity?, bounds?} objects."""
    payload = read_json(source, "schema")
    if not isinstance(payload, list):
        raise ValidationError("schema must be a JSON list of variable objects")
    metas = []
    for pos, entry in enumerate(payload):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise ValidationError(
                f"schema entry {pos} must be an object with 'name' and 'kind'"
            )
        unknown = set(entry) - {"name", "kind", "arity", "bounds"}
        if unknown:
            raise ValidationError(
                f"schema entry {pos}: unknown fields {sorted(unknown)}"
            )
        bounds = entry.get("bounds")
        if bounds is not None and not (isinstance(bounds, list) and len(bounds) == 2):
            raise ValidationError(
                f"schema entry {pos}: bounds must be a [lower, upper] pair"
            )
        try:
            if bounds is not None:
                bounds = (float(bounds[0]), float(bounds[1]))
            metas.append(
                VariableMeta(
                    str(entry["name"]),
                    str(entry["kind"]),
                    arity=entry.get("arity"),
                    bounds=bounds,
                )
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"schema entry {pos} is malformed: {exc}") from None
    return metas


def schema_to_obj(variables: Iterable[VariableMeta]) -> list[dict]:
    """JSON-ready form of a variable list, inverse of :func:`load_schema`."""
    out = []
    for m in variables:
        entry: dict = {"name": m.name, "kind": m.kind}
        if m.arity is not None:
            entry["arity"] = m.arity
        if m.bounds is not None:
            entry["bounds"] = [m.bounds[0], m.bounds[1]]
        out.append(entry)
    return out


def policy_to_obj(policy: NetworkPolicy, names: Sequence[str]) -> dict:
    """JSON-ready form of a network policy keyed by variable name."""
    variables = {}
    for name, pol in zip(names, policy):
        variables[name] = {
            "thresholds": [float(t) for t in pol.thresholds],
            "bounds": [float(pol.lower), float(pol.upper)],
            "trivial": bool(pol.trivial),
        }
    return {"schema_version": SCHEMA_VERSION, "variables": variables}


def _policy_entry(meta: VariableMeta, entry: dict) -> DiscretizationPolicy:
    if entry.get("trivial", False):
        if meta.kind != DISCRETE:
            raise ValidationError(
                f"variable {meta.name!r} is continuous but the policy "
                "marks it trivial"
            )
        return DiscretizationPolicy.identity(meta.arity)
    if meta.kind == DISCRETE:
        raise ValidationError(
            f"variable {meta.name!r} is discrete but the policy gives thresholds"
        )
    thresholds = entry.get("thresholds", [])
    bounds = entry.get("bounds")
    if bounds is None or len(bounds) != 2:
        raise ValidationError(
            f"variable {meta.name!r}: policy needs [lower, upper] bounds"
        )
    return DiscretizationPolicy(
        tuple(float(t) for t in thresholds), float(bounds[0]), float(bounds[1])
    )


def policy_from_obj(payload: dict, dataset: Dataset) -> NetworkPolicy:
    """Rebuild a network policy from its JSON form, typed against a dataset."""
    if not isinstance(payload, dict) or "variables" not in payload:
        raise ValidationError("policy JSON must be an object with 'variables'")
    table = payload["variables"]
    if not isinstance(table, dict):
        raise ValidationError("policy 'variables' must map names to policies")
    policies = []
    for meta in dataset.variables:
        entry = table.get(meta.name)
        if entry is None:
            raise ValidationError(f"policy JSON is missing variable {meta.name!r}")
        try:
            policies.append(_policy_entry(meta, entry))
        except ValidationError:
            raise
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"policy variable {meta.name!r} is malformed: {exc}"
            ) from None
    policy = NetworkPolicy(tuple(policies))
    validate_network_policy(policy, dataset)
    return policy
