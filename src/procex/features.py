"""Feature schema, trace encoding, and standardization.

The feature space of a process is fixed by its definition: first one numeric
feature per declared attribute, then one binary indicator per activity, both
blocks sorted lexicographically by name. Feature vectors are plain float64
arrays aligned to that order. A short content hash of the schema travels with
serialized models so mismatched artifacts fail loudly instead of silently.

There is one encoder, ``_encode``: it maps each of a log's distinct paths to
one indicator row, takes that row per case, and copies the attribute columns
in. ``encode_log`` runs it on a whole log and ``encode_trace`` is its one-row
view, as ``split_vector`` is of ``split_columns``. There is one judge of the
feature rows every public step takes, :meth:`FeatureSchema.check_rows`.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyLogError, SchemaMismatchError
from .process_model import ProcessDefinition
from .simulation import EventLog

__all__ = [
    "Feature",
    "FeatureSchema",
    "Scaler",
    "build_schema",
    "encode_trace",
    "encode_log",
    "split_vector",
    "split_columns",
    "scaler_from_matrix",
]

NUMERIC = "numeric"
BINARY = "binary"

_STD_FLOOR = 1e-12

_ROWS = {1: "vector", 2: "matrix"}


def _cell_problem(value: object) -> str:
    """What keeps one cell of a non-numeric array from being a float, or ''."""
    if not isinstance(value, numbers.Real):  # a complex number too
        return "non-real value(s)"
    try:
        float(value)
    except OverflowError:
        return "integer(s) past the float range"
    return ""


@dataclass(frozen=True)
class Feature:
    """One schema slot; numeric features carry the declared value bounds."""

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None


@dataclass(frozen=True)
class FeatureSchema:
    """Features in canonical order: every numeric one before every binary one."""

    process_name: str
    features: tuple[Feature, ...]

    def __post_init__(self) -> None:
        kinds = [f.kind for f in self.features]
        n_numeric = kinds.count(NUMERIC)
        if kinds != [NUMERIC] * n_numeric + [BINARY] * (len(kinds) - n_numeric):
            raise SchemaMismatchError(
                f"schema features must be numeric ones, then binary ones; got {kinds}"
            )

    @property
    def arity(self) -> int:
        return len(self.features)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {f.name: i for i, f in enumerate(self.features)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaMismatchError(f"schema has no feature {name!r}") from None

    @cached_property
    def numeric_indices(self) -> np.ndarray:
        return np.array(
            [i for i, f in enumerate(self.features) if f.kind == NUMERIC], dtype=int
        )

    @cached_property
    def numeric_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The numeric features' lower and upper bounds as two ``(m, 1)``
        columns, -inf and inf where a bound is absent."""
        numeric = self.features[: len(self.numeric_indices)]
        lower = [-np.inf if f.lower is None else f.lower for f in numeric]
        upper = [np.inf if f.upper is None else f.upper for f in numeric]
        return np.array(lower).reshape(-1, 1), np.array(upper).reshape(-1, 1)

    @cached_property
    def binary_indices(self) -> np.ndarray:
        return np.array(
            [i for i, f in enumerate(self.features) if f.kind == BINARY], dtype=int
        )

    @cached_property
    def schema_hash(self) -> str:
        payload = json.dumps(
            {
                "process": self.process_name,
                "features": [
                    [f.name, f.kind, f.lower, f.upper] for f in self.features
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_json_dict(self) -> dict:
        return {
            "process": self.process_name,
            "hash": self.schema_hash,
            "features": [
                {"name": f.name, "kind": f.kind, "lower": f.lower, "upper": f.upper}
                for f in self.features
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "FeatureSchema":
        return FeatureSchema(
            process_name=data["process"],
            features=tuple(
                Feature(f["name"], f["kind"], f["lower"], f["upper"])
                for f in data["features"]
            ),
        )

    @cached_property
    def _definition_signature(self) -> tuple | None:
        """``(process name, (name, lower, upper) per attribute, activity
        names)`` of the definitions :func:`build_schema` maps to this
        schema; None if none does, as an indicator with bounds."""
        m = len(self.numeric_indices)
        if any(f.lower is not None or f.upper is not None for f in self.features[m:]):
            return None
        attributes = tuple((f.name, f.lower, f.upper) for f in self.features[:m])
        return self.process_name, attributes, self.names[m:]

    def check_definition(self, defn: ProcessDefinition) -> None:
        """Refuse a definition that implies another schema than this one:
        ``build_schema(defn) != self``, judged on the definition's name,
        attributes with bounds and activities, without building a schema."""
        bounds = defn.attribute_bounds
        attributes = tuple((name, *bounds[name]) for name in defn.attribute_names)
        if (defn.name, attributes, defn.activity_names) != self._definition_signature:
            expected = build_schema(defn)
            raise SchemaMismatchError(
                f"model was trained for schema {self.schema_hash} "
                f"but the supplied definition implies {expected.schema_hash}"
            )

    def check_rows(self, values: np.ndarray, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
        """The one judge of feature rows: ``values`` as a float vector (1 in
        ``ndims``) or matrix (2) of this schema's arity, every value real
        and finite. A fault is refused naming the features that hold it."""
        values = np.asarray(values)
        if values.ndim not in ndims or values.shape[-1:] != (self.arity,):
            noun = " or ".join(_ROWS[n] for n in ndims)
            raise SchemaMismatchError(
                f"{noun} of shape {values.shape} does not fit schema arity {self.arity}"
            )
        if values.dtype.kind not in "biuf":  # strings, complex numbers or objects
            problems = np.frompyfunc(_cell_problem, 1, 1)(values)
            for problem in ("non-real value(s)", "integer(s) past the float range"):
                self._refuse(problem, problems == problem)
        values = values.astype(float, copy=False)
        self._refuse("non-finite value(s)", ~np.isfinite(values))
        return values

    def _refuse(self, problem: str, bad: np.ndarray) -> None:
        """Raise for ``problem`` where ``bad``, if anywhere, naming its features."""
        if bad.any():
            names = [self.names[j] for j in np.flatnonzero(bad.reshape(-1, self.arity).any(0))]
            row = "" if bad.ndim == 1 else f", first in row {np.argmax(bad.any(1))}"
            raise SchemaMismatchError(f"{_ROWS[bad.ndim]} has {problem} for {names}{row}")


def build_schema(defn: ProcessDefinition) -> FeatureSchema:
    """Derive the canonical feature order from a process definition."""
    bounds = defn.attribute_bounds
    features = [
        Feature(name, NUMERIC, *bounds[name]) for name in defn.attribute_names
    ]
    features.extend(Feature(name, BINARY) for name in defn.activity_names)
    return FeatureSchema(process_name=defn.name, features=tuple(features))


def _encode(schema: FeatureSchema, log: EventLog) -> np.ndarray:
    """The one encoder: a ``(len(log), arity)`` matrix, a column at a time.

    Each distinct path is mapped to one indicator row, taken per case; the
    attribute columns are copied in. Raises ``SchemaMismatchError`` for the
    first case, in order, that lacks an attribute of the schema or holds an
    activity outside it; attributes are checked first.
    """
    numeric = [schema.names[i] for i in schema.numeric_indices]
    column = {name: j for j, name in enumerate(log.attribute_names)}
    # A schema attribute the log does not name reads the all-NaN last column.
    padded = np.column_stack([log.values, np.full(len(log), np.nan)])
    values = padded[:, [column.get(name, -1) for name in numeric]]
    known = np.array([set(path) <= schema._index.keys() for path in log.paths], dtype=bool)
    bad = np.isnan(values).any(axis=1) | ~known[log.path_of]
    if bad.any():
        i = int(np.argmax(bad))
        path = log.paths[log.path_of[i]]
        problems = [f"lacks attribute {n!r}" for n, v in zip(numeric, values[i]) if np.isnan(v)]
        problems += [f"contains unknown activity {a!r}" for a in path if a not in schema._index]
        raise SchemaMismatchError(f"trace {log.case_ids[i]!r} {problems[0]}")
    indicators = np.zeros((len(log.paths), schema.arity))
    for k in np.flatnonzero(known).tolist():
        indicators[k, [schema._index[a] for a in log.paths[k]]] = 1.0
    matrix = indicators[log.path_of]
    matrix[:, schema.numeric_indices] = values
    return matrix


def encode_trace(schema: FeatureSchema, trace: Sequence) -> np.ndarray:
    """Vectorize one ``(case_id, attrs, activities, label)`` record, such as
    a :class:`~procex.simulation.Trace`, attribute values then 0/1 activity
    presence: a one-row view of the encoder behind :func:`encode_log`."""
    return _encode(schema, EventLog.from_records(schema.process_name, (trace,)))[0]


def encode_log(schema: FeatureSchema, log: EventLog) -> tuple[np.ndarray, tuple[str, ...]]:
    """Encode every case; returns the design matrix and the label sequence.

    Raises ``SchemaMismatchError`` naming the first case that lacks an
    attribute or holds an unknown activity.
    """
    if not len(log):
        raise EmptyLogError("cannot encode an empty event log")
    return _encode(schema, log), log.labels


def split_vector(
    schema: FeatureSchema, vector: np.ndarray
) -> tuple[dict[str, float], dict[str, int]]:
    """Split a feature vector back into an attribute map and indicator map:
    a one-row view of :func:`split_columns`."""
    vector = schema.check_rows(vector, (1,))
    columns, indicators = split_columns(schema, vector[None, :])
    attrs = {name: float(column[0]) for name, column in columns.items()}
    return attrs, dict(zip(schema.names[len(columns):], indicators[0].tolist()))


def split_columns(
    schema: FeatureSchema, matrix: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Split a matrix of feature rows, judged by the schema, into its
    attribute columns by name and its 0/1 indicator matrix: the binary slice
    with cells rounded to the nearest integer, non-zero meaning present."""
    matrix = schema.check_rows(matrix)
    m = len(schema.numeric_indices)
    columns = {schema.names[i]: matrix[:, i] for i in range(m)}
    # A finite cell rounds to non-zero exactly when it lies beyond ±0.5.
    return columns, (np.abs(matrix[:, m:]) > 0.5).view(np.int8)


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-feature standardization statistics (population std).

    Features with std below 1e-12 are treated as constant: they scale with 1
    instead, so ``apply`` maps them to exactly 0.
    """

    mean: np.ndarray
    std: np.ndarray

    @cached_property
    def scale(self) -> np.ndarray:
        return np.where(self.std < _STD_FLOOR, 1.0, self.std)

    def apply(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(values - mean) / scale``, written into ``out`` when given.

        The result keeps the memory layout of ``values`` (or of ``out``), so
        feature-major samples are standardized a whole feature at a time.
        """
        out = np.subtract(np.asarray(values, dtype=float), self.mean, out=out)
        out /= self.scale
        return out

    def to_json_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @staticmethod
    def from_json_dict(data: dict) -> "Scaler":
        return Scaler(
            mean=np.asarray(data["mean"], dtype=float),
            std=np.asarray(data["std"], dtype=float),
        )


def scaler_from_matrix(matrix: np.ndarray) -> Scaler:
    matrix = np.asarray(matrix, dtype=float)
    if len(matrix) == 0:
        raise EmptyLogError("cannot fit a scaler on zero rows")
    # Values near the float limit overflow to inf here; `train` refuses that.
    with np.errstate(over="ignore", invalid="ignore"):
        return Scaler(mean=matrix.mean(axis=0), std=matrix.std(axis=0))
