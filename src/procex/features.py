"""Feature schema, trace encoding, and standardization.

The feature space of a process is fixed by its definition: first one numeric
feature per declared attribute, then one binary indicator per activity, both
blocks sorted lexicographically by name. Feature vectors are plain float64
arrays aligned to that order. A short content hash of the schema travels with
serialized models so mismatched artifacts fail loudly instead of silently.

There is one encoder, ``_encode``: it fills each numeric column from one list
of attribute values, maps each distinct activity tuple to its indicator
columns once, and sets every indicator cell with one mask. ``encode_log``
runs it on a whole log and ``encode_trace`` is its one-row view, as
``split_vector`` is of ``split_columns``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyLogError, SchemaMismatchError
from .process_model import ProcessDefinition
from .simulation import EventLog, Trace

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

    def check_definition(self, defn: ProcessDefinition) -> None:
        """Refuse a definition that implies another schema than this one."""
        expected = build_schema(defn)
        if expected != self:
            raise SchemaMismatchError(
                f"model was trained for schema {self.schema_hash} "
                f"but the supplied definition implies {expected.schema_hash}"
            )


def build_schema(defn: ProcessDefinition) -> FeatureSchema:
    """Derive the canonical feature order from a process definition."""
    bounds = defn.attribute_bounds
    features = [
        Feature(name, NUMERIC, *bounds[name]) for name in defn.attribute_names
    ]
    features.extend(Feature(name, BINARY) for name in defn.activity_names)
    return FeatureSchema(process_name=defn.name, features=tuple(features))


def _refuse_unencodable(schema: FeatureSchema, traces: Sequence[Trace]) -> None:
    """Raise for the first trace, in order, that lacks an attribute of the
    schema or holds an activity outside it; attributes are checked first."""
    numeric = [schema.names[i] for i in schema.numeric_indices]
    for trace in traces:
        for name in numeric:
            if name not in trace.attrs:
                raise SchemaMismatchError(
                    f"trace {trace.case_id!r} lacks attribute {name!r}"
                )
        for activity in trace.activities:
            if activity not in schema._index:
                raise SchemaMismatchError(
                    f"trace {trace.case_id!r} contains unknown activity {activity!r}"
                )


def _encode(schema: FeatureSchema, traces: Sequence[Trace]) -> np.ndarray:
    """The one encoder: a ``(len(traces), arity)`` matrix, a column at a time.

    Each numeric column is filled from one list of attribute values. Each
    distinct activity tuple is mapped to its columns once, and one boolean
    mask sets every indicator cell.
    """
    matrix = np.zeros((len(traces), schema.arity))
    patterns: dict[tuple[str, ...], int] = {}
    try:
        for i in schema.numeric_indices.tolist():
            name = schema.names[i]
            matrix[:, i] = [trace.attrs[name] for trace in traces]
        path_of = [patterns.setdefault(t.activities, len(patterns)) for t in traces]
        present = np.zeros((len(patterns), schema.arity), dtype=bool)
        for row, activities in enumerate(patterns):
            present[row, [schema._index[a] for a in activities]] = True
    except KeyError:
        _refuse_unencodable(schema, traces)
        raise
    matrix[present[path_of]] = 1.0
    return matrix


def encode_trace(schema: FeatureSchema, trace: Trace) -> np.ndarray:
    """Vectorize one trace, attribute values then 0/1 activity presence: a
    one-row view of the encoder behind :func:`encode_log`."""
    return _encode(schema, (trace,))[0]


def encode_log(schema: FeatureSchema, log: EventLog) -> tuple[np.ndarray, tuple[str, ...]]:
    """Encode every trace; returns the design matrix and the label sequence.

    Raises ``SchemaMismatchError`` naming the first trace that lacks an
    attribute or holds an unknown activity.
    """
    if not log.traces:
        raise EmptyLogError("cannot encode an empty event log")
    labels = tuple(t.label for t in log.traces)
    return _encode(schema, log.traces), labels


def split_vector(
    schema: FeatureSchema, vector: np.ndarray
) -> tuple[dict[str, float], dict[str, int]]:
    """Split a feature vector back into an attribute map and indicator map:
    a one-row view of :func:`split_columns`."""
    vector = np.asarray(vector)
    if vector.shape != (schema.arity,):
        raise SchemaMismatchError(
            f"vector of shape {vector.shape} does not fit schema arity {schema.arity}"
        )
    activities = tuple(schema.names[i] for i in schema.binary_indices)
    columns, indicators = split_columns(schema, vector[None, :], activities)
    attrs = {name: float(column[0]) for name, column in columns.items()}
    return attrs, dict(zip(activities, indicators[0].tolist()))


def split_columns(
    schema: FeatureSchema, matrix: np.ndarray, activities: tuple[str, ...]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Split a matrix of feature rows into columns.

    Returns the attribute columns by name, and a 0/1 indicator matrix with
    one column per name in ``activities`` (cells rounded to the nearest
    integer, non-zero meaning present; a non-finite cell is refused).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != schema.arity:
        raise SchemaMismatchError(
            f"matrix of shape {matrix.shape} does not fit schema arity {schema.arity}"
        )
    binary = {schema.names[i] for i in schema.binary_indices}
    if binary != set(activities):
        raise SchemaMismatchError(
            f"indicator keys do not match declared activities "
            f"(missing {sorted(set(activities) - binary)}, "
            f"unexpected {sorted(binary - set(activities))})"
        )
    columns = {schema.names[i]: matrix[:, i] for i in schema.numeric_indices}
    block = matrix[:, [schema.index(name) for name in activities]]
    finite = np.isfinite(block)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise SchemaMismatchError(
            f"indicator {activities[col]!r} holds the non-finite value "
            f"{block[row, col]} in row {row}"
        )
    return columns, (np.rint(block) != 0).astype(np.int8)


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
