"""Feature schema, trace encoding, and standardization.

The feature space of a process is fixed by its definition: first one numeric
feature per declared attribute, then one binary indicator per activity, both
blocks sorted lexicographically by name. Feature vectors are plain float64
arrays aligned to that order. A short content hash of the schema travels with
serialized models so mismatched artifacts fail loudly instead of silently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

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
    "fit_scaler",
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


def build_schema(defn: ProcessDefinition) -> FeatureSchema:
    """Derive the canonical feature order from a process definition."""
    bounds = defn.attribute_bounds
    features = [
        Feature(name, NUMERIC, *bounds[name]) for name in defn.attribute_names
    ]
    features.extend(Feature(name, BINARY) for name in defn.activity_names)
    return FeatureSchema(process_name=defn.name, features=tuple(features))


def encode_trace(schema: FeatureSchema, trace: Trace) -> np.ndarray:
    """Vectorize one trace: attribute values, then 0/1 activity presence."""
    vector = np.zeros(schema.arity)
    for feature_index, feature in enumerate(schema.features):
        if feature.kind == NUMERIC:
            try:
                vector[feature_index] = trace.attrs[feature.name]
            except KeyError:
                raise SchemaMismatchError(
                    f"trace {trace.case_id!r} lacks attribute {feature.name!r}"
                ) from None
    known = set(schema.names)
    for activity in trace.activities:
        if activity not in known:
            raise SchemaMismatchError(
                f"trace {trace.case_id!r} contains unknown activity {activity!r}"
            )
        vector[schema.index(activity)] = 1.0
    return vector


def encode_log(schema: FeatureSchema, log: EventLog) -> tuple[np.ndarray, tuple[str, ...]]:
    """Encode every trace; returns the design matrix and the label sequence."""
    if not log.traces:
        raise EmptyLogError("cannot encode an empty event log")
    matrix = np.stack([encode_trace(schema, t) for t in log.traces])
    labels = tuple(t.label for t in log.traces)
    return matrix, labels


def split_vector(
    schema: FeatureSchema, vector: np.ndarray
) -> tuple[dict[str, float], dict[str, int]]:
    """Split a feature vector back into an attribute map and indicator map."""
    vector = np.asarray(vector)
    if vector.shape != (schema.arity,):
        raise SchemaMismatchError(
            f"vector of shape {vector.shape} does not fit schema arity {schema.arity}"
        )
    attrs: dict[str, float] = {}
    indicators: dict[str, int] = {}
    for feature_index, feature in enumerate(schema.features):
        if feature.kind == NUMERIC:
            attrs[feature.name] = float(vector[feature_index])
        else:
            indicators[feature.name] = int(round(float(vector[feature_index])))
    return attrs, indicators


def split_columns(
    schema: FeatureSchema, matrix: np.ndarray, activities: tuple[str, ...]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Columnar :func:`split_vector` for a matrix of feature rows.

    Returns the attribute columns by name, and a 0/1 indicator matrix with
    one column per name in ``activities`` (cells rounded as in
    :func:`split_vector`, non-zero meaning present).
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

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.scale + self.mean

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
    return Scaler(mean=matrix.mean(axis=0), std=matrix.std(axis=0))


def fit_scaler(schema: FeatureSchema, log: EventLog) -> Scaler:
    """Fit standardization statistics on every trace of a log."""
    matrix, _ = encode_log(schema, log)
    return scaler_from_matrix(matrix)
