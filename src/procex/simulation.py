"""Case simulation, event logs, and the one-case conformance check.

Simulation draws case attributes from per-attribute distributions (uniform
over the declared bounds by default), executes the process graph, and records
one trace per case, through the executor the explainer also uses,
:func:`~procex.process_model.execute_rows`. Reproducibility contract: every
case gets its own RNG substream built as
``SeedSequence(entropy=seed, spawn_key=(case_ordinal,))`` feeding a PCG64
generator, so trace ``i`` is byte-identical no matter how many cases surround
it. The substream is read as ``A + C + 1`` uniform variates (``A``
attributes, ``C`` choice gateways): one per attribute in lexicographic name
order, then one per choice gateway on the case's path in path order, then
one for label noise; a shorter path leaves the last columns unread.

``is_conformant`` checks one case with the batch oracle
:func:`~procex.process_model.conformant_rows`, which enumerates the
reachable paths once per distinct xor route rather than once per case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

import numpy as np

from .errors import (
    BadLabelError,
    ConfigError,
    EmptyLogError,
    MalformedLogError,
    MissingColumnError,
    SchemaMismatchError,
    UnknownAttributeError,
    UnparsableNumberError,
)
from .process_model import (
    LABELS,
    NEGATIVE,
    POSITIVE,
    ProcessDefinition,
    conformant_rows,
    execute_rows,
    topological_order,
)

__all__ = [
    "Uniform",
    "TruncatedNormal",
    "Distribution",
    "SimulationConfig",
    "Trace",
    "EventLog",
    "case_rng",
    "execute_case",
    "generate_log",
    "trace_indicators",
    "is_conformant",
    "write_log_jsonl",
    "read_log_jsonl",
    "import_log_csv",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    lower: float
    upper: float


@dataclass(frozen=True)
class TruncatedNormal:
    mean: float
    std: float
    lower: float
    upper: float


Distribution = Union[Uniform, TruncatedNormal]


def _dist_to_json(dist: Distribution) -> dict:
    if isinstance(dist, Uniform):
        return {"kind": "uniform", "lower": dist.lower, "upper": dist.upper}
    return {
        "kind": "truncated_normal",
        "mean": dist.mean,
        "std": dist.std,
        "lower": dist.lower,
        "upper": dist.upper,
    }


@dataclass(frozen=True)
class SimulationConfig:
    """How many cases to draw, from which seed, and with what noise.

    ``distributions`` overrides the default uniform-over-bounds sampler for
    selected attributes; ``label_noise`` flips the end label (never the path)
    with the given probability.
    """

    n_cases: int
    seed: int = 0
    label_noise: float = 0.0
    distributions: Mapping[str, Distribution] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_cases < 0:
            raise ConfigError(f"n_cases must be non-negative, got {self.n_cases}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.label_noise <= 0.5:
            raise ConfigError(
                f"label_noise must lie in [0, 0.5], got {self.label_noise}"
            )

    def to_json_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "seed": self.seed,
            "label_noise": self.label_noise,
            "distributions": {
                name: _dist_to_json(dist)
                for name, dist in sorted(self.distributions.items())
            },
        }


def _resolve_distributions(
    defn: ProcessDefinition, config: SimulationConfig
) -> dict[str, Distribution]:
    bounds = defn.attribute_bounds
    for name in config.distributions:
        if name not in bounds:
            raise UnknownAttributeError(
                f"distribution given for undeclared attribute {name!r}"
            )
    resolved: dict[str, Distribution] = {}
    for name in defn.attribute_names:
        lo, hi = bounds[name]
        dist = config.distributions.get(name, Uniform(lo, hi))
        if isinstance(dist, Uniform):
            d_lo, d_hi = dist.lower, dist.upper
            if not d_lo < d_hi:
                raise ConfigError(f"{name}: uniform bounds [{d_lo}, {d_hi}] are empty")
        else:
            d_lo, d_hi = dist.lower, dist.upper
            if dist.std <= 0:
                raise ConfigError(f"{name}: truncated normal needs std > 0")
            if not d_lo < d_hi:
                raise ConfigError(f"{name}: truncation [{d_lo}, {d_hi}] is empty")
        if d_lo < lo or d_hi > hi:
            raise ConfigError(
                f"{name}: distribution support [{d_lo}, {d_hi}] exceeds "
                f"declared bounds [{lo}, {hi}]"
            )
        resolved[name] = dist
    return resolved


# ---------------------------------------------------------------------------
# Traces and logs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trace:
    """One executed case: attributes, visited activities in order, outcome."""

    case_id: str
    attrs: Mapping[str, float]
    activities: tuple[str, ...]
    label: str


@dataclass(frozen=True)
class EventLog:
    process_name: str
    traces: tuple[Trace, ...]
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.traces)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def case_rng(seed: int, ordinal: int) -> np.random.Generator:
    """The dedicated RNG substream for one case, independent of all others."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(ordinal,))
    )


def _variates(dist: Distribution, u: np.ndarray) -> np.ndarray:
    """What ``rng.uniform`` or ``truncnorm.rvs`` makes of the variates ``u``."""
    if isinstance(dist, Uniform):
        return dist.lower + (dist.upper - dist.lower) * u
    # Imported here: scipy.stats costs over a second of start-up, and only
    # truncated normals need it.
    from scipy import stats

    a = (dist.lower - dist.mean) / dist.std
    b = (dist.upper - dist.mean) / dist.std
    return stats.truncnorm.ppf(u, a, b, loc=dist.mean, scale=dist.std)


def _run(
    defn: ProcessDefinition,
    attr_columns: Mapping[str, np.ndarray],
    stream: np.ndarray,
    label_noise: float,
) -> list[tuple[tuple[str, ...], str]]:
    """Execute one case per row of ``stream``, shape ``(n, C + 1)``; returns
    each case's activities, in path order, and its label."""
    n = len(stream)
    rows = np.arange(n)
    cursor = np.zeros(n, dtype=np.intp)

    def draw(arrived: np.ndarray) -> np.ndarray:
        u = stream[rows, cursor]
        cursor[arrived] += 1
        return u

    indicators, ends = execute_rows(defn, attr_columns, n, draw)
    ends_positive = [ends[e.name] for e in defn.end_nodes if e.label == POSITIVE]
    positive = np.logical_or.reduce(ends_positive, initial=False, axis=0)
    flip = stream[rows, cursor] < label_noise
    labels = np.where(positive ^ flip, POSITIVE, NEGATIVE).tolist()
    # A path visits its activities in topological order.
    col = {name: j for j, name in enumerate(defn.activity_names)}
    order = [name for name in topological_order(defn) if name in col]
    visited = indicators[:, [col[name] for name in order]].tolist()
    return [(tuple(compress(order, row)), label) for row, label in zip(visited, labels)]


def execute_case(
    defn: ProcessDefinition,
    attrs: Mapping[str, float],
    rng: np.random.Generator,
    label_noise: float = 0.0,
    case_id: str = "",
) -> Trace:
    """Execute one case: guards route xors, the rng routes choices.

    A one-row run on ``rng.random((1, C + 1))`` for ``C`` choice gateways.
    """
    columns = {name: np.array([value]) for name, value in attrs.items()}
    stream = rng.random((1, len(defn.choice_gateways) + 1))
    [(activities, label)] = _run(defn, columns, stream, label_noise)
    return Trace(case_id, dict(sorted(attrs.items())), activities, label)


def generate_log(defn: ProcessDefinition, config: SimulationConfig) -> EventLog:
    """Simulate ``config.n_cases`` cases; pure function of its arguments."""
    distributions = _resolve_distributions(defn, config)
    names = defn.attribute_names
    width = len(names) + len(defn.choice_gateways) + 1
    stream = np.array(
        [case_rng(config.seed, i).random(width) for i in range(config.n_cases)]
    ).reshape(config.n_cases, width)
    values = np.empty((config.n_cases, len(names)))
    for j, name in enumerate(names):
        values[:, j] = _variates(distributions[name], stream[:, j])
    columns = {name: values[:, j] for j, name in enumerate(names)}
    runs = _run(defn, columns, stream[:, len(names):], config.label_noise)
    traces = tuple(
        Trace(f"c{i + 1:06d}", dict(zip(names, row)), activities, label)
        for i, (row, (activities, label)) in enumerate(zip(values.tolist(), runs))
    )
    provenance: dict[str, Any] = {
        "kind": "simulated",
        "process": defn.name,
        "config": config.to_json_dict(),
    }
    if config.n_cases == 0:
        provenance["warnings"] = ["n_cases is 0; log is empty"]
    return EventLog(process_name=defn.name, traces=traces, provenance=provenance)


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

def trace_indicators(defn: ProcessDefinition, trace: Trace) -> dict[str, int]:
    """Activity-presence indicators of a trace over the declared activities."""
    present = set(trace.activities)
    return {name: int(name in present) for name in defn.activity_names}


def is_conformant(
    defn: ProcessDefinition,
    attrs: Mapping[str, float],
    indicators: Mapping[str, int],
) -> bool:
    """True iff some root-to-end path under ``attrs`` yields these indicators.

    A one-row call of :func:`~procex.process_model.conformant_rows`.
    """
    names = defn.activity_names
    if set(indicators) != set(names):
        missing = sorted(set(names) - set(indicators))
        extra = sorted(set(indicators) - set(names))
        raise SchemaMismatchError(
            f"indicator keys do not match declared activities "
            f"(missing {missing}, unexpected {extra})"
        )
    row = np.array([[1 if indicators[name] else 0 for name in names]])
    columns = {name: np.array([value]) for name, value in attrs.items()}
    return bool(conformant_rows(defn, columns, row)[0])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _trace_to_json(trace: Trace) -> str:
    return json.dumps(
        {
            "case_id": trace.case_id,
            "attrs": {k: float(v) for k, v in sorted(trace.attrs.items())},
            "activities": list(trace.activities),
            "label": trace.label,
        }
    )


def write_log_jsonl(log: EventLog, path: str | Path) -> None:
    """Write one trace per line; stable key order makes output byte-stable."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for trace in log.traces:
            fh.write(_trace_to_json(trace))
            fh.write("\n")


_RECORD_FIELDS = ("case_id", "attrs", "activities", "label")


def read_log_jsonl(path: str | Path, process_name: str = "") -> EventLog:
    """Read a JSONL event log; the format does not carry the process name."""
    traces: list[Trace] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLogError(f"line {line_no}: not JSON ({exc})") from None
            if not isinstance(record, dict):
                raise MalformedLogError(
                    f"line {line_no}: expected a JSON object, got {type(record).__name__}"
                )
            missing = [key for key in _RECORD_FIELDS if key not in record]
            if missing:
                raise MalformedLogError(
                    f"line {line_no}: missing field(s) {', '.join(map(repr, missing))}"
                )
            label = record["label"]
            if label not in LABELS:
                raise BadLabelError(
                    f"line {line_no}: label {label!r} is neither POSITIVE nor NEGATIVE"
                )
            try:
                attrs = {k: float(v) for k, v in sorted(record["attrs"].items())}
            except (AttributeError, TypeError, ValueError):
                raise MalformedLogError(
                    f"line {line_no}: 'attrs' is not an object of numbers"
                ) from None
            for name, value in attrs.items():
                if not math.isfinite(value):
                    raise MalformedLogError(
                        f"line {line_no}: attribute {name!r} is {value}, "
                        "not a finite number"
                    )
            activities = record["activities"]
            if not isinstance(activities, list) or not all(
                isinstance(a, str) for a in activities
            ):
                raise MalformedLogError(
                    f"line {line_no}: 'activities' is not a list of names"
                )
            traces.append(
                Trace(
                    case_id=str(record["case_id"]),
                    attrs=attrs,
                    activities=tuple(activities),
                    label=label,
                )
            )
    return EventLog(
        process_name=process_name,
        traces=tuple(traces),
        provenance={"kind": "imported", "source": str(path)},
    )


def import_log_csv(
    path: str | Path,
    attr_columns: Sequence[str],
    activity_column: str = "activity",
    label_column: str = "label",
    case_column: str = "case_id",
    process_name: str = "",
) -> EventLog:
    """Assemble traces from an event-per-row CSV.

    Rows are grouped by the case column in first-seen order; attributes and
    the label are read from each case's first row, activities from every row
    in file order.
    """
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        required = [case_column, activity_column, label_column, *attr_columns]
        for column in required:
            if column not in header:
                raise MissingColumnError(f"CSV has no column {column!r}")
        order: list[str] = []
        attrs_by_case: dict[str, dict[str, float]] = {}
        acts_by_case: dict[str, list[str]] = {}
        label_by_case: dict[str, str] = {}
        for row_no, row in enumerate(reader, start=2):
            case_id = row[case_column]
            if case_id not in attrs_by_case:
                order.append(case_id)
                attrs: dict[str, float] = {}
                for column in attr_columns:
                    cell = row[column]
                    try:
                        value = float(cell)
                    except (TypeError, ValueError):
                        value = math.nan
                    if not math.isfinite(value):
                        raise UnparsableNumberError(
                            f"row {row_no}, column {column!r}: "
                            f"cannot parse {cell!r} as a finite number"
                        )
                    attrs[column] = value
                attrs_by_case[case_id] = dict(sorted(attrs.items()))
                label = (row[label_column] or "").strip().upper()
                if label not in LABELS:
                    raise BadLabelError(
                        f"row {row_no}: label {row[label_column]!r} is neither "
                        "POSITIVE nor NEGATIVE"
                    )
                label_by_case[case_id] = label
                acts_by_case[case_id] = []
            acts_by_case[case_id].append(row[activity_column])
    if not order:
        raise EmptyLogError(f"{path}: no event rows found")
    traces = tuple(
        Trace(
            case_id=case_id,
            attrs=attrs_by_case[case_id],
            activities=tuple(acts_by_case[case_id]),
            label=label_by_case[case_id],
        )
        for case_id in order
    )
    return EventLog(
        process_name=process_name,
        traces=traces,
        provenance={"kind": "imported", "source": str(path)},
    )
