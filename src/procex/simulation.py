"""Case simulation, event logs, and the one-case conformance check.

Simulation draws case attributes from per-attribute distributions (uniform
over the declared bounds by default), executes the process graph, and records
one trace per case. Reproducibility contract: every case gets its own RNG
substream built as ``SeedSequence(entropy=seed, spawn_key=(case_ordinal,))``
feeding a PCG64 generator, so trace ``i`` is byte-identical no matter how many
cases surround it. Within a case the draw order is fixed: one variate per
attribute in lexicographic name order, then one uniform variate per choice
gateway encountered on the walk, then one label-noise variate.

``is_conformant`` checks one case with the batch oracle
:func:`~procex.process_model.conformant_rows`, which enumerates the
reachable paths once per distinct xor route rather than once per case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

import numpy as np
from scipy import stats

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
    Activity,
    ChoiceGateway,
    EndNode,
    LABELS,
    NEGATIVE,
    POSITIVE,
    ProcessDefinition,
    XorGateway,
    conformant_rows,
    eval_guard,
)

__all__ = [
    "Uniform",
    "TruncatedNormal",
    "Distribution",
    "SimulationConfig",
    "Trace",
    "EventLog",
    "case_rng",
    "sample_attrs",
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


def sample_attrs(
    defn: ProcessDefinition,
    distributions: Mapping[str, Distribution],
    rng: np.random.Generator,
) -> dict[str, float]:
    """Draw one assignment, one variate per attribute in name order."""
    attrs: dict[str, float] = {}
    for name in defn.attribute_names:
        dist = distributions[name]
        if isinstance(dist, Uniform):
            attrs[name] = float(rng.uniform(dist.lower, dist.upper))
        else:
            a = (dist.lower - dist.mean) / dist.std
            b = (dist.upper - dist.mean) / dist.std
            attrs[name] = float(
                stats.truncnorm.rvs(a, b, loc=dist.mean, scale=dist.std, random_state=rng)
            )
    return attrs


def execute_case(
    defn: ProcessDefinition,
    attrs: Mapping[str, float],
    rng: np.random.Generator,
    label_noise: float = 0.0,
    case_id: str = "",
) -> Trace:
    """Walk the graph once: guards route xors, the rng routes choices."""
    activities: list[str] = []
    current = defn.start
    while True:
        node = defn.node(current)
        if isinstance(node, Activity):
            activities.append(node.name)
            current = node.successor
        elif isinstance(node, XorGateway):
            current = node.otherwise
            for branch in node.branches:
                if eval_guard(branch.guard, attrs):
                    current = branch.target
                    break
        elif isinstance(node, ChoiceGateway):
            u = rng.random()
            cumulative = 0.0
            current = node.branches[-1].target
            for branch in node.branches:
                cumulative += branch.probability
                if u < cumulative:
                    current = branch.target
                    break
        elif isinstance(node, EndNode):
            label = node.label
            if rng.random() < label_noise:
                label = NEGATIVE if label == POSITIVE else POSITIVE
            return Trace(
                case_id=case_id,
                attrs=dict(sorted(attrs.items())),
                activities=tuple(activities),
                label=label,
            )
        else:
            raise TypeError(f"not a node: {node!r}")


def generate_log(defn: ProcessDefinition, config: SimulationConfig) -> EventLog:
    """Simulate ``config.n_cases`` cases; pure function of its arguments."""
    distributions = _resolve_distributions(defn, config)
    traces: list[Trace] = []
    for ordinal in range(config.n_cases):
        rng = case_rng(config.seed, ordinal)
        attrs = sample_attrs(defn, distributions, rng)
        traces.append(
            execute_case(
                defn,
                attrs,
                rng,
                label_noise=config.label_noise,
                case_id=f"c{ordinal + 1:06d}",
            )
        )
    provenance: dict[str, Any] = {
        "kind": "simulated",
        "process": defn.name,
        "config": config.to_json_dict(),
    }
    if config.n_cases == 0:
        provenance["warnings"] = ["n_cases is 0; log is empty"]
    return EventLog(process_name=defn.name, traces=tuple(traces), provenance=provenance)


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
                        attrs[column] = float(cell)
                    except (TypeError, ValueError):
                        raise UnparsableNumberError(
                            f"row {row_no}, column {column!r}: "
                            f"cannot parse {cell!r} as a number"
                        ) from None
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
