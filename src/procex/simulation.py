"""Case simulation, event logs, and the one-case conformance check.

Simulation draws each case attribute uniformly over its declared bounds,
executes the process graph, and records one trace per case, through the
executor the explainer also uses, :func:`~procex.process_model.execute_rows`.
Reproducibility contract: cases are drawn in chunks of :data:`CHUNK`, and
chunk ``k`` has its own RNG substream built as
``SeedSequence(entropy=seed, spawn_key=(k,))`` feeding a PCG64 generator,
which draws one ``(CHUNK, A + C + 1)`` matrix of uniform variates (``A``
attributes, ``C`` choice gateways). Case ``i`` reads row ``i % CHUNK`` of
chunk ``i // CHUNK``. Every chunk is drawn in full and then truncated, so
trace ``i`` is byte-identical no matter how many cases surround it. A case
reads its row as one variate per attribute in lexicographic name order, then
one per choice gateway on the case's path in path order, then one for label
noise; a shorter path leaves the last columns unread. Cases that take the same
path share one activity tuple, and so do traces read back from JSONL.

An :class:`EventLog` is a process name and its traces, nothing more: it
keeps no record of how it was made (simulation config, source file, split).
On disk, event logs are JSONL, one ``json.dumps`` record per line. The
writer builds the lines a column at a time: each distinct activity tuple,
label and attribute name is encoded once per log, and per line only the
case id and each value's ``float.__repr__`` are formatted. It refuses,
before opening the file, what the reader would refuse: a case id or an
activity that is not a string, an attribute value that is not finite, a
label outside ``LABELS``. The reader streams line by line and also refuses
an attribute value that is not a JSON number.

``is_conformant`` checks one case with the batch oracle
:func:`~procex.process_model.conformant_rows`, one forward pass over the
process for any number of rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import compress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BadLabelError,
    ConfigError,
    EmptyLogError,
    MalformedLogError,
    MissingColumnError,
    SchemaMismatchError,
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
    "SimulationConfig",
    "Trace",
    "EventLog",
    "execute_case",
    "generate_log",
    "is_conformant",
    "write_log_jsonl",
    "iter_log_jsonl",
    "read_log_jsonl",
    "import_log_csv",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationConfig:
    """How many cases to draw, from which seed, and with what noise.

    Attributes are drawn uniformly over their declared bounds (for another
    distribution, draw them and call :func:`execute_case` per case);
    ``label_noise`` flips the end label, never the path, with that probability.
    """

    n_cases: int
    seed: int = 0
    label_noise: float = 0.0

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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    """A process's traces; the name is the caller's label, not read from
    the log file."""

    process_name: str
    traces: tuple[Trace, ...]

    def __len__(self) -> int:
        return len(self.traces)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

CHUNK = 1024
"""Cases per RNG substream; fixed, because it shapes every simulated log."""


def _uniform_rows(seed: int, n: int, width: int) -> np.ndarray:
    """Rows ``0..n-1`` of the chunked variate stream, shape ``(n, width)``."""
    chunks = [
        np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(k,))
        ).random((CHUNK, width))
        for k in range(-(-n // CHUNK))
    ]
    return np.concatenate(chunks)[:n] if chunks else np.empty((0, width))


def _run(
    defn: ProcessDefinition,
    attr_columns: Mapping[str, np.ndarray],
    stream: np.ndarray,
    label_noise: float,
) -> tuple[list[tuple[str, ...]], list[str]]:
    """Execute one case per row of ``stream``, shape ``(n, C + 1)``; returns
    each case's activities, in path order, and its label. Cases that take the
    same path share one activity tuple."""
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
    visited = indicators[:, [col[name] for name in order]]
    # Number the distinct rows one column at a time: each np.unique keeps
    # the codes dense, so no row width overflows them.
    path_of = np.zeros(n, dtype=np.intp)
    for column in visited.T:
        _, path_of = np.unique(2 * path_of + column.astype(np.intp), return_inverse=True)
    patterns = np.zeros((path_of.max(initial=-1) + 1, len(order)))
    patterns[path_of] = visited
    paths = [tuple(compress(order, row)) for row in patterns.tolist()]
    return [paths[k] for k in path_of.tolist()], labels


def execute_case(
    defn: ProcessDefinition,
    attrs: Mapping[str, float],
    rng: np.random.Generator,
    case_id: str = "",
) -> Trace:
    """Execute one case: guards route xors, the rng routes choices.

    A one-row run on ``rng.random((1, C + 1))`` for ``C`` choice gateways;
    the last variate, a noisy log's label-flip draw, never flips the label.
    """
    columns = {name: np.array([value]) for name, value in attrs.items()}
    stream = rng.random((1, len(defn.choice_gateways) + 1))
    [activities], [label] = _run(defn, columns, stream, 0.0)
    return Trace(case_id, dict(sorted(attrs.items())), activities, label)


def generate_log(defn: ProcessDefinition, config: SimulationConfig) -> EventLog:
    """Simulate ``config.n_cases`` cases; pure function of its arguments.
    Raises ``ConfigError`` for an attribute whose bounds do not increase."""
    names = defn.attribute_names
    bounds = [defn.attribute_bounds[name] for name in names]
    for name, (lo, hi) in zip(names, bounds):
        if not lo < hi:
            raise ConfigError(f"{name}: bounds [{lo}, {hi}] are not an increasing interval")
    lower, upper = np.array(bounds, dtype=float).reshape(-1, 2).T
    width = len(names) + len(defn.choice_gateways) + 1
    stream = _uniform_rows(config.seed, config.n_cases, width)
    values = lower + (upper - lower) * stream[:, : len(names)]
    columns = {name: values[:, j] for j, name in enumerate(names)}
    paths, labels = _run(defn, columns, stream[:, len(names):], config.label_noise)
    case_ids = [f"c{i:06d}" for i in range(1, config.n_cases + 1)]
    attrs = [dict(zip(names, row)) for row in values.tolist()]
    return EventLog(defn.name, tuple(map(Trace, case_ids, attrs, paths, labels)))


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

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

def _refuse_unwritable(traces: Sequence[Trace]) -> None:
    """Raise for the first field, in file order, that the reader would refuse:
    a case id that is not a string, a non-finite attribute value, an activity
    that is not a string, or a label outside ``LABELS``."""
    for index, trace in enumerate(traces, start=1):
        if not isinstance(trace.case_id, str):
            raise MalformedLogError(
                f"trace {index} (case {trace.case_id!r}): 'case_id' is "
                f"{type(trace.case_id).__name__}, not a string"
            )
        for name, value in sorted(trace.attrs.items()):
            number = float(value)
            if not math.isfinite(number):
                raise MalformedLogError(
                    f"case {trace.case_id!r}: attribute {name!r} is {number}, "
                    "not a finite number"
                )
        if not all(isinstance(a, str) for a in trace.activities):
            raise MalformedLogError(
                f"case {trace.case_id!r}: 'activities' is not a list of names"
            )
        if trace.label not in LABELS:
            raise BadLabelError(
                f"case {trace.case_id!r}: label {trace.label!r} is neither "
                "POSITIVE nor NEGATIVE"
            )


def _jsonl_lines(traces: Sequence[Trace]) -> list[str]:
    """What ``json.dumps`` makes of each trace's record, plus a newline.

    Each distinct activity tuple, label and attribute name is encoded once
    per log; per line only the case id and the ``float.__repr__`` of each
    value are formatted. Traces with the same attribute names share one
    ``attrs`` template, filled a column at a time.
    """
    paths = {t.activities for t in traces}
    names = {t.label for t in traces}
    if not (
        all(isinstance(t.case_id, str) for t in traces)
        and all(isinstance(a, str) for path in paths for a in path)
        and names.issubset(LABELS)
    ):
        _refuse_unwritable(traces)
    activities = {a: json.dumps(list(a)) for a in paths}
    labels = {label: json.dumps(label) for label in names}
    groups: dict[tuple[str, ...], list[int]] = {}
    for index, trace in enumerate(traces):
        groups.setdefault(tuple(trace.attrs), []).append(index)
    attrs = ["{}"] * len(traces)  # what a group without names keeps
    for names, rows in groups.items():
        keys = sorted(names)
        columns = [[float(traces[i].attrs[key]) for i in rows] for key in keys]
        if not all(all(map(math.isfinite, column)) for column in columns):
            _refuse_unwritable(traces)
        template = "{%s}" % ", ".join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
        )
        values = zip(*[map(float.__repr__, column) for column in columns])
        for i, text in zip(rows, map(template.__mod__, values)):
            attrs[i] = text
    return [
        f'{{"case_id": {encode_basestring_ascii(t.case_id)}, "attrs": {a}, '
        f'"activities": {activities[t.activities]}, "label": {labels[t.label]}}}\n'
        for t, a in zip(traces, attrs)
    ]


def write_log_jsonl(log: EventLog, path: str | Path) -> None:
    """Write one trace per line, as ``json.dumps`` of a record with the keys
    ``case_id``, ``attrs`` (sorted by name), ``activities`` and ``label``;
    stable key order makes output byte-stable.

    Raises, before the file is opened, what the reader would raise: a
    ``MalformedLogError`` for a case id or an activity that is not a string
    or an attribute value that is not finite, a ``BadLabelError`` for a
    label outside ``LABELS``.
    """
    lines = _jsonl_lines(log.traces)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


_RECORD_FIELDS = ("case_id", "attrs", "activities", "label")
_NUMBERS = frozenset({int, float})
"""The types ``json`` decodes a number to; ``bool`` is not among them."""


def iter_log_jsonl(path: str | Path) -> Iterator[Trace]:
    """Yield the traces of a JSONL event log in file order, each validated
    when it is reached.

    Lines are decoded with ``raw_decode``; a line it refuses is handed to
    ``json.loads``, so the message is json's own. Traces with the same
    activities share one tuple.
    """
    decode = json.JSONDecoder().raw_decode
    paths: dict[tuple, tuple[str, ...]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):  # json.loads raises with json's own message
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedLogError(f"line {line_no}: not JSON ({exc})") from None
            try:
                case_id = record["case_id"]
                attrs = record["attrs"]
                activities = record["activities"]
                label = record["label"]
            except (KeyError, TypeError):
                if not isinstance(record, dict):
                    raise MalformedLogError(
                        f"line {line_no}: expected a JSON object, "
                        f"got {type(record).__name__}"
                    ) from None
                missing = [key for key in _RECORD_FIELDS if key not in record]
                raise MalformedLogError(
                    f"line {line_no}: missing field(s) {', '.join(map(repr, missing))}"
                ) from None
            if not isinstance(case_id, str):
                raise MalformedLogError(
                    f"line {line_no}: 'case_id' is {json.dumps(case_id)}, not a string"
                )
            if label not in LABELS:
                raise BadLabelError(
                    f"line {line_no}: label {label!r} is neither POSITIVE nor NEGATIVE"
                )
            try:
                values = {k: float(v) for k, v in sorted(attrs.items())}
                for name, value in values.items():
                    if not math.isfinite(value):
                        raise MalformedLogError(
                            f"line {line_no}: attribute {name!r} is {value}, "
                            "not a finite number"
                        )
                numbers = all(map(_NUMBERS.__contains__, map(type, attrs.values())))
            except (AttributeError, TypeError, ValueError, OverflowError):
                numbers = False
            if not numbers:  # a string, a bool, null, a list or an object
                raise MalformedLogError(
                    f"line {line_no}: 'attrs' is not an object of numbers"
                )
            attrs = values
            # None, for a value that is not a list, is never a key of paths.
            key = tuple(activities) if isinstance(activities, list) else None
            try:
                activities = paths[key]
            except (KeyError, TypeError):  # a new path, or an unhashable item
                if key is None or not all(isinstance(a, str) for a in key):
                    raise MalformedLogError(
                        f"line {line_no}: 'activities' is not a list of names"
                    ) from None
                activities = paths[key] = key
            yield Trace(case_id, attrs, activities, label)


def read_log_jsonl(path: str | Path, process_name: str = "") -> EventLog:
    """Read a JSONL event log; the format does not carry the process name."""
    return EventLog(process_name, tuple(iter_log_jsonl(path)))


def import_log_csv(
    path: str | Path,
    attr_columns: Sequence[str],
    activity_column: str = "activity",
    label_column: str = "label",
    case_column: str = "case_id",
) -> EventLog:
    """Assemble traces from an event-per-row CSV; the log has no process
    name.

    Rows are grouped by the case column in first-seen order; attributes and
    the label are read from each case's first row, activities from every row
    in file order. A row that ends before its activity cell is refused.
    """
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        required = [case_column, activity_column, label_column, *attr_columns]
        for column in required:
            if column not in header:
                raise MissingColumnError(f"CSV has no column {column!r}")
        # Per case, in first-seen order: attributes, activities, label.
        cases: dict[str, tuple[dict[str, float], list[str], str]] = {}
        for row_no, row in enumerate(reader, start=2):
            activity = row[activity_column]
            if activity is None:  # the row ends before the column
                raise MissingColumnError(f"row {row_no} has no {activity_column!r} cell")
            case_id = row[case_column]
            if case_id not in cases:
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
                label = (row[label_column] or "").strip().upper()
                if label not in LABELS:
                    raise BadLabelError(
                        f"row {row_no}: label {row[label_column]!r} is neither "
                        "POSITIVE nor NEGATIVE"
                    )
                cases[case_id] = (dict(sorted(attrs.items())), [], label)
            cases[case_id][1].append(activity)
    if not cases:
        raise EmptyLogError(f"{path}: no event rows found")
    traces = (
        Trace(case_id, attrs, tuple(activities), label)
        for case_id, (attrs, activities, label) in cases.items()
    )
    return EventLog("", tuple(traces))
