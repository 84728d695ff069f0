"""Case simulation, event logs, and the one-case conformance check.

Simulation draws each case attribute uniformly over its declared bounds,
executes the process graph, and records one case per row, through the
executor the explainer also uses, :func:`~procex.process_model.execute_rows`.
Reproducibility contract: cases are drawn in chunks of :data:`CHUNK`, and
chunk ``k`` has its own RNG substream built as
``SeedSequence(entropy=seed, spawn_key=(k,))`` feeding a PCG64 generator,
which draws a ``(CHUNK, A + C + 1)`` matrix of uniform variates (``A``
attributes, ``C`` choice gateways) straight into its rows of one block.
Case ``i`` reads row ``i % CHUNK`` of chunk ``i // CHUNK``. A last chunk of
fewer rows draws a prefix of its stream, so case ``i`` is byte-identical no
matter how many cases surround it. A case
reads its row as one variate per attribute in lexicographic name order, then
one per choice gateway on the case's path in path order, then one for label
noise; a shorter path leaves the last columns unread.

An :class:`EventLog` is a process name and columns, nothing more: case ids,
labels, a float matrix of attribute values under the sorted names (NaN where
a case has no such attribute: no log holds a non-finite value), and per case
an index into the distinct activity paths. It keeps no record of how it was
made (simulation config, source file, split).

On disk, event logs are JSONL, one ``json.dumps`` record per line. The
writer formats the lines from the columns, :data:`CHUNK` cases at a time:
each distinct path, label and attribute name is encoded once per log, and
per line only the case id and each value's ``float.__repr__`` are formatted.
The reader reads every log, a file or a stream, once: one pattern match
splits the lines in that layout into columns, and from the first line it
cannot take, the one line validator, :func:`_records`, reads the rest.
One check, :func:`_checked_case`, holds the rule for a case's fields, for
the validator and :meth:`EventLog.from_records` alike: a record is refused
exactly when its ``json.dumps`` line is, with the same message after the
location.

``is_conformant`` checks one case with the batch oracle
:func:`~procex.process_model.conformant_rows`, one forward pass over the
process for any number of rows.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from numbers import Real
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadLabelError,
    EmptyLogError,
    MalformedLogError,
    MissingColumnError,
    SchemaMismatchError,
    UnparsableNumberError,
    _integer,
    _not_utf8,
    _real,
    _utf8,
)
from .process_model import (
    LABELS,
    NEGATIVE,
    POSITIVE,
    Activity,
    ProcessDefinition,
    conformant_rows,
    execute_rows,
)

__all__ = [
    "SimulationConfig",
    "Trace",
    "EventLog",
    "execute_case",
    "generate_log",
    "is_conformant",
    "write_log_jsonl",
    "read_log_jsonl",
    "import_log_csv",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _in_noise_range(p: float) -> bool:
    return 0.0 <= p <= 0.5


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
        _integer("n_cases", self.n_cases)
        _integer("seed", self.seed)
        _real("label_noise", self.label_noise, _in_noise_range, "lie in [0, 0.5]")

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# Traces and logs
# ---------------------------------------------------------------------------

class Trace(NamedTuple):
    """One case: attributes, visited activities in order, outcome."""

    case_id: str
    attrs: Mapping[str, float]
    activities: tuple[str, ...]
    label: str


@dataclass(frozen=True, eq=False)
class EventLog:
    """A process's cases as columns; the name is the caller's label, not
    read from the log file. Case ``i`` is ``case_ids[i]``, with ``labels[i]``,
    ``values[i]`` under ``attribute_names`` (NaN: no such attribute) and the
    activities ``paths[path_of[i]]``. Build one with :meth:`from_records`.
    """

    process_name: str
    case_ids: tuple[str, ...]
    labels: tuple[str, ...]
    attribute_names: tuple[str, ...]
    values: np.ndarray
    paths: tuple[tuple[str, ...], ...]
    path_of: np.ndarray

    def __len__(self) -> int:
        return len(self.case_ids)

    @staticmethod
    def from_records(process_name: str, records: Iterable[Sequence]) -> "EventLog":
        """The log of ``(case_id, attrs, activities, label)`` records, such as
        :class:`Trace`\\ s. A record that is not a sequence of four fields is
        refused as ``trace N``, counting from 1. Each record's fields go
        through the one case check the line validator uses,
        :func:`_checked_case`, so a record is refused exactly when its
        ``json.dumps`` line would be, with the same message after the
        location: ``case 'X'``, or ``trace N (case X)`` for a case id that is
        not a string.
        """
        return _columns(process_name, (
            _checked_record(number, record) for number, record in enumerate(records, start=1)
        ))

    def take(self, rows: Sequence[int] | np.ndarray) -> "EventLog":
        """The cases at ``rows``, in that order, under the same name."""
        rows = np.asarray(rows, dtype=np.intp)
        ids, labels = (tuple(map(column.__getitem__, rows.tolist()))
                       for column in (self.case_ids, self.labels))
        return replace(self, case_ids=ids, labels=labels, values=self.values[rows],
                       path_of=self.path_of[rows])

    @property
    def traces(self) -> tuple[Trace, ...]:
        """Every case as a :class:`Trace`, built anew on each access: float
        values under sorted names, one shared tuple per path."""
        columns = self.values.tolist(), self.path_of.tolist()
        return tuple(
            Trace(case_id, {n: v for n, v in zip(self.attribute_names, row) if not math.isnan(v)},
                  self.paths[k], label)
            for case_id, row, k, label in zip(self.case_ids, *columns, self.labels)
        )


def _checked_record(number: int, record) -> tuple[str, Mapping, tuple[str, ...], str]:
    """Record ``number`` of :meth:`EventLog.from_records`: four fields, then
    the fields as :func:`_checked_case` checks them."""
    # The exact types first: an ABC's isinstance check costs more than the rest.
    if not isinstance(record, (tuple, list, Sequence)):
        raise MalformedLogError(
            f"trace {number}: expected a sequence of 4 fields, got {type(record).__name__}"
        )
    if len(record) != 4:
        raise MalformedLogError(f"trace {number}: expected 4 fields, got {len(record)}")
    case_id = record[0]
    where = (f"case {case_id!r}" if isinstance(case_id, str)
             else f"trace {number} (case {case_id!r})")
    return _checked_case(where, *record)


def _checked_case(where: str, case_id, attrs, activities,
                  label) -> tuple[str, Mapping, tuple[str, ...], str]:
    """The one rule for a case's fields, from a record or a log line: the
    case as :func:`_columns` takes it, or the first refusal in field order,
    its message after the location ``where``. A value is a finite real
    number, numpy scalars too, but not a ``bool``."""
    if not isinstance(case_id, str):
        raise MalformedLogError(f"{where}: 'case_id' is {type(case_id).__name__}, not a string")
    # The exact types first: an ABC's isinstance check costs more than the rest.
    if not isinstance(attrs, (dict, Mapping)):
        raise MalformedLogError(f"{where}: 'attrs' is {type(attrs).__name__}, not a mapping")
    for name, value in attrs.items():
        if not isinstance(name, str):
            raise MalformedLogError(f"{where}: attribute name {name!r} is not a string")
        if isinstance(value, bool) or not isinstance(value, (float, Real)):
            raise MalformedLogError(
                f"{where}: attribute {name!r} is {type(value).__name__}, not a number"
            )
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range
            finite, value = False, math.inf if value > 0 else -math.inf
        if not finite:
            raise MalformedLogError(f"{where}: attribute {name!r} is {value}, not a finite number")
    if not isinstance(activities, (list, tuple)):
        raise MalformedLogError(
            f"{where}: 'activities' is {type(activities).__name__}, not a list"
        )
    for activity in activities:
        if not isinstance(activity, str):
            raise MalformedLogError(f"{where}: activity {activity!r} is not a string")
    if label not in LABELS:
        raise BadLabelError(f"{where}: label {label!r} is neither POSITIVE nor NEGATIVE")
    return case_id, attrs, tuple(activities), label


def _columns(process_name: str, records: Iterable[tuple]) -> EventLog:
    """The log of checked ``(case_id, attrs, activities, label)`` records,
    ``attrs`` mapping names to finite numbers."""
    case_ids, rows, paths, labels = tuple(zip(*records)) or ((),) * 4
    names = tuple(sorted(set().union(*rows)))
    column = {name: j for j, name in enumerate(names)}
    cells = np.fromiter(chain.from_iterable(row.values() for row in rows), float)
    columns = np.fromiter(map(column.__getitem__, chain.from_iterable(rows)), np.intp)
    values = np.full((len(rows), len(names)), np.nan)
    values[np.repeat(np.arange(len(rows)), list(map(len, rows))), columns] = cells
    index: dict[tuple[str, ...], int] = {}
    path_of = np.array([index.setdefault(p, len(index)) for p in paths], dtype=np.intp)
    return EventLog(process_name, case_ids, labels, names, values, tuple(index), path_of)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

CHUNK = 1024
"""Cases per RNG substream; fixed, because it shapes every simulated log."""


def _uniform_rows(seed: int, n: int, width: int) -> np.ndarray:
    """Rows ``0..n-1`` of the chunked variate stream, shape ``(n, width)``,
    each chunk drawn into its rows of one block; the last chunk draws only
    the rows it needs, a prefix of its full chunk's stream."""
    rows = np.empty((n, width))
    for k, start in enumerate(range(0, n, CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        rng.random(out=rows[start : start + CHUNK])
    return rows


def _run(
    defn: ProcessDefinition,
    attr_columns: Mapping[str, np.ndarray],
    stream: np.ndarray,
    label_noise: float,
) -> tuple[list[tuple[str, ...]], np.ndarray, list[str]]:
    """Execute one case per row of ``stream``, shape ``(n, C + 1)``; returns
    the distinct paths (activities in path order), each case's index into
    them, and each case's label."""
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
    # Every case's label is one of the two shared strings, not a copy.
    shared = np.array([NEGATIVE, POSITIVE], dtype=object)
    labels = shared[(positive ^ flip).astype(np.intp)].tolist()
    # A path visits its activities in the step plan's (topological) order.
    columns = [step.column for step in defn._step_plan.steps if step.kind is Activity]
    order = [defn.activity_names[j] for j in columns]
    visited = indicators[:, columns]
    # Number the distinct rows one column at a time: each np.unique keeps
    # the codes dense, so no row width overflows them.
    path_of = np.zeros(n, dtype=np.intp)
    for column in visited.T:
        _, path_of = np.unique(2 * path_of + column.astype(np.intp), return_inverse=True)
    patterns = np.zeros((path_of.max(initial=-1) + 1, len(order)))
    patterns[path_of] = visited
    paths = [tuple(compress(order, row)) for row in patterns.tolist()]
    return paths, path_of, labels


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
    paths, [k], [label] = _run(defn, columns, stream, 0.0)
    return Trace(case_id, dict(sorted(attrs.items())), paths[k], label)


def generate_log(defn: ProcessDefinition, config: SimulationConfig) -> EventLog:
    """Simulate ``config.n_cases`` cases; pure function of its arguments. A
    definition ``validate`` refuses, such as one whose bounds do not increase
    (``InvalidDefinitionError``), raises its first finding before any draw."""
    defn._step_plan  # built only for a definition validate accepts
    names = defn.attribute_names
    bounds = [defn.attribute_bounds[name] for name in names]
    lower, upper = np.array(bounds, dtype=float).reshape(-1, 2).T
    width = len(names) + len(defn.choice_gateways) + 1
    stream = _uniform_rows(config.seed, config.n_cases, width)
    values = lower + (upper - lower) * stream[:, : len(names)]
    columns = {name: values[:, j] for j, name in enumerate(names)}
    paths, path_of, labels = _run(defn, columns, stream[:, len(names):], config.label_noise)
    case_ids = tuple(f"c{i:06d}" for i in range(1, config.n_cases + 1))
    return EventLog(defn.name, case_ids, tuple(labels), names, values, tuple(paths), path_of)


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

def write_log_jsonl(log: EventLog, path: str | Path) -> None:
    """Write one case per line, as ``json.dumps`` of a record with the keys
    ``case_id``, ``attrs`` (sorted by name, a NaN cell left out),
    ``activities`` and ``label``; stable key order makes output byte-stable.

    Each distinct path, label and attribute name is encoded once per log,
    and whether any cell is NaN is decided once per log, before the file is
    opened. Lines are then formatted and written :data:`CHUNK` cases at a
    time, so the writer holds one chunk's lines, whatever the log's length;
    per line only the case id and the ``float.__repr__`` of each value are
    formatted. What the reader would refuse never reaches the columns: the
    log's constructors refuse it. The reader's pattern match,
    :func:`_read_written`, reads this layout, escapes and left-out cells
    included, up to the first case with a name the first case lacks:
    change the two together.
    """
    activities = [json.dumps(list(path)) for path in log.paths]
    labels = {label: json.dumps(label) for label in set(log.labels)}
    keys = [encode_basestring_ascii(key) + ": " for key in log.attribute_names]
    if keys and not np.isnan(log.values).any():  # one template, a column at a time
        template = "{%s}" % ", ".join(key.replace("%", "%%") + "%s" for key in keys)

        def attrs(block: np.ndarray) -> Iterable[str]:
            columns = [map(float.__repr__, column) for column in block.T.tolist()]
            return map(template.__mod__, zip(*columns))
    else:  # per case, leaving its NaN cells out
        def attrs(block: np.ndarray) -> Iterable[str]:
            return ("{%s}" % ", ".join(key + repr(v) for key, v in zip(keys, row)
                                       if not math.isnan(v))
                    for row in block.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(log), CHUNK):
            chunk = slice(start, start + CHUNK)
            fh.write("".join([
                f'{{"case_id": {encode_basestring_ascii(c)}, "attrs": {a}, '
                f'"activities": {activities[k]}, "label": {labels[label]}}}\n'
                for c, a, k, label in zip(log.case_ids[chunk], attrs(log.values[chunk]),
                                          log.path_of[chunk].tolist(), log.labels[chunk])
            ]))


_KEYS = ("case_id", "attrs", "activities", "label")
"""The keys of a log line's object, in the order the writer writes them."""


def _records(lines: Iterable[str],
             start: int = 1) -> Iterator[tuple[str, dict, tuple[str, ...], str]]:
    """The one line validator: yield each non-blank line's case as
    ``(case_id, attrs, activities, label)``, checked when it is reached,
    numbering ``lines`` from ``start``.

    What belongs to JSON is checked here: each line is parsed once, by
    ``json.loads``, so a line that is not one JSON value carries json's own
    message, and it must be an object with the four keys. Their values go
    through :func:`_checked_case`, the check :meth:`EventLog.from_records`
    makes, so a line is refused exactly when its record would be.
    """
    for line_no, line in enumerate(lines, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also an int past int's digit limit
            raise MalformedLogError(f"line {line_no}: not JSON ({exc})") from None
        try:
            case = record["case_id"], record["attrs"], record["activities"], record["label"]
        except (KeyError, TypeError):
            if not isinstance(record, dict):
                raise MalformedLogError(
                    f"line {line_no}: expected a JSON object, "
                    f"got {type(record).__name__}"
                ) from None
            missing = [key for key in _KEYS if key not in record]
            raise MalformedLogError(
                f"line {line_no}: missing field(s) {', '.join(map(repr, missing))}"
            ) from None
        yield _checked_case(f"line {line_no}", *case)


# What the writer writes: numbers with a fraction or an exponent, which
# ``float`` reads as ``json`` does (``json`` reads ``-0`` as the int 0; both
# ``\d`` and ``float`` take non-ASCII digits, ``json`` does not), and strings
# whose only escapes are json's, decoded by ``json`` where there are any.
_NUMBER = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_TEXT = r'[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*'


def _read_written(process_name: str, fh) -> EventLog:
    """The log in ``fh``, read once: lines in :func:`write_log_jsonl`'s layout
    split into columns by one pattern built from the first line's attribute
    names, each of which a later line may leave out (a NaN cell), then, from
    the first line the pattern cannot take (text between matched lines, a
    name the first line lacks, a number without a fraction or exponent or
    past the float range), the rest as :func:`_records` reads it. The writer
    and this pattern change together."""
    first = fh.readline()
    try:
        names = sorted(json.loads(first)["attrs"].keys())  # a list's items are no names
    except (ValueError, LookupError, TypeError, AttributeError, RecursionError):
        names = []  # no pattern takes the first line: the validator says why
    attrs = "".join(f'(?:{re.escape(encode_basestring_ascii(n))}: {_NUMBER}(?:, (?=")|(?=}})))?'
                    for n in names)
    line = re.compile(f'\\{{"case_id": "({_TEXT})", "attrs": \\{{{attrs}\\}}, '
                      f'"activities": (\\[(?:"{_TEXT}"(?:, "{_TEXT}")*)?\\]), '
                      f'"label": "({POSITIVE}|{NEGATIVE})"\\}}\n')
    step = len(names) + 4  # per match: the text before it, then its groups
    case_ids, texts, labels, text = [], [], [], first
    cells = [np.empty((len(names), 0))]  # one block, for an empty file too
    while text:
        parts = line.split(text)
        taken = len(parts) // step  # matches
        # A left-out name's cell is None, which numpy reads as NaN.
        block = np.array([parts[k::step] for k in range(2, step - 2)], dtype=float)
        block = block.reshape(len(names), taken)
        # Match k is line k until the first text between matches or infinite value.
        if stopped := "".join(parts[::step]) or np.isinf(block).any():
            taken = min([*compress(range(taken + 1), parts[::step]),
                         *np.flatnonzero(np.isinf(block).any(axis=0)).tolist()])
        ids = parts[1:taken * step:step]
        if "\\" in text:
            ids = [json.loads(f'"{c}"') if "\\" in c else c for c in ids]
        case_ids += ids
        cells.append(block[:, :taken])
        texts += map(sys.intern, parts[step - 2:taken * step:step])  # paths and labels interned
        labels += map(sys.intern, parts[step - 1:taken * step:step])
        if stopped:
            break
        text = fh.read(1 << 16) + fh.readline()  # whole lines, about 64 KB: the parts stay small
    paths: dict[tuple[str, ...], int] = {}  # a path spelled two ways is one path
    index = {t: paths.setdefault(tuple(json.loads(t)), len(paths)) for t in dict.fromkeys(texts)}
    path_of = np.array(list(map(index.__getitem__, texts)), dtype=np.intp)
    log = EventLog(process_name, tuple(case_ids), tuple(labels), tuple(names),
                   np.concatenate(cells, axis=1).T.copy(), tuple(paths), path_of)
    if not text:  # every line taken
        return log
    rest = chain(io.StringIO(text.split("\n", taken)[-1]), fh)  # line ``taken`` of the batch on
    return _columns(process_name, chain(log.traces, _records(rest, start=len(log) + 1)))


def read_log_jsonl(path: str | Path, process_name: str = "") -> EventLog:
    """Read a JSONL event log, a file or a stream, once; the format does not
    carry the process name. The result is the line validator's: it raises
    for the first line, in file order, that :func:`_records` refuses, or for
    a byte that is not UTF-8."""
    with _utf8(path, _not_utf8(MalformedLogError)), open(path, encoding="utf-8") as fh:
        return _read_written(process_name, fh)


def import_log_csv(
    path: str | Path,
    attr_columns: Sequence[str],
    activity_column: str = "activity",
    label_column: str = "label",
    case_column: str = "case_id",
) -> EventLog:
    """Assemble cases from an event-per-row CSV; the log has no process
    name.

    Rows are grouped by the case column in first-seen order; attributes and
    the label are read from each case's first row, activities from every row
    in file order. A row that ends before its activity or case cell, a cell
    longer than ``csv``'s field size limit, or a byte that is not UTF-8 is
    refused.
    """
    import csv

    @contextmanager
    def row_named():  # csv.Error names the row after the last one read
        try:
            yield
        except csv.Error as exc:
            raise MalformedLogError(f"row {row_no + 1}: {exc}") from None

    row_no = 0  # the header is row 1
    with _utf8(path, _not_utf8(MalformedLogError)), row_named(), \
            open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        row_no = 1
        required = [case_column, activity_column, label_column, *attr_columns]
        for column in required:
            if column not in header:
                raise MissingColumnError(f"CSV has no column {column!r}")
        # Per case, in first-seen order: attributes, activities, label.
        cases: dict[str, tuple[dict[str, float], list[str], str]] = {}
        for row_no, row in enumerate(reader, start=2):
            for column in (activity_column, case_column):
                if row[column] is None:  # the row ends before the column
                    raise MissingColumnError(f"row {row_no} has no {column!r} cell")
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
                cases[case_id] = (attrs, [], label)
            cases[case_id][1].append(row[activity_column])
    if not cases:
        raise EmptyLogError(f"{path}: no event rows found")
    return EventLog.from_records("", ((case_id, *case) for case_id, case in cases.items()))
