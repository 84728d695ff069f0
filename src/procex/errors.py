"""Exception hierarchy shared by every module in the package.

All domain errors derive from :class:`ProcexError` so callers (and the CLI)
can distinguish "your input is bad" from genuine programming bugs. Each class
carries a human-readable message; a few add structured fields that tests and
tools rely on. Beside :class:`ConfigError`, :func:`_integer` and
:func:`_real` judge each setting of the configs, one call per setting.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class ProcexError(Exception):
    """Base class for every error raised deliberately by this package."""


# ---------------------------------------------------------------------------
# Process definitions (parsing and validation)
# ---------------------------------------------------------------------------

class DslSyntaxError(ProcexError):
    """Raised when process text cannot be tokenized or parsed.

    Carries the 1-based ``line`` and ``col`` of the offending token plus a
    short description of what was ``expected`` and what was ``found``.
    """

    def __init__(self, line: int, col: int, expected: str, found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__(
            f"line {line}, col {col}: expected {expected}, found {found}"
        )


class DuplicateNameError(ProcexError):
    """A node or attribute name is declared more than once."""


class UnknownTargetError(ProcexError):
    """An edge points at a node name that is never declared."""


class UnknownAttributeError(ProcexError):
    """A guard (or caller-supplied value) references an undeclared attribute."""


class MissingAttributeError(ProcexError):
    """Guard evaluation was asked to run without a value for some attribute."""


class CyclicGraphError(ProcexError):
    """The routing graph contains a cycle."""


class UnreachableNodeError(ProcexError):
    """A declared node cannot be reached from the start edge."""


class BadProbabilitySumError(ProcexError):
    """Choice-gateway branch probabilities do not sum to one."""


class InvalidDefinitionError(ProcexError):
    """Catch-all for structural findings without a more specific class."""


class ConfigError(ProcexError):
    """A configuration object or CLI flag combination is unusable."""


def _integer(name: str, value: object, least: int = 0, rule: str = "be non-negative") -> None:
    """Refuse setting ``name`` unless ``value`` is exactly an ``int`` of at
    least ``least`` (``rule`` in words) that the JSON writers can print: a
    ``bool`` or ``np.int64`` is not, as the writers would write ``true`` or
    fail, and neither is an ``int`` past the interpreter's digit limit for
    integer-to-string conversion (``sys.get_int_max_str_digits()``)."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        shown = str(value)
    except ValueError:  # past the digit limit, which the writers obey too
        shown = "an integer too long to print"
        if value >= least:
            limit = sys.get_int_max_str_digits()
            raise ConfigError(f"{name} must have at most {limit} digits, got {shown}") from None
    if value < least:
        raise ConfigError(f"{name} must {rule}, got {shown}")


def _finite_non_negative(number: float) -> bool:
    return math.isfinite(number) and number >= 0


def _real(name: str, value: object, ok: Callable[[float], bool] = _finite_non_negative,
          rule: str = "be a finite non-negative number") -> None:
    """Refuse setting ``name`` unless ``value`` is an ``int`` or ``float``
    (``np.float64`` too, a ``bool`` not) whose float satisfies ``ok``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must {rule}, got an integer past the float range") from None
    if not ok(number):
        raise ConfigError(f"{name} must {rule}, got {value}")


# ---------------------------------------------------------------------------
# Logs, features, and models
# ---------------------------------------------------------------------------

class EmptyLogError(ProcexError):
    """An event log with zero traces was supplied where cases are required."""


class MissingColumnError(ProcexError):
    """A CSV import referenced a column absent from the header or from a row."""


class UnparsableNumberError(ProcexError):
    """A CSV cell expected to hold a number could not be parsed as one."""


class MalformedLogError(ProcexError):
    """A JSONL log line is not a JSON object of the trace shape, or lacks a field."""


class BadLabelError(ProcexError):
    """A trace label is neither POSITIVE nor NEGATIVE."""


class SchemaMismatchError(ProcexError):
    """Data was encoded under a feature schema it does not belong to."""


class SingleClassLogError(ProcexError):
    """Training data contains only one outcome label."""


class DivergedError(ProcexError):
    """Training met a non-finite loss or non-finite feature scaling statistics."""


class MalformedModelError(ProcexError):
    """A model file holds a non-finite weight, bias, or scaler statistic, a
    negative scaler std, or hyperparameters ``TrainConfig`` refuses."""


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------

class NoFeaturesError(ProcexError):
    """The process has neither attributes nor activities: nothing to attribute."""


class InsufficientSamplesError(ProcexError):
    """Too few usable samples to fit a surrogate model."""


class SingularSystemError(ProcexError):
    """The surrogate normal equations are singular (only possible at ridge 0)."""


class RejectionBudgetExhaustedError(ProcexError):
    """Rejection sampling hit its attempt budget before collecting enough."""


class EmptySamplesError(ProcexError):
    """A metric was asked to average over an empty perturbation set."""


class NoMatchingInstancesError(ProcexError):
    """Instance selection for an experiment matched no trace in the log."""


@contextmanager
def _utf8(path: str | Path, error: Callable[[Any, Any, str], ProcexError]) -> Iterator[None]:
    """Refuse a byte that is not UTF-8, met while reading the file at
    ``path``, with ``error(line, col, found)``. A text read counts offsets
    from the chunk it decoded, so a regular file is decoded again whole; a
    stream cannot be read again, and its line and column are ``?``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        line = col = "?"
        found = f"byte 0x{exc.object[exc.start]:02x}"
        try:
            if Path(path).is_file():
                Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            data, at = whole.object, whole.start
            line, col = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
            found = f"byte 0x{data[at]:02x} at offset {at}"
        raise error(line, col, found) from None


def _not_utf8(error: type[ProcexError]) -> Callable[[Any, Any, str], ProcexError]:
    """Builds ``error`` for :func:`_utf8` with a one-line message."""
    return lambda line, col, found: error(f"line {line}, col {col}: {found} is not UTF-8")
