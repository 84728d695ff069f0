"""Exception hierarchy shared by every module in the package.

All domain errors derive from :class:`ProcexError` so callers (and the CLI)
can distinguish "your input is bad" from genuine programming bugs. Each class
carries a human-readable message; a few add structured fields that tests and
tools rely on.
"""

from __future__ import annotations


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
    """A model file holds a non-finite weight, bias, or scaler statistic, or
    a negative scaler std."""


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
