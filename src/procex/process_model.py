"""Textual process definitions: parsing, validation, and structural analysis.

A process definition declares numeric case attributes, a start edge, and a
graph of activities, gateways, and labeled end nodes. Two gateway kinds exist:

* ``xor`` gateways route deterministically by evaluating guard expressions
  over the case attributes (first matching ``when`` branch wins, with a
  mandatory ``otherwise`` fallback);
* ``choice`` gateways route stochastically with fixed branch probabilities.

The grammar is line-oriented only by convention. Newlines are ordinary
whitespace to the parser, so gateway blocks may span lines; the keywords
(``process``, ``attr``, ``numeric``, ``in``, ``start``, ``activity``,
``gateway``, ``choice``, ``when``, ``otherwise``, ``end``, ``label``) are
reserved and cannot be used as names. ``#`` starts a comment that runs to the
end of the line.

Routing graphs must be acyclic with every declared node reachable from the
start edge; loops and parallel branches are out of scope, which keeps path
enumeration finite.

Everything in this module is an immutable value; all functions are pure.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Union

# numpy is imported inside the batch functions that use it: parsing,
# validation, the step plan and the causal graph run without it, and
# `validate` and `causal-graph` then start without paying its import.

from .errors import (
    BadProbabilitySumError,
    CyclicGraphError,
    DslSyntaxError,
    DuplicateNameError,
    InvalidDefinitionError,
    MissingAttributeError,
    UnknownAttributeError,
    UnknownTargetError,
    UnreachableNodeError,
)

__all__ = [
    "Comparison",
    "Not",
    "And",
    "Or",
    "GuardExpr",
    "AttributeDecl",
    "Activity",
    "XorBranch",
    "XorGateway",
    "ChoiceBranch",
    "ChoiceGateway",
    "EndNode",
    "Node",
    "ProcessDefinition",
    "Finding",
    "ValidationReport",
    "CausalityGraph",
    "parse_process",
    "parse_process_structure",
    "parse_guard",
    "serialize_process",
    "format_guard",
    "validate",
    "eval_guard_batch",
    "guard_attributes",
    "derive_causality_graph",
    "execute_rows",
    "conformant_rows",
    "reachable_indicators",
    "node_successors",
    "fixture_path",
    "POSITIVE",
    "NEGATIVE",
    "LABELS",
]

POSITIVE = "POSITIVE"
NEGATIVE = "NEGATIVE"
LABELS = (POSITIVE, NEGATIVE)

_KEYWORDS = frozenset(
    {
        "process",
        "attr",
        "numeric",
        "in",
        "start",
        "activity",
        "gateway",
        "choice",
        "when",
        "otherwise",
        "end",
        "label",
    }
)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

PROBABILITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Guard expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """``attribute op value`` with op one of ``<``, ``<=``, ``>``, ``>=``, ``==``."""

    attribute: str
    op: str
    value: float


@dataclass(frozen=True)
class Not:
    operand: "GuardExpr"


@dataclass(frozen=True)
class And:
    left: "GuardExpr"
    right: "GuardExpr"


@dataclass(frozen=True)
class Or:
    left: "GuardExpr"
    right: "GuardExpr"


GuardExpr = Union[Comparison, Not, And, Or]

_CMP_FUNCS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def eval_guard_batch(guard: GuardExpr, attrs: Mapping[str, np.ndarray]) -> np.ndarray:
    """One boolean per row of equal-length attribute columns (arrays or
    sequences). Every comparison is evaluated; an absent attribute raises
    ``MissingAttributeError``.

    The columns are converted with ``np.asarray``, the guard is compiled by
    :func:`_compiled_guard` and the closure called; the process folds call
    the closures their definition's step plan holds on their own arrays.
    """
    import numpy as np
    return _compiled_guard(guard)({name: np.asarray(col) for name, col in attrs.items()})


def _compiled_guard(guard: GuardExpr) -> Callable[[Mapping[str, np.ndarray]], np.ndarray]:
    """The guard as one closure over attribute columns, which must be numpy
    arrays: a comparison compares the column it is given, ``!``, ``&&`` and
    ``||`` combine their operands' results, left operand first. Compiling
    imports nothing."""
    if isinstance(guard, Comparison):
        name, compare, value = guard.attribute, _CMP_FUNCS[guard.op], guard.value

        def comparison(attrs: Mapping[str, np.ndarray]) -> np.ndarray:
            try:
                col = attrs[name]
            except KeyError:
                raise MissingAttributeError(
                    f"guard references attribute {name!r} which is absent from the assignment"
                ) from None
            return compare(col, value)

        return comparison
    if isinstance(guard, Not):
        operand = _compiled_guard(guard.operand)
        return lambda attrs: ~operand(attrs)
    if isinstance(guard, (And, Or)):
        left, right = _compiled_guard(guard.left), _compiled_guard(guard.right)
        if isinstance(guard, And):
            return lambda attrs: left(attrs) & right(attrs)
        return lambda attrs: left(attrs) | right(attrs)
    raise TypeError(f"not a guard expression: {guard!r}")


def guard_attributes(guard: GuardExpr) -> frozenset[str]:
    """Set of attribute names mentioned anywhere in the guard."""
    if isinstance(guard, Comparison):
        return frozenset({guard.attribute})
    if isinstance(guard, Not):
        return guard_attributes(guard.operand)
    if isinstance(guard, (And, Or)):
        return guard_attributes(guard.left) | guard_attributes(guard.right)
    raise TypeError(f"not a guard expression: {guard!r}")


def _fmt_num(value: float) -> str:
    if abs(value) < 1e16 and value == int(value):  # inf and nan fail the first test
        return str(int(value))
    return repr(float(value))


_PREC_OR = 1
_PREC_AND = 2
_PREC_ATOM = 3


def format_guard(guard: GuardExpr, _parent: int = 0) -> str:
    """Render a guard in canonical concrete syntax (reparses to an equal AST)."""
    if isinstance(guard, Comparison):
        text, prec = f"{guard.attribute} {guard.op} {_fmt_num(guard.value)}", _PREC_ATOM
    elif isinstance(guard, Not):
        text, prec = f"!({format_guard(guard.operand)})", _PREC_ATOM
    elif isinstance(guard, And):
        text = f"{format_guard(guard.left, _PREC_AND)} && {format_guard(guard.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    elif isinstance(guard, Or):
        text = f"{format_guard(guard.left, _PREC_OR)} || {format_guard(guard.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    else:
        raise TypeError(f"not a guard expression: {guard!r}")
    if prec < _parent:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Nodes and definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeDecl:
    name: str
    lower: float
    upper: float


@dataclass(frozen=True)
class Activity:
    name: str
    successor: str


@dataclass(frozen=True)
class XorBranch:
    guard: GuardExpr
    target: str


@dataclass(frozen=True)
class XorGateway:
    name: str
    branches: tuple[XorBranch, ...]
    otherwise: str


@dataclass(frozen=True)
class ChoiceBranch:
    probability: float
    target: str


@dataclass(frozen=True)
class ChoiceGateway:
    name: str
    branches: tuple[ChoiceBranch, ...]


@dataclass(frozen=True)
class EndNode:
    name: str
    label: str


Node = Union[Activity, XorGateway, ChoiceGateway, EndNode]


def node_successors(node: Node) -> tuple[str, ...]:
    """Names of the nodes an edge leads to, in declared branch order."""
    if isinstance(node, Activity):
        return (node.successor,)
    if isinstance(node, XorGateway):
        return tuple(b.target for b in node.branches) + (node.otherwise,)
    if isinstance(node, ChoiceGateway):
        return tuple(b.target for b in node.branches)
    if isinstance(node, EndNode):
        return ()
    raise TypeError(f"not a node: {node!r}")


class _Step(NamedTuple):
    """One node of a definition's step plan: the node's kind (its class),
    its column in ``activity_names`` (-1 if not an activity), its successors
    as positions in the plan (in :func:`node_successors` order), a choice
    gateway's running sums of branch probabilities (all branches but the
    last, which takes every row left) and an xor gateway's ``when`` guards,
    each compiled once by :func:`_compiled_guard`."""

    kind: type
    column: int
    successors: tuple[int, ...]
    cumulative: tuple[float, ...]
    guards: tuple[Callable[[Mapping[str, np.ndarray]], np.ndarray], ...]


class _StepPlan(NamedTuple):
    """The steps in topological order, the start node's position, and each
    node's position by name."""

    steps: tuple[_Step, ...]
    start: int
    position: dict[str, int]


@dataclass(frozen=True)
class ProcessDefinition:
    """A full process: attributes, a start edge, and the routing graph.

    ``attributes`` and ``nodes`` keep declaration order; the sorted views
    below define the canonical feature order used elsewhere in the package.
    """

    name: str
    attributes: tuple[AttributeDecl, ...]
    start: str
    nodes: tuple[Node, ...]

    @cached_property
    def _node_map(self) -> dict[str, Node]:
        return {n.name: n for n in self.nodes}

    def node(self, name: str) -> Node:
        return self._node_map[name]

    def has_node(self, name: str) -> bool:
        return name in self._node_map

    @cached_property
    def activity_names(self) -> tuple[str, ...]:
        """Activity names sorted lexicographically."""
        return tuple(sorted(n.name for n in self.nodes if isinstance(n, Activity)))

    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names sorted lexicographically."""
        return tuple(sorted(a.name for a in self.attributes))

    @cached_property
    def attribute_bounds(self) -> dict[str, tuple[float, float]]:
        return {a.name: (a.lower, a.upper) for a in self.attributes}

    @cached_property
    def xor_gateways(self) -> tuple[XorGateway, ...]:
        return tuple(n for n in self.nodes if isinstance(n, XorGateway))

    @cached_property
    def choice_gateways(self) -> tuple[ChoiceGateway, ...]:
        return tuple(n for n in self.nodes if isinstance(n, ChoiceGateway))

    @cached_property
    def end_nodes(self) -> tuple[EndNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, EndNode))

    @cached_property
    def _topological_order(self) -> tuple[str, ...]:
        """Node names ordered so every node appears after all its
        predecessors: Kahn's algorithm seeded in declaration order. Raises
        ``CyclicGraphError`` for a cyclic graph."""
        successors = {n.name: node_successors(n) for n in self.nodes}
        indeg = dict.fromkeys(successors, 0)
        for targets in successors.values():
            for succ in targets:
                if succ in indeg:
                    indeg[succ] += 1
        # The order doubles as the FIFO queue: the loop reaches appended names.
        order = [name for name, d in indeg.items() if d == 0]
        for name in order:
            for succ in successors[name]:
                if succ in indeg:
                    indeg[succ] -= 1
                    if indeg[succ] == 0:
                        order.append(succ)
        if len(order) != len(self.nodes):
            stuck = sorted(set(indeg) - set(order))
            raise CyclicGraphError(f"cycle through nodes {stuck}")
        return tuple(order)

    @cached_property
    def _step_plan(self) -> _StepPlan:
        """The topological order as every fold over a process walks it
        (:func:`execute_rows`, :func:`conformant_rows`,
        :func:`reachable_indicators`, :func:`derive_causality_graph` and the
        simulator's path order), built once per definition and only for a
        definition :func:`validate` accepts: otherwise the first finding's
        typed error is raised, as :func:`parse_process` raises it."""
        _refuse_findings(validate(self))
        order = self._topological_order
        position = {name: i for i, name in enumerate(order)}
        column = {name: j for j, name in enumerate(self.activity_names)}
        steps = []
        for name in order:
            node = self._node_map[name]
            cumulative: list[float] = []
            guards: tuple = ()
            if isinstance(node, ChoiceGateway):
                total = 0.0
                for branch in node.branches[:-1]:
                    total += branch.probability
                    cumulative.append(total)
            elif isinstance(node, XorGateway):
                guards = tuple(_compiled_guard(branch.guard) for branch in node.branches)
            successors = tuple(position[succ] for succ in node_successors(node))
            steps.append(_Step(type(node), column.get(name, -1), successors,
                               tuple(cumulative), guards))
        return _StepPlan(tuple(steps), position[self.start], position)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[^\S\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<num>-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>->|<=|>=|==|&&|\|\||[{}()\[\],:<>!])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "word" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(line, col, "a token", repr(text[pos]))
        kind = m.lastgroup
        chunk = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind in ("num", "word", "sym"):
                tokens.append(_Token(kind, chunk, line, col))
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "<end of input>", line, col))
    return tokens


# Deepest guard the parser accepts: a syntax tree at most this many levels
# deep (a comparison is one level; `&&`, `||` and `!` each add one above their
# operands) inside at most this many nested parentheses. The guard helpers
# recurse on the tree and the parser on parentheses, so the bound keeps both
# far from Python's recursion limit.
GUARD_MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._open_parens = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _error(self, expected: str, tok: _Token) -> DslSyntaxError:
        found = tok.text if tok.kind == "eof" else repr(tok.text)
        return DslSyntaxError(tok.line, tok.col, expected, found)

    def _expect_sym(self, text: str) -> _Token:
        tok = self._next()
        if tok.kind != "sym" or tok.text != text:
            raise self._error(repr(text), tok)
        return tok

    def _expect_word(self, text: str) -> _Token:
        tok = self._next()
        if tok.kind != "word" or tok.text != text:
            raise self._error(repr(text), tok)
        return tok

    def _ident(self) -> str:
        tok = self._next()
        if tok.kind != "word":
            raise self._error("an identifier", tok)
        if tok.text in _KEYWORDS:
            raise self._error("an identifier (not a keyword)", tok)
        return tok.text

    def _number(self) -> float:
        tok = self._next()
        if tok.kind != "num":
            raise self._error("a number", tok)
        number = float(tok.text)
        if not math.isfinite(number):  # a literal past the float range
            raise self._error("a finite number", tok)
        return number

    # -- declarations ------------------------------------------------------

    def parse(self) -> ProcessDefinition:
        self._expect_word("process")
        name = self._ident()
        attributes: list[AttributeDecl] = []
        nodes: list[Node] = []
        start: str | None = None
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                break
            if tok.kind != "word":
                raise self._error("a declaration keyword", tok)
            if tok.text == "attr":
                attributes.append(self._parse_attr())
            elif tok.text == "start":
                if start is not None:
                    raise DuplicateNameError("start edge declared more than once")
                self._next()
                self._expect_sym("->")
                start = self._ident()
            elif tok.text == "activity":
                self._next()
                a_name = self._ident()
                self._expect_sym("->")
                nodes.append(Activity(a_name, self._ident()))
            elif tok.text == "gateway":
                nodes.append(self._parse_gateway())
            elif tok.text == "end":
                self._next()
                e_name = self._ident()
                self._expect_word("label")
                tok = self._next()
                if tok.kind != "word" or tok.text not in LABELS:
                    raise self._error("'POSITIVE' or 'NEGATIVE'", tok)
                nodes.append(EndNode(e_name, tok.text))
            else:
                raise self._error(
                    "one of 'attr', 'start', 'activity', 'gateway', 'end'", tok
                )
        return ProcessDefinition(
            name=name,
            attributes=tuple(attributes),
            start="" if start is None else start,
            nodes=tuple(nodes),
        )

    def _parse_attr(self) -> AttributeDecl:
        self._expect_word("attr")
        name = self._ident()
        self._expect_sym(":")
        self._expect_word("numeric")
        self._expect_word("in")
        self._expect_sym("[")
        lower = self._number()
        self._expect_sym(",")
        upper = self._number()
        self._expect_sym("]")
        return AttributeDecl(name, lower, upper)

    def _parse_gateway(self) -> Node:
        self._expect_word("gateway")
        name = self._ident()
        tok = self._peek()
        if tok.kind == "word" and tok.text == "choice":
            self._next()
            self._expect_sym("{")
            branches: list[ChoiceBranch] = []
            while self._peek().kind == "num":
                p = self._number()
                self._expect_sym("->")
                branches.append(ChoiceBranch(p, self._ident()))
            self._expect_sym("}")
            return ChoiceGateway(name, tuple(branches))
        self._expect_sym("{")
        whens: list[XorBranch] = []
        while True:
            tok = self._peek()
            if tok.kind == "word" and tok.text == "when":
                self._next()
                guard, _ = self._parse_or()
                self._expect_sym("->")
                whens.append(XorBranch(guard, self._ident()))
            elif tok.kind == "word" and tok.text == "otherwise":
                self._next()
                self._expect_sym("->")
                otherwise = self._ident()
                break
            else:
                raise self._error("'when' or 'otherwise'", tok)
        self._expect_sym("}")
        return XorGateway(name, tuple(whens), otherwise)

    # -- guard expressions -------------------------------------------------

    # The _parse_* methods below return the expression and its tree depth
    # (a comparison is 1).

    def _guard_depth(self, depth: int, tok: _Token) -> int:
        """``depth``, unless it passes the limit at ``tok``."""
        if depth > GUARD_MAX_DEPTH:
            raise self._error(f"a guard at most {GUARD_MAX_DEPTH} levels deep", tok)
        return depth

    def _parse_or(self) -> tuple[GuardExpr, int]:
        expr, depth = self._parse_and()
        while self._peek().kind == "sym" and self._peek().text == "||":
            tok = self._next()
            right, right_depth = self._parse_and()
            expr = Or(expr, right)
            depth = self._guard_depth(1 + max(depth, right_depth), tok)
        return expr, depth

    def _parse_and(self) -> tuple[GuardExpr, int]:
        expr, depth = self._parse_unary()
        while self._peek().kind == "sym" and self._peek().text == "&&":
            tok = self._next()
            right, right_depth = self._parse_unary()
            expr = And(expr, right)
            depth = self._guard_depth(1 + max(depth, right_depth), tok)
        return expr, depth

    def _parse_unary(self) -> tuple[GuardExpr, int]:
        if self._peek().kind == "sym" and self._peek().text == "!":
            tok = self._next()
            operand, depth = self._parse_primary()
            return Not(operand), self._guard_depth(1 + depth, tok)
        return self._parse_primary()

    def _parse_primary(self) -> tuple[GuardExpr, int]:
        tok = self._peek()
        if tok.kind == "sym" and tok.text == "(":
            self._next()
            self._open_parens = self._guard_depth(self._open_parens + 1, tok)
            parsed = self._parse_or()
            self._expect_sym(")")
            self._open_parens -= 1
            return parsed
        attribute = self._ident()
        tok = self._next()
        if tok.kind != "sym" or tok.text not in _CMP_FUNCS:
            raise self._error("a comparison operator", tok)
        return Comparison(attribute, tok.text, self._number()), 1


def parse_guard(text: str) -> GuardExpr:
    """Parse a standalone guard expression (mainly for tests and tooling)."""
    parser = _Parser(_tokenize(text))
    expr, _ = parser._parse_or()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise parser._error("end of input", trailing)
    return expr


_RAISABLE_RULES = {
    "DuplicateName": DuplicateNameError,
    "UnknownTarget": UnknownTargetError,
    "UnknownAttribute": UnknownAttributeError,
    "CyclicGraph": CyclicGraphError,
    "UnreachableNode": UnreachableNodeError,
    "BadProbabilitySum": BadProbabilitySumError,
    "BadProbabilityValue": BadProbabilitySumError,
}


def parse_process_structure(text: str) -> ProcessDefinition:
    """Parse without validating, so tooling can inspect invalid definitions.

    Still raises ``DslSyntaxError`` (and ``DuplicateNameError`` for a second
    start edge); everything else is left for :func:`validate` to report.
    """
    return _Parser(_tokenize(text)).parse()


def parse_process(text: str) -> ProcessDefinition:
    """Parse and fully validate process text.

    Raises ``DslSyntaxError`` with line/column on malformed input, and a typed
    structural error (``DuplicateNameError``, ``UnknownTargetError``,
    ``UnknownAttributeError``, ``CyclicGraphError``, ``UnreachableNodeError``,
    ``BadProbabilitySumError``, or ``InvalidDefinitionError``) when the text
    parses but violates a definition invariant.
    """
    defn = parse_process_structure(text)
    _refuse_findings(validate(defn))
    return defn


def _refuse_findings(report: ValidationReport) -> None:
    """Raise the typed error of the report's first finding, if it has one."""
    if report.findings:
        first = report.findings[0]
        exc = _RAISABLE_RULES.get(first.rule, InvalidDefinitionError)
        raise exc(f"{first.subject}: {first.message}")


def serialize_process(defn: ProcessDefinition) -> str:
    """Render a definition in canonical text form.

    ``parse_process(serialize_process(d))`` equals ``d`` for any valid ``d``,
    and serialize∘parse is the identity on already-canonical text.
    """
    lines = [f"process {defn.name}"]
    for a in defn.attributes:
        lines.append(
            f"attr {a.name}: numeric in [{_fmt_num(a.lower)}, {_fmt_num(a.upper)}]"
        )
    lines.append(f"start -> {defn.start}")
    for node in defn.nodes:
        if isinstance(node, Activity):
            lines.append(f"activity {node.name} -> {node.successor}")
        elif isinstance(node, XorGateway):
            parts = [f"gateway {node.name} {{"]
            for branch in node.branches:
                parts.append(f"when {format_guard(branch.guard)} -> {branch.target}")
            parts.append(f"otherwise -> {node.otherwise} }}")
            lines.append(" ".join(parts))
        elif isinstance(node, ChoiceGateway):
            parts = [f"gateway {node.name} choice {{"]
            for branch in node.branches:
                parts.append(f"{_fmt_num(branch.probability)} -> {branch.target}")
            parts.append("}")
            lines.append(" ".join(parts))
        elif isinstance(node, EndNode):
            lines.append(f"end {node.name} label {node.label}")
        else:
            raise TypeError(f"not a node: {node!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    """One violated rule: which rule, on which subject, and why."""

    rule: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def _check_name(findings: list[Finding], kind: str, name: str) -> None:
    if not _NAME_RE.match(name) or name in _KEYWORDS:
        findings.append(
            Finding("BadName", name, f"{kind} name {name!r} is not a legal identifier")
        )


def validate(defn: ProcessDefinition) -> ValidationReport:
    """Check every structural invariant; findings are data, not exceptions.

    Rules reported: BadName, DuplicateName, BadAttributeBounds, BadLabel,
    BadProbabilityValue, BadProbabilitySum, MissingStart, UnknownTarget,
    UnknownAttribute, NoEndNode, CyclicGraph, UnreachableNode.
    """
    findings: list[Finding] = []

    _check_name(findings, "process", defn.name)
    seen_attrs: set[str] = set()
    for a in defn.attributes:
        _check_name(findings, "attribute", a.name)
        if a.name in seen_attrs:
            findings.append(
                Finding("DuplicateName", a.name, "attribute declared more than once")
            )
        seen_attrs.add(a.name)
        if not a.lower < a.upper:
            findings.append(
                Finding(
                    "BadAttributeBounds",
                    a.name,
                    f"bounds [{a.lower}, {a.upper}] are not an increasing interval",
                )
            )
        elif not math.isfinite(a.upper - a.lower):
            findings.append(
                Finding(
                    "BadAttributeBounds",
                    a.name,
                    f"bounds [{a.lower}, {a.upper}] have no finite width",
                )
            )

    seen_nodes: set[str] = set()
    for node in defn.nodes:
        _check_name(findings, "node", node.name)
        if node.name in seen_nodes:
            findings.append(
                Finding("DuplicateName", node.name, "node declared more than once")
            )
        seen_nodes.add(node.name)
        if isinstance(node, EndNode) and node.label not in LABELS:
            findings.append(
                Finding("BadLabel", node.name, f"label {node.label!r} is not allowed")
            )
        if isinstance(node, ChoiceGateway):
            total = 0.0
            for branch in node.branches:
                total += branch.probability
                if not 0.0 < branch.probability <= 1.0:
                    findings.append(
                        Finding(
                            "BadProbabilityValue",
                            node.name,
                            f"branch probability {branch.probability} outside (0, 1]",
                        )
                    )
            if abs(total - 1.0) > PROBABILITY_TOL:
                findings.append(
                    Finding(
                        "BadProbabilitySum",
                        node.name,
                        f"branch probabilities sum to {total!r}, not 1",
                    )
                )

    targets_ok = True
    if not defn.start:
        findings.append(Finding("MissingStart", defn.name, "no start edge declared"))
        targets_ok = False
    elif not defn.has_node(defn.start):
        findings.append(
            Finding("UnknownTarget", defn.start, "start edge points at an undeclared node")
        )
        targets_ok = False
    for node in defn.nodes:
        for succ in node_successors(node):
            if not defn.has_node(succ):
                findings.append(
                    Finding(
                        "UnknownTarget",
                        succ,
                        f"edge from {node.name!r} points at an undeclared node",
                    )
                )
                targets_ok = False

    declared = frozenset(a.name for a in defn.attributes)
    for node in defn.nodes:
        if isinstance(node, XorGateway):
            for branch in node.branches:
                for attr in sorted(guard_attributes(branch.guard) - declared):
                    findings.append(
                        Finding(
                            "UnknownAttribute",
                            attr,
                            f"guard on {node.name!r} references an undeclared attribute",
                        )
                    )

    if not defn.end_nodes:
        findings.append(Finding("NoEndNode", defn.name, "no end node declared"))

    if targets_ok and not any(f.rule == "DuplicateName" for f in findings):
        try:
            order = defn._topological_order
        except CyclicGraphError as exc:
            findings.append(Finding("CyclicGraph", defn.name, str(exc)))
        else:
            # Every predecessor of a node comes before it in the order.
            reached = {defn.start}
            for name in order:
                if name in reached:
                    reached.update(node_successors(defn.node(name)))
            for node in defn.nodes:
                if node.name not in reached:
                    findings.append(
                        Finding(
                            "UnreachableNode",
                            node.name,
                            "node cannot be reached from the start edge",
                        )
                    )

    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# Causality graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CausalityGraph:
    """Directed (attribute -> activity) edges, lexicographically sorted."""

    edges: tuple[tuple[str, str], ...]

    def to_json_dict(self) -> dict:
        return {"edges": [[s, t] for s, t in self.edges]}


def derive_causality_graph(defn: ProcessDefinition) -> CausalityGraph:
    """Read attribute-to-activity causal edges off the routing structure.

    An edge (attr, activity) exists iff attr occurs in the guard of some
    ``when`` branch of an xor gateway and the activity is reachable
    downstream of that branch but not of some later one (a later ``when``
    or ``otherwise``), or the reverse. Under first-match routing those are
    the pairs of branches the guard's value chooses between. Reachability
    is one activity bitmask per node (bit ``i`` for activity ``i``), folded
    from the ends back over the step plan: a step's own column bit OR-ed
    with its successors' masks.
    """
    names = defn.activity_names
    plan = defn._step_plan
    reach = [0] * len(plan.steps)
    for i in reversed(range(len(plan.steps))):
        kind, column, successors, _, _ = plan.steps[i]
        mask = 1 << column if kind is Activity else 0
        for succ in successors:
            mask |= reach[succ]
        reach[i] = mask
    edges: set[tuple[str, str]] = set()
    for node in defn.xor_gateways:
        masks = [reach[succ] for succ in plan.steps[plan.position[node.name]].successors]
        for k, branch in enumerate(node.branches):
            flips = 0
            for later in masks[k + 1:]:
                flips |= masks[k] ^ later
            edges.update(
                (attr, name)
                for i, name in enumerate(names) if flips >> i & 1
                for attr in guard_attributes(branch.guard)
            )
    return CausalityGraph(edges=tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Execution and the conformance support set
# ---------------------------------------------------------------------------

def _first_match(
    guards: tuple[Callable[[Mapping[str, np.ndarray]], np.ndarray], ...],
    attr_columns: Mapping[str, np.ndarray],
    remaining: np.ndarray,
) -> list[np.ndarray]:
    """The rows of the mask ``remaining`` split among an xor's successors:
    each to the first ``when`` whose compiled guard holds, the rest to
    ``otherwise``. ``remaining`` is not written."""
    routed = []
    for guard in guards:
        taken = remaining & guard(attr_columns)
        routed.append(taken)
        remaining = remaining ^ taken
    routed.append(remaining)
    return routed


def execute_rows(
    defn: ProcessDefinition,
    attr_columns: Mapping[str, np.ndarray],
    n: int,
    draw: Callable[[np.ndarray], np.ndarray],
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Execute the process on ``n`` cases at once; the only executor.

    One walk over the definition's step plan, built once per definition.
    An xor gateway sends each arrived row to the first ``when`` whose guard
    holds, else to ``otherwise``. Each choice gateway, in topological order,
    calls ``draw(arrived_mask)`` once and sends each arrived row to the
    first branch whose cumulative probability exceeds the row's entry of
    the result (the last branch if none does). A node no row reaches is
    skipped, but a choice gateway among them is still drawn, with an
    all-False mask, so later draws never shift, and an activity among them
    gets a row of zeros. Returns the 0/1 indicator matrix over
    ``defn.activity_names``, shape ``(n, A)``, and each end node's arrival
    mask by name. The matrix is the transposed view of feature-major
    ``(A, n)`` rows, one per activity; pass ``out`` to have them written
    there (every row is overwritten).
    """
    import numpy as np
    plan = defn._step_plan
    if out is None:
        out = np.empty((len(defn.activity_names), n))
    # Each node's arrival mask; None while no row has arrived.
    arrived: list[np.ndarray | None] = [None] * len(plan.steps)
    arrived[plan.start] = np.ones(n, dtype=bool)
    for mask, (kind, column, successors, cumulative, guards) in zip(arrived, plan.steps):
        # The list iterator reads each entry when its step is reached, so it
        # sees every row routed there by earlier steps.
        if kind is ChoiceGateway:
            u = draw(np.zeros(n, dtype=bool) if mask is None else mask)
        if mask is None:
            if kind is Activity:
                out[column] = 0.0
            continue
        if kind is Activity:
            # The plan holds every node once, so each row is written once.
            out[column] = mask
            routed = [mask]
        elif kind is XorGateway:
            routed = _first_match(guards, attr_columns, mask)
        elif kind is ChoiceGateway:
            routed = []
            remaining = mask
            for threshold in cumulative:
                taken = remaining & (u < threshold)
                routed.append(taken)
                remaining = remaining ^ taken
            routed.append(remaining)
        else:
            continue
        for target, rows in zip(successors, routed):
            # A node's own mask is never empty; only a split can give none.
            if rows is mask or np.count_nonzero(rows):
                held = arrived[target]
                arrived[target] = rows if held is None else held | rows
    ends = {end.name: arrived[plan.position[end.name]] for end in defn.end_nodes}
    return out.T, {
        name: np.zeros(n, dtype=bool) if mask is None else mask for name, mask in ends.items()
    }


def conformant_rows(
    defn: ProcessDefinition,
    attr_columns: Mapping[str, np.ndarray],
    indicators: np.ndarray,
) -> np.ndarray:
    """For each row, whether some root-to-end path under its attributes
    yields its indicator row.

    ``indicators`` has one row per case and one column per entry of
    ``defn.activity_names``; a non-zero cell means the activity occurred.
    One walk over the step plan :func:`execute_rows` walks keeps for each
    node and row 0 if no path from the start reaches it visiting only the
    row's present activities, else 1 plus the most activities on such a
    path, in the smallest unsigned type that holds 1 plus every activity.
    An activity adds 1 to the non-zero counts of rows that have it and
    zeroes the others, an xor gateway passes each row with a non-zero count
    to the successor its guards pick, a choice gateway to every branch, and
    values meeting at a node take their maximum. A node that no row is
    passed to holds no counts and is skipped. A path visits each activity
    at most once, so a row conforms iff the largest value at an end node is
    1 plus its number of present activities.
    """
    import numpy as np
    present = np.asarray(indicators) != 0
    n = len(present)
    plan = defn._step_plan
    dtype = np.min_scalar_type(len(defn.activity_names) + 1)
    # Each node's counts; None while nothing is passed to it. No array held
    # here is written in place, so nodes may share one.
    most: list[np.ndarray | None] = [None] * len(plan.steps)
    most[plan.start] = np.ones(n, dtype=dtype)
    best = None
    for i, (kind, column, successors, _, guards) in enumerate(plan.steps):
        count = most[i]
        if count is None:
            continue
        # Dropped once read, so only the nodes still to come hold an array.
        most[i] = None
        if kind is Activity:
            passed = count + (count > 0)
            passed *= present[:, column]
            routed = [(successors[0], passed)]
        elif kind is XorGateway:
            routed = [
                (target, count * rows)
                for target, rows in zip(successors, _first_match(guards, attr_columns, count > 0))
                if np.count_nonzero(rows)
            ]
        elif kind is ChoiceGateway:
            routed = [(target, count) for target in successors]
        else:
            best = count if best is None else np.maximum(best, count)
            continue
        for target, arriving in routed:
            held = most[target]
            most[target] = arriving if held is None else np.maximum(held, arriving)
    if best is None:
        return np.zeros(n, dtype=bool)
    return best == 1 + present.sum(axis=1, dtype=dtype)


def reachable_indicators(
    defn: ProcessDefinition, attrs: Mapping[str, float]
) -> frozenset[tuple[int, ...]]:
    """All activity-indicator vectors realizable under a fixed assignment.

    Xor gateways route deterministically by their guards under ``attrs``
    (values outside declared bounds are evaluated literally); choice branches
    remain free, so the result enumerates every root-to-end path the
    assignment permits. Vector positions follow ``defn.activity_names``.

    A fold from the ends back over the step plan keeps each node's path
    masks to an end (bit ``i`` for activity ``i``): an end yields ``{0}``,
    an activity ORs its bit into its successor's masks, an xor takes its
    guards' pick, and a choice gateway unites its successors' sets.
    """
    import numpy as np
    columns = {name: np.array([value]) for name, value in attrs.items()}
    plan = defn._step_plan
    masks: list[frozenset[int]] = [frozenset()] * len(plan.steps)
    for i in reversed(range(len(plan.steps))):
        kind, column, successors, _, guards = plan.steps[i]
        if kind is EndNode:
            masks[i] = frozenset({0})
        elif kind is Activity:
            masks[i] = frozenset(m | 1 << column for m in masks[successors[0]])
        elif kind is XorGateway:
            taken = _first_match(guards, columns, np.ones(1, dtype=bool))
            masks[i] = next(masks[t] for t, rows in zip(successors, taken) if rows[0])
        else:
            masks[i] = frozenset.union(*(masks[t] for t in successors))
    positions = range(len(defn.activity_names))
    return frozenset(
        tuple(mask >> i & 1 for i in positions) for mask in masks[plan.start]
    )


# ---------------------------------------------------------------------------
# Bundled fixture
# ---------------------------------------------------------------------------

def fixture_path() -> Path:
    """Filesystem path of the bundled loan process."""
    return Path(str(resources.files(__package__).joinpath("fixtures", "loan.bp")))


def load_fixture() -> ProcessDefinition:
    """Parse the bundled loan process."""
    return parse_process(fixture_path().read_text(encoding="utf-8"))
