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

import operator
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Union

# numpy is imported inside the batch functions that use it: parsing,
# validation and the causal graph run without it, and `validate` and
# `causal-graph` then start without paying its import.

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
    "eval_guard",
    "eval_guard_batch",
    "guard_attributes",
    "derive_causality_graph",
    "xor_branch_rows",
    "execute_rows",
    "route_signatures",
    "conformant_rows",
    "reachable_indicators",
    "topological_order",
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


def eval_guard(guard: GuardExpr, attrs: Mapping[str, float]) -> bool:
    """Evaluate a guard against a single attribute assignment: a one-row
    view of :func:`eval_guard_batch`, so every comparison is evaluated."""
    import numpy as np
    columns = {name: np.array([value]) for name, value in attrs.items()}
    return bool(eval_guard_batch(guard, columns)[0])


def eval_guard_batch(guard: GuardExpr, attrs: Mapping[str, np.ndarray]) -> np.ndarray:
    """Vectorized :func:`eval_guard` over column arrays of equal length."""
    import numpy as np
    if isinstance(guard, Comparison):
        try:
            col = attrs[guard.attribute]
        except KeyError:
            raise MissingAttributeError(
                f"guard references attribute {guard.attribute!r} "
                "which is absent from the assignment"
            ) from None
        return _CMP_FUNCS[guard.op](np.asarray(col), guard.value)
    if isinstance(guard, Not):
        return ~eval_guard_batch(guard.operand, attrs)
    if isinstance(guard, And):
        return eval_guard_batch(guard.left, attrs) & eval_guard_batch(guard.right, attrs)
    if isinstance(guard, Or):
        return eval_guard_batch(guard.left, attrs) | eval_guard_batch(guard.right, attrs)
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
    if value == int(value) and abs(value) < 1e16:
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
        """See :func:`topological_order`."""
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


def topological_order(defn: ProcessDefinition) -> tuple[str, ...]:
    """Node names ordered so every node appears after all its predecessors.

    Deterministic (Kahn's algorithm seeded in declaration order). Requires an
    acyclic graph; raises ``CyclicGraphError`` otherwise. Computed once per
    definition, like its other derived views.
    """
    return defn._topological_order


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
        return float(tok.text)

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
    report = validate(defn)
    if report.findings:
        first = report.findings[0]
        exc = _RAISABLE_RULES.get(first.rule, InvalidDefinitionError)
        raise exc(f"{first.subject}: {first.message}")
    return defn


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
            topological_order(defn)
        except CyclicGraphError as exc:
            findings.append(Finding("CyclicGraph", defn.name, str(exc)))
        else:
            reached = {defn.start}
            frontier = [defn.start]
            while frontier:
                for succ in node_successors(defn.node(frontier.pop())):
                    if succ not in reached:
                        reached.add(succ)
                        frontier.append(succ)
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

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    def sources(self) -> tuple[str, ...]:
        return tuple(sorted({s for s, _ in self.edges}))

    def targets_of(self, attribute: str) -> tuple[str, ...]:
        return tuple(sorted({t for s, t in self.edges if s == attribute}))

    def to_json_dict(self) -> dict:
        return {"edges": [[s, t] for s, t in self.edges]}


def _path_masks(
    defn: ProcessDefinition,
    pinned: Mapping[str, str],
    join: Callable[..., frozenset[int]] = frozenset.union,
) -> dict[str, frozenset[int]]:
    """Activity masks of the paths from each node to an end, by node name.

    One fold over :func:`topological_order` from the ends back. Bit ``i``
    of a mask stands for ``defn.activity_names[i]``. An end node yields
    ``{0}``, an activity ORs its bit into every mask of its successor, an
    xor gateway in ``pinned`` takes the successor it maps to, and any other
    gateway joins its successors' sets with ``join``.
    """
    bit = {name: 1 << i for i, name in enumerate(defn.activity_names)}
    masks: dict[str, frozenset[int]] = {}
    for name in reversed(topological_order(defn)):
        node = defn.node(name)
        if isinstance(node, EndNode):
            masks[name] = frozenset({0})
        elif isinstance(node, Activity):
            masks[name] = frozenset(m | bit[name] for m in masks[node.successor])
        elif name in pinned:
            masks[name] = masks[pinned[name]]
        else:
            masks[name] = join(*(masks[s] for s in node_successors(node)))
    return masks


def derive_causality_graph(defn: ProcessDefinition) -> CausalityGraph:
    """Read attribute-to-activity causal edges off the routing structure.

    An edge (attr, activity) exists iff attr occurs in the guard of some
    ``when`` branch of an xor gateway and the activity is reachable
    downstream of that branch but not of some later one (a later ``when``
    or ``otherwise``), or the reverse. Under first-match routing those are
    the pairs of branches the guard's value chooses between. Reachability
    is one mask per node: :func:`_path_masks` with no xor pinned and every
    gateway OR-ing its successors' masks, so no path is enumerated.
    """
    def or_join(*sets: frozenset[int]) -> frozenset[int]:
        return frozenset({reduce(operator.or_, frozenset.union(*sets))})

    reach = _path_masks(defn, {}, or_join)
    names = defn.activity_names
    edges: set[tuple[str, str]] = set()
    for node in defn.xor_gateways:
        masks = [next(iter(reach[succ])) for succ in node_successors(node)]
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

def xor_branch_rows(
    gateway: XorGateway, attr_columns: Mapping[str, np.ndarray], n: int
) -> list[np.ndarray]:
    """Which of ``n`` rows take each successor of an xor gateway.

    One boolean mask per entry of :func:`node_successors`: the first
    ``when`` whose guard holds wins, and ``otherwise`` takes the rest, so
    every row is in exactly one mask.
    """
    import numpy as np
    remaining = np.ones(n, dtype=bool)
    rows = []
    for branch in gateway.branches:
        take = remaining & eval_guard_batch(branch.guard, attr_columns)
        rows.append(take)
        remaining &= ~take
    rows.append(remaining)
    return rows


def execute_rows(
    defn: ProcessDefinition,
    attr_columns: Mapping[str, np.ndarray],
    n: int,
    draw: Callable[[np.ndarray], np.ndarray],
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Execute the process on ``n`` cases at once; the only executor.

    Xor gateways route by :func:`xor_branch_rows`. Each choice gateway, in
    topological order, calls ``draw(arrived_mask)`` once and sends each
    arrived row to the first branch whose cumulative probability exceeds the
    row's entry of the result (the last branch if none does). Returns the
    0/1 indicator matrix over ``defn.activity_names``, shape ``(n, A)``, and
    each end node's arrival mask by name. The matrix is the transposed view
    of feature-major ``(A, n)`` rows, one per activity; pass ``out`` to have
    them written there (every row is overwritten).
    """
    import numpy as np
    arrivals: dict[str, np.ndarray] = {
        node.name: np.zeros(n, dtype=bool) for node in defn.nodes
    }
    arrivals[defn.start][:] = True
    col = {name: i for i, name in enumerate(defn.activity_names)}
    if out is None:
        out = np.empty((len(col), n))
    for name in topological_order(defn):
        node = defn.node(name)
        mask = arrivals[name]
        if isinstance(node, Activity):
            # The order holds every node once, so each row is written once.
            out[col[name]] = mask
            arrivals[node.successor] |= mask
        elif isinstance(node, XorGateway):
            branch_rows = xor_branch_rows(node, attr_columns, n)
            for target, rows in zip(node_successors(node), branch_rows):
                arrivals[target] |= mask & rows
        elif isinstance(node, ChoiceGateway):
            u = draw(mask)
            remaining = mask.copy()
            cumulative = 0.0
            for branch in node.branches:
                cumulative += branch.probability
                take = remaining & (u < cumulative)
                arrivals[branch.target] |= take
                remaining &= ~take
            arrivals[node.branches[-1].target] |= remaining
        elif not isinstance(node, EndNode):
            raise TypeError(f"not a node: {node!r}")
    return out.T, {end.name: arrivals[end.name] for end in defn.end_nodes}


def route_signatures(
    defn: ProcessDefinition, attr_columns: Mapping[str, np.ndarray], n: int
) -> np.ndarray:
    """Branch index each of ``n`` rows takes at every xor gateway.

    Returns an integer matrix with one row per case and one column per
    gateway of ``defn.xor_gateways``; entry ``k`` means the row follows
    ``node_successors(gateway)[k]`` (see :func:`xor_branch_rows`), so
    ``otherwise`` is ``len(branches)``.
    """
    import numpy as np
    routes = np.empty((n, len(defn.xor_gateways)), dtype=np.intp)
    for j, gateway in enumerate(defn.xor_gateways):
        for k, rows in enumerate(xor_branch_rows(gateway, attr_columns, n)):
            routes[rows, j] = k
    return routes


def _route_masks(defn: ProcessDefinition, route: tuple[int, ...]) -> frozenset[int]:
    """Activity masks of every root-to-end path when each xor gateway takes
    the branch ``route`` gives it (aligned to ``defn.xor_gateways``); choice
    branches stay free."""
    pinned = {g.name: node_successors(g)[k] for g, k in zip(defn.xor_gateways, route)}
    return _path_masks(defn, pinned)[defn.start]


# Mixed-radix row keys stay below this bound, so int64 arithmetic is exact.
_KEY_LIMIT = 1 << 62


def _row_keys(digits: list[tuple[np.ndarray, int]], n: int) -> np.ndarray:
    """One integer per row, equal for two rows iff all their digits are.

    Each digit is a column of non-negative integers below its radix. When the
    next digit would overflow, the keys so far are renumbered densely (below
    ``n``) first, so the key stays exact for any number of columns.
    """
    import numpy as np
    keys = np.zeros(n, dtype=np.int64)
    bound = 1
    for column, radix in digits:
        if bound * radix > _KEY_LIMIT:
            keys = np.unique(keys, return_inverse=True)[1]
            bound = n
        keys = keys * radix + column
        bound *= radix
    return keys


def conformant_rows(
    defn: ProcessDefinition,
    attr_columns: Mapping[str, np.ndarray],
    indicators: np.ndarray,
) -> np.ndarray:
    """For each row, whether some root-to-end path under its attributes
    yields its indicator row.

    ``indicators`` has one row per case and one column per entry of
    ``defn.activity_names``; a non-zero cell means the activity occurred.
    The path masks are folded once per distinct xor route, and membership
    is tested once per distinct (route, indicator row) pair, on the row
    packed into one int.
    """
    import numpy as np
    present = np.asarray(indicators) != 0
    n = len(present)
    routes = route_signatures(defn, attr_columns, n)
    digits = [
        (routes[:, j], len(g.branches) + 1) for j, g in enumerate(defn.xor_gateways)
    ]
    digits.extend((column, 2) for column in present.T)
    _, first, inverse = np.unique(
        _row_keys(digits, n), return_index=True, return_inverse=True
    )
    packed = np.packbits(present[first], axis=1, bitorder="little")
    reachable: dict[tuple[int, ...], frozenset[int]] = {}
    hits = np.empty(len(first), dtype=bool)
    for j, row in enumerate(first):
        route = tuple(routes[row].tolist())
        if route not in reachable:
            reachable[route] = _route_masks(defn, route)
        hits[j] = int.from_bytes(packed[j].tobytes(), "little") in reachable[route]
    return hits[inverse]


def reachable_indicators(
    defn: ProcessDefinition, attrs: Mapping[str, float]
) -> frozenset[tuple[int, ...]]:
    """All activity-indicator vectors realizable under a fixed assignment.

    Xor gateways route deterministically by their guards under ``attrs``
    (values outside declared bounds are evaluated literally); choice branches
    remain free, so the result enumerates every root-to-end path the
    assignment permits. Vector positions follow ``defn.activity_names``.
    """
    import numpy as np
    columns = {name: np.array([value]) for name, value in attrs.items()}
    route = tuple(route_signatures(defn, columns, 1)[0].tolist())
    positions = range(len(defn.activity_names))
    return frozenset(
        tuple(mask >> i & 1 for i in positions)
        for mask in _route_masks(defn, route)
    )


# ---------------------------------------------------------------------------
# Bundled fixture
# ---------------------------------------------------------------------------

def fixture_path(name: str = "loan.bp") -> Path:
    """Filesystem path of a bundled process fixture."""
    return Path(str(resources.files("procex").joinpath("fixtures", name)))


def load_fixture(name: str = "loan.bp") -> ProcessDefinition:
    """Parse a bundled process fixture."""
    return parse_process(fixture_path(name).read_text(encoding="utf-8"))
