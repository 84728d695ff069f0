"""Random valid process definitions and an independent causality oracle.

The generator builds processes from regions. A region is a tree of
activities and gateways whose paths either stop at fresh end nodes or all
rejoin one node, the region's sink. A gateway may open a diamond: its tail is
built first, and every branch becomes a region sinking into that tail, so
branches rejoin. Xor gateways have one to three ``when`` branches, whose
guards overlap (first match wins), and each attribute occurs in at most one
comparison overall; choices nest, and some processes have no attributes at
all. Within that family the first-match causality rule and a pointwise sweep
agree: a guard's attribute decides between its branch and every later one,
any of which some assignment of the other attributes makes the next match,
and an activity off the tails is reachable through one branch region only.

The sweep oracle re-implements everything it needs (guard evaluation and
path enumeration) so it shares no code with the derivation under test.
``decisive_attribute`` reads the same guard comparisons to tell which
attribute of a conjunctive guard an instance sits nearest to,
``path_indicators`` enumerates root-to-end paths one at a time as the
reference for the conformance oracle, and ``simulate_reference`` walks one
case at a time with sequential draws as the reference for the simulator.
The enumerators keep explicit stacks, so they handle processes deeper than
Python's recursion limit. ``REJOINING``, ``CHAIN`` and ``NO_ATTRIBUTES`` are
hand-written processes: a DAG whose branches rejoin across gateways, one with
more than 64 activities, and one without attributes; ``NO_FEATURES_SOURCE``
has neither attributes nor activities.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np
from scipy import stats

from procex.features import FeatureSchema, Scaler
from procex.process_model import (
    Activity,
    And,
    AttributeDecl,
    ChoiceBranch,
    ChoiceGateway,
    Comparison,
    EndNode,
    GuardExpr,
    Not,
    Or,
    ProcessDefinition,
    XorBranch,
    XorGateway,
    parse_process,
    validate,
)

_OPS = ["<", "<=", ">", ">="]
_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def random_process(rng: np.random.Generator, index: int = 0) -> ProcessDefinition:
    """One random valid definition with at most 6 gateways."""
    n_attrs = int(rng.integers(0, 5))
    decls = []
    for i in range(n_attrs):
        lower = float(np.round(rng.uniform(-50.0, 50.0), 3))
        upper = lower + float(np.round(rng.uniform(10.0, 100.0), 3))
        decls.append(AttributeDecl(f"a{i}", lower, upper))
    bounds = {d.name: (d.lower, d.upper) for d in decls}
    free_attrs = [decls[i].name for i in rng.permutation(n_attrs)]
    budget = int(rng.integers(0, 7))
    nodes: list = []
    counters = {"act": 0, "gw": 0, "fin": 0}

    def fresh(kind: str) -> str:
        name = f"{kind}{counters[kind]}"
        counters[kind] += 1
        return name

    def make_comparison(attr: str) -> Comparison:
        lower, upper = bounds[attr]
        threshold = float(
            np.round(lower + (upper - lower) * rng.uniform(0.15, 0.85), 3)
        )
        if rng.random() < 0.05:
            op = "=="
        else:
            op = _OPS[int(rng.integers(0, len(_OPS)))]
        return Comparison(attr, op, threshold)

    def make_guard() -> GuardExpr:
        use_two = len(free_attrs) >= 2 and rng.random() < 0.5
        first = make_comparison(free_attrs.pop())
        if not use_two:
            if rng.random() < 0.2:
                return Not(first)
            return first
        second = make_comparison(free_attrs.pop())
        if rng.random() < 0.5:
            return And(first, second)
        return Or(first, second)

    def build(depth: int, sink: str | None) -> str:
        """A region's entry node; its paths end at ``sink``, or at fresh end
        nodes when ``sink`` is None."""
        nonlocal budget
        if depth >= 5 or rng.random() < 0.2 + 0.15 * depth:
            if sink is not None:
                return sink
            name = fresh("fin")
            label = "POSITIVE" if rng.random() < 0.5 else "NEGATIVE"
            nodes.append(EndNode(name, label))
            return name
        roll = rng.random()
        is_xor = roll < 0.35 and bool(free_attrs)
        if budget > 0 and (is_xor or 0.35 <= roll < 0.55):
            budget -= 1
            name = fresh("gw")
            guards = []
            n_when = int(rng.integers(1, 4)) if is_xor else 0
            while len(guards) < n_when and free_attrs:
                guards.append(make_guard())
            if rng.random() < 0.3:
                # A diamond: every branch rejoins at a shared tail.
                sink = build(depth + 1, sink)
            if is_xor:
                targets = [build(depth + 1, sink) for _ in range(len(guards) + 1)]
                branches = tuple(XorBranch(g, t) for g, t in zip(guards, targets))
                nodes.append(XorGateway(name, branches, targets[-1]))
            else:
                n_branches = int(rng.integers(2, 4))
                raw = rng.random(n_branches) + 0.1
                probs = raw / raw.sum()
                nodes.append(
                    ChoiceGateway(
                        name,
                        tuple(ChoiceBranch(float(p), build(depth + 1, sink)) for p in probs),
                    )
                )
            return name
        name = fresh("act")
        successor = build(depth + 1, sink)
        nodes.append(Activity(name, successor))
        return name

    start = build(0, None)
    defn = ProcessDefinition(
        name=f"rnd{index}",
        attributes=tuple(decls),
        start=start,
        nodes=tuple(nodes),
    )
    report = validate(defn)
    assert report.ok, f"generator produced an invalid process: {report.findings}"
    return defn


# Branches rejoin (review, escalate, merge have several parents), the triage
# xor has three ``when`` branches whose guards overlap, a second xor sits
# downstream of the first, and choices nest.
REJOINING = parse_process(
    """
    process rejoin
    attr a: numeric in [0, 10]
    attr b: numeric in [0, 10]
    start -> intake
    activity intake -> triage
    gateway triage {
        when a < 3 -> fast
        when a < 6 && b > 5 -> review
        when b > 8 -> audit
        otherwise -> review
    }
    activity fast -> merge
    activity review -> second
    gateway second choice { 0.5 -> deep 0.5 -> merge }
    activity deep -> nested
    gateway nested choice { 0.3 -> escalate 0.7 -> merge }
    activity audit -> recheck
    gateway recheck { when b > 9 -> escalate otherwise -> merge }
    activity escalate -> merge
    activity merge -> outcome
    gateway outcome choice { 0.6 -> ok 0.4 -> no }
    end ok label POSITIVE
    end no label NEGATIVE
    """
)


def long_chain(arm: int = 35, tail: int = 10):
    """Two arms of ``arm`` activities chosen by an xor, rejoining into a tail
    of ``tail`` activities with one optional step: 2 * arm + tail + 1
    activities in all."""
    lines = ["process chain", "attr x: numeric in [0, 1]", "start -> route"]
    lines.append("gateway route { when x < 0.5 -> p0 otherwise -> q0 }")
    for prefix in ("p", "q"):
        for i in range(arm):
            nxt = f"{prefix}{i + 1}" if i + 1 < arm else "t0"
            lines.append(f"activity {prefix}{i} -> {nxt}")
    for i in range(tail):
        nxt = f"t{i + 1}" if i + 1 < tail else "opt"
        lines.append(f"activity t{i} -> {nxt}")
    lines.append("gateway opt choice { 0.5 -> extra 0.5 -> done }")
    lines.append("activity extra -> done")
    lines.append("end done label POSITIVE")
    return parse_process("\n".join(lines) + "\n")


CHAIN = long_chain()

# No attributes, hence no xor gateway and no column to count cases by.
NO_ATTRIBUTES_SOURCE = (
    "process p\nstart -> a\nactivity a -> g\n"
    "gateway g choice { 0.5 -> x 0.5 -> y }\n"
    "activity x -> ok\nactivity y -> bad\n"
    "end ok label POSITIVE\nend bad label NEGATIVE\n"
)
NO_ATTRIBUTES = parse_process(NO_ATTRIBUTES_SOURCE)

# Neither attributes nor activities: an empty feature schema.
NO_FEATURES_SOURCE = (
    "process bare\nstart -> g\n"
    "gateway g choice { 0.5 -> ok 0.5 -> bad }\n"
    "end ok label POSITIVE\nend bad label NEGATIVE\n"
)
NO_FEATURES_ERROR = (
    "NoFeaturesError: process 'bare' has neither attributes nor activities, "
    "so there are no features to attribute"
)


# ---------------------------------------------------------------------------
# Sweep oracle
# ---------------------------------------------------------------------------

def _eval(guard: GuardExpr, assign: dict[str, float]) -> bool:
    if isinstance(guard, Comparison):
        return bool(_CMP[guard.op](assign[guard.attribute], guard.value))
    if isinstance(guard, Not):
        return not _eval(guard.operand, assign)
    if isinstance(guard, And):
        return _eval(guard.left, assign) and _eval(guard.right, assign)
    if isinstance(guard, Or):
        return _eval(guard.left, assign) or _eval(guard.right, assign)
    raise TypeError(guard)


def _guard_comparisons(guard: GuardExpr) -> list[Comparison]:
    if isinstance(guard, Comparison):
        return [guard]
    if isinstance(guard, Not):
        return _guard_comparisons(guard.operand)
    if isinstance(guard, (And, Or)):
        return _guard_comparisons(guard.left) + _guard_comparisons(guard.right)
    raise TypeError(guard)


def decisive_attribute(
    guard: GuardExpr,
    schema: FeatureSchema,
    scaler: Scaler,
    instance: np.ndarray,
    spread: float,
) -> str:
    """The attribute of ``guard`` whose comparison the instance lies nearest.

    Distance to each comparison's threshold is measured in the sampler's
    standard deviation for that attribute, ``spread * scaler.std``, so the
    result is the comparison that local sampling crosses most easily. Ties go
    to the attribute name that sorts first. Reads only the guard, the scaler
    and the instance's attribute values; no explainer code or output.
    """
    column = {name: i for i, name in enumerate(schema.names)}

    def distance(comp: Comparison) -> tuple[float, str]:
        j = column[comp.attribute]
        sigma = spread * scaler.std[j]
        return abs(instance[j] - comp.value) / sigma, comp.attribute

    return min(map(distance, _guard_comparisons(guard)))[1]


def _xor_target(node: XorGateway, assign: dict[str, float]) -> str:
    for branch in node.branches:
        if _eval(branch.guard, assign):
            return branch.target
    return node.otherwise


def _possible_activities(defn: ProcessDefinition, assign: dict[str, float]) -> frozenset:
    """Activities reachable on some path: xors pinned by guards, choices free.

    A depth-first search over nodes with an explicit stack."""
    possible: set[str] = set()
    seen: set[str] = set()
    stack = [defn.start]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        node = defn.node(name)
        if isinstance(node, Activity):
            possible.add(name)
            stack.append(node.successor)
        elif isinstance(node, XorGateway):
            stack.append(_xor_target(node, assign))
        elif isinstance(node, ChoiceGateway):
            stack.extend(branch.target for branch in node.branches)
        elif not isinstance(node, EndNode):
            raise TypeError(node)
    return frozenset(possible)


def path_indicators(
    defn: ProcessDefinition, assign: dict[str, float]
) -> frozenset[tuple[int, ...]]:
    """Indicator vectors of every root-to-end path under ``assign``.

    Walks each path separately, without memoisation and with an explicit
    stack of (node, activities so far), pinning xor gateways by this
    module's own guard evaluation and trying every choice branch. Vector
    positions follow ``defn.activity_names``.
    """
    found: set[tuple[int, ...]] = set()
    stack = [(defn.start, frozenset())]
    while stack:
        name, visited = stack.pop()
        node = defn.node(name)
        if isinstance(node, EndNode):
            found.add(tuple(int(a in visited) for a in defn.activity_names))
        elif isinstance(node, Activity):
            stack.append((node.successor, visited | {name}))
        elif isinstance(node, XorGateway):
            stack.append((_xor_target(node, assign), visited))
        elif isinstance(node, ChoiceGateway):
            stack.extend((branch.target, visited) for branch in node.branches)
        else:
            raise TypeError(node)
    return frozenset(found)


def simulate_reference(
    defn: ProcessDefinition,
    n_cases: int,
    seed: int,
    label_noise: float = 0.0,
    distributions: dict | None = None,
) -> list[tuple[dict[str, float], tuple[str, ...], str]]:
    """Walk each case on its own, one draw at a time: the simulator reference.

    Case ``i`` reads row ``i % 1024`` of chunk ``i // 1024``; chunk ``k`` is
    ``rng.random((1024, A + C + 1))`` from ``SeedSequence(entropy=seed,
    spawn_key=(k,))``, for ``A`` attributes and ``C`` choice gateways. The
    row is read left to right: first one variate per attribute in name order
    (scaled onto the declared bounds or a uniform override as
    ``rng.uniform`` scales it, through ``truncnorm.ppf`` for an override
    with a ``mean``), then one per choice gateway as the walk reaches it,
    then one for label noise. Xor gateways route by this module's own guard
    evaluation. Returns ``(attrs, activities, label)`` per case.
    """
    distributions = distributions or {}
    n_choices = sum(isinstance(node, ChoiceGateway) for node in defn.nodes)
    width = len(defn.attributes) + n_choices + 1
    chunks: dict[int, np.ndarray] = {}
    cases = []
    for ordinal in range(n_cases):
        chunk, offset = divmod(ordinal, 1024)
        if chunk not in chunks:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
            )
            chunks[chunk] = rng.random((1024, width))
        row = iter(chunks[chunk][offset].tolist())
        attrs: dict[str, float] = {}
        for decl in sorted(defn.attributes, key=lambda d: d.name):
            dist = distributions.get(decl.name)
            u = next(row)
            if dist is None:
                attrs[decl.name] = decl.lower + (decl.upper - decl.lower) * u
            elif not hasattr(dist, "mean"):
                attrs[decl.name] = dist.lower + (dist.upper - dist.lower) * u
            else:
                a = (dist.lower - dist.mean) / dist.std
                b = (dist.upper - dist.mean) / dist.std
                attrs[decl.name] = float(
                    stats.truncnorm.ppf(u, a, b, loc=dist.mean, scale=dist.std)
                )
        activities: list[str] = []
        node = defn.node(defn.start)
        while not isinstance(node, EndNode):
            if isinstance(node, Activity):
                activities.append(node.name)
                target = node.successor
            elif isinstance(node, XorGateway):
                target = _xor_target(node, attrs)
            elif isinstance(node, ChoiceGateway):
                u = next(row)
                target = node.branches[-1].target
                cumulative = 0.0
                for branch in node.branches:
                    cumulative += branch.probability
                    if u < cumulative:
                        target = branch.target
                        break
            else:
                raise TypeError(node)
            node = defn.node(target)
        label = node.label
        if next(row) < label_noise:
            label = "NEGATIVE" if label == "POSITIVE" else "POSITIVE"
        cases.append((attrs, tuple(activities), label))
    return cases


def sweep_oracle_edges(defn: ProcessDefinition) -> frozenset[tuple[str, str]]:
    """Brute-force causal edges: sweep each attribute across every guard
    threshold while the other attributes range over their own candidate
    grids, and record which activities flip between possible and impossible.
    """
    thresholds: dict[str, set[float]] = {a.name: set() for a in defn.attributes}
    for node in defn.nodes:
        if isinstance(node, XorGateway):
            for branch in node.branches:
                for comp in _guard_comparisons(branch.guard):
                    thresholds[comp.attribute].add(comp.value)

    candidates: dict[str, list[float]] = {}
    for decl in defn.attributes:
        values = {(decl.lower + decl.upper) / 2.0}
        for t in thresholds[decl.name]:
            eps = 1e-6 * max(1.0, abs(t))
            values.update((t - eps, t, t + eps))
        candidates[decl.name] = sorted(values)

    names = [a.name for a in defn.attributes]
    edges: set[tuple[str, str]] = set()
    for swept in names:
        others = [n for n in names if n != swept]
        for combo in itertools.product(*(candidates[o] for o in others)):
            assign = dict(zip(others, combo))
            seen: dict[str, set[bool]] = {}
            for value in candidates[swept]:
                assign[swept] = value
                possible = _possible_activities(defn, assign)
                for activity in defn.activity_names:
                    seen.setdefault(activity, set()).add(activity in possible)
            for activity, outcomes in seen.items():
                if len(outcomes) > 1:
                    edges.add((swept, activity))
    return frozenset(edges)
