"""Parser, validator, serializer and causality derivation."""

import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import procex
from procex.errors import (
    BadProbabilitySumError,
    CyclicGraphError,
    DslSyntaxError,
    DuplicateNameError,
    InvalidDefinitionError,
    MissingAttributeError,
    ProcexError,
    UnknownAttributeError,
    UnknownTargetError,
    UnreachableNodeError,
)
from procex.process_model import (
    GUARD_MAX_DEPTH,
    POSITIVE,
    And,
    AttributeDecl,
    Comparison,
    EndNode,
    Not,
    Or,
    ProcessDefinition,
    derive_causality_graph,
    eval_guard_batch,
    fixture_path,
    format_guard,
    guard_attributes,
    load_fixture,
    parse_guard,
    parse_process,
    parse_process_structure,
    reachable_indicators,
    serialize_process,
    validate,
)
from procex.simulation import SimulationConfig, generate_log

from procgen import CHAIN, NO_ATTRIBUTES, REJOINING, _eval, sweep_oracle_edges

MINIMAL = """
process minimal
attr a: numeric in [0, 1]
start -> done
end done label POSITIVE
"""


def test_fixture_file_is_packaged():
    path = fixture_path()
    assert path.is_file()
    assert path.read_text().startswith("process loan_approval")


def test_fixture_path_follows_the_package_name(fresh_python, tmp_path):
    """A copy of the package loaded under another name finds its own fixture."""
    copy = tmp_path / "procex_copy"
    shutil.copytree(Path(procex.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location(
    "procex_copy", {str(copy / "__init__.py")!r}, submodule_search_locations=[{str(copy)!r}]
)
module = importlib.util.module_from_spec(spec)
sys.modules["procex_copy"] = module
spec.loader.exec_module(module)
print(module.fixture_path())
"""
    path = Path(fresh_python(source).strip())
    assert path.resolve() == (copy / "fixtures" / "loan.bp").resolve()
    assert path.read_text() == fixture_path().read_text()


def test_loan_fixture_structure(loan):
    assert loan.name == "loan_approval"
    assert loan.attribute_names == ("credit_score", "loan_amount")
    assert loan.attribute_bounds["credit_score"] == (300.0, 850.0)
    assert loan.attribute_bounds["loan_amount"] == (1000.0, 500000.0)
    assert loan.activity_names == (
        "skilled_agent_review",
        "standard_review",
        "submit_application",
    )
    assert len(loan.xor_gateways) == 1
    assert len(loan.choice_gateways) == 2
    assert len(loan.end_nodes) == 2
    assert loan.start == "submit_application"
    labels = {e.name: e.label for e in loan.end_nodes}
    assert labels == {"approve": "POSITIVE", "reject": "NEGATIVE"}


def test_minimal_process_parses():
    defn = parse_process(MINIMAL)
    assert defn.name == "minimal"
    assert defn.activity_names == ()
    assert defn.start == "done"
    assert validate(defn).ok


def test_comments_and_newlines_are_whitespace():
    text = (
        "process p # trailing comment\n"
        "attr a: numeric in [0,\n 10]\n"
        "# a full-line comment\n"
        "start -> fin\nend fin label NEGATIVE\n"
    )
    defn = parse_process(text)
    assert defn.attribute_bounds["a"] == (0.0, 10.0)
    assert defn.node("fin").label == "NEGATIVE"


class TestGuards:
    def test_eval_examples(self):
        g = parse_guard("credit_score < 620 && loan_amount > 200000")
        cols = {
            "credit_score": np.array([580.0, 580.0, 700.0]),
            "loan_amount": np.array([300000.0, 100000.0, 300000.0]),
        }
        assert eval_guard_batch(g, cols).tolist() == [True, False, False]

    def test_comparison_is_strict_or_inclusive_as_written(self):
        five = {"a": np.array([5.0])}
        assert eval_guard_batch(parse_guard("a < 5"), five).tolist() == [False]
        assert eval_guard_batch(parse_guard("a <= 5"), five).tolist() == [True]
        assert eval_guard_batch(parse_guard("a == 5"), five).tolist() == [True]
        # Negation of a strict comparison includes the boundary.
        half = {"a": np.array([0.5])}
        assert eval_guard_batch(parse_guard("!(a < 0.5)"), half).tolist() == [True]

    def test_missing_attribute_raises(self):
        g = parse_guard("a < 1 && b > 2")
        with pytest.raises(MissingAttributeError):
            eval_guard_batch(g, {"a": np.array([0.0])})

    def test_precedence_and_over_or(self):
        # a || b && c parses as a || (b && c)
        g = parse_guard("a < 0 || b < 0 && c < 0")
        assert isinstance(g, Or)
        assert isinstance(g.right, And)

    def test_parentheses_override_precedence(self):
        g = parse_guard("(a < 0 || b < 0) && c < 0")
        assert isinstance(g, And)
        assert isinstance(g.left, Or)

    def test_guard_attributes(self):
        g = parse_guard("x < 1 || !(y >= 2) && x == 3")
        assert guard_attributes(g) == frozenset({"x", "y"})

    def test_de_morgan_property(self):
        rng = np.random.default_rng(7)
        a = Comparison("a", "<", 0.5)
        b = Comparison("b", ">=", -0.25)
        lhs = Not(And(a, b))
        rhs = Or(Not(a), Not(b))
        cols = {"a": rng.uniform(-1, 1, size=1000), "b": rng.uniform(-1, 1, size=1000)}
        assert np.array_equal(eval_guard_batch(lhs, cols), eval_guard_batch(rhs, cols))

    def test_batch_eval_matches_scalar(self):
        g = parse_guard("a < 0.3 && !(b > 0.6) || a >= 0.9")
        rng = np.random.default_rng(3)
        cols = {"a": rng.uniform(0, 1, size=64), "b": rng.uniform(0, 1, size=64)}
        batch = eval_guard_batch(g, cols)
        for i in range(64):
            attrs = {k: float(v[i]) for k, v in cols.items()}
            assert bool(batch[i]) == _eval(g, attrs)

    def test_format_round_trip(self):
        texts = [
            "a < 1",
            "a < 1 && b >= 2",
            "a < 1 || b >= 2 && c == 3",
            "(a < 1 || b >= 2) && !(c == 3)",
            "!(a < 1) || !(b <= -2.5)",
        ]
        for text in texts:
            g = parse_guard(text)
            assert parse_guard(format_guard(g)) == g


class TestGuardDepth:
    def test_chain_past_the_limit(self):
        text = " && ".join(["a < 1"] * 1500)
        with pytest.raises(DslSyntaxError) as exc:
            parse_guard(text)
        # Raised at the 100th &&, which would make the tree 101 levels deep.
        assert exc.value.col == len(" && ".join(["a < 1"] * GUARD_MAX_DEPTH)) + 2
        assert exc.value.found == "'&&'"

    def test_parentheses_past_the_limit(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_guard("(" * 1200 + "a < 1" + ")" * 1200)
        assert exc.value.col == GUARD_MAX_DEPTH + 1
        assert exc.value.found == "'('"

    def test_not_and_or_count_as_levels(self):
        deep = "!(" * 50 + " || ".join(["a < 1"] * 51) + ")" * 50
        with pytest.raises(DslSyntaxError):
            parse_guard(deep)
        parse_guard("!(" * 50 + " || ".join(["a < 1"] * 50) + ")" * 50)

    def test_at_the_limit_parses_and_evaluates(self):
        chain = parse_guard(" && ".join(f"a < {i + 1}" for i in range(GUARD_MAX_DEPTH)))
        assert guard_attributes(chain) == {"a"}
        assert eval_guard_batch(chain, {"a": np.array([0.5, 1.0])}).tolist() == [True, False]
        assert parse_guard(format_guard(chain)) == chain
        nested = parse_guard("(" * GUARD_MAX_DEPTH + "a < 1" + ")" * GUARD_MAX_DEPTH)
        assert nested == Comparison("a", "<", 1.0)


class TestDiagnostics:
    def test_syntax_error_carries_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_process("process p\nattr a numeric in [0, 1]\nstart -> a\n")
        assert exc.value.line == 2
        assert exc.value.col > 0

    def test_unknown_target(self):
        text = MINIMAL.replace("start -> done", "start -> missing")
        with pytest.raises(UnknownTargetError):
            parse_process(text)

    def test_unknown_attribute_in_guard(self):
        text = (
            "process p\nattr a: numeric in [0, 1]\nstart -> g\n"
            "gateway g { when b < 0.5 -> fin otherwise -> fin }\n"
            "end fin label POSITIVE\n"
        )
        with pytest.raises(UnknownAttributeError):
            parse_process(text)

    def test_duplicate_node_name(self):
        text = MINIMAL + "end done label NEGATIVE\n"
        with pytest.raises(DuplicateNameError):
            parse_process(text)

    def test_duplicate_attribute_name(self):
        text = MINIMAL.replace(
            "attr a: numeric in [0, 1]",
            "attr a: numeric in [0, 1]\nattr a: numeric in [2, 3]",
        )
        with pytest.raises(DuplicateNameError):
            parse_process(text)

    def test_cycle(self):
        text = (
            "process p\nstart -> x\nactivity x -> y\nactivity y -> x\n"
            "end fin label POSITIVE\n"
        )
        with pytest.raises(CyclicGraphError):
            parse_process(text)

    def test_unreachable_node(self):
        text = MINIMAL + "activity orphan -> done\n"
        with pytest.raises(UnreachableNodeError):
            parse_process(text)

    def test_bad_probability_sum(self):
        text = (
            "process p\nstart -> g\n"
            "gateway g choice { 0.5 -> a 0.6 -> b }\n"
            "end a label POSITIVE\nend b label NEGATIVE\n"
        )
        with pytest.raises(BadProbabilitySumError):
            parse_process(text)

    def test_keyword_cannot_name_a_node(self):
        with pytest.raises(DslSyntaxError):
            parse_process("process p\nstart -> end\nend end label POSITIVE\n")


class TestValidateAsData:
    """validate() reports findings without raising."""

    def test_clean_process_has_no_findings(self, loan):
        report = validate(loan)
        assert report.ok
        assert report.findings == ()

    def test_probability_finding(self):
        text = (
            "process p\nstart -> g\n"
            "gateway g choice { 0.5 -> a 0.6 -> b }\n"
            "end a label POSITIVE\nend b label NEGATIVE\n"
        )
        report = validate(parse_process_structure(text))
        rules = [f.rule for f in report.findings]
        assert rules == ["BadProbabilitySum"]
        assert "1.1" in report.findings[0].message

    def test_unreachable_finding_names_the_node(self):
        report = validate(parse_process_structure(MINIMAL + "activity lost -> done\n"))
        assert not report.ok
        assert any(
            f.rule == "UnreachableNode" and f.subject == "lost"
            for f in report.findings
        )

    def test_unreachable_chain_feeding_a_reachable_node(self):
        text = MINIMAL + "activity first -> second\nactivity second -> done\n"
        report = validate(parse_process_structure(text))
        assert [(f.rule, f.subject) for f in report.findings] == [
            ("UnreachableNode", "first"),
            ("UnreachableNode", "second"),
        ]

    def test_unreachable_node_pointing_at_the_start(self):
        # "back" has no predecessor, so it precedes the start node "x" in
        # topological order.
        text = (
            "process p\nattr a: numeric in [0, 1]\nstart -> x\n"
            "activity x -> done\nend done label POSITIVE\nactivity back -> x\n"
        )
        report = validate(parse_process_structure(text))
        assert [(f.rule, f.subject) for f in report.findings] == [
            ("UnreachableNode", "back"),
        ]

    def test_multiple_findings_accumulate(self):
        text = (
            "process p\nattr a: numeric in [5, 1]\nstart -> g\n"
            "gateway g choice { 0.2 -> x 0.2 -> y }\n"
            "end x label POSITIVE\nend y label NEGATIVE\n"
        )
        report = validate(parse_process_structure(text))
        rules = {f.rule for f in report.findings}
        assert {"BadAttributeBounds", "BadProbabilitySum"} <= rules


# One row per rule: a definition, the exact (rule, subject) findings of
# `validate`, and the class `parse_process` raises (None where no text can
# state the definition, since the parser refuses it first).
RULE_TABLE = {
    "BadName": (
        ProcessDefinition(
            "1p", (AttributeDecl("a b", 0.0, 1.0),), "end", (EndNode("end", POSITIVE),)
        ),
        [("BadName", "1p"), ("BadName", "a b"), ("BadName", "end")],
        None,
    ),
    "DuplicateName": (
        MINIMAL.replace("start", "attr a: numeric in [2, 3]\nstart"),
        [("DuplicateName", "a")],
        DuplicateNameError,
    ),
    "BadAttributeBounds": (
        MINIMAL.replace("[0, 1]", "[5, 1]"),
        [("BadAttributeBounds", "a")],
        InvalidDefinitionError,
    ),
    "BadAttributeBounds of no finite width": (
        MINIMAL.replace("[0, 1]", "[-1e308, 1e308]"),
        [("BadAttributeBounds", "a")],
        InvalidDefinitionError,
    ),
    "BadAttributeBounds of an infinite bound": (
        ProcessDefinition(
            "p", (AttributeDecl("a", 0.0, math.inf),), "done", (EndNode("done", POSITIVE),)
        ),
        [("BadAttributeBounds", "a")],
        None,
    ),
    "BadLabel": (
        ProcessDefinition("p", (), "done", (EndNode("done", "MAYBE"),)),
        [("BadLabel", "done")],
        None,
    ),
    "BadProbabilityValue": (
        "process p\nstart -> g\ngateway g choice { 1.5 -> e1 -0.5 -> e2 }\n"
        "end e1 label POSITIVE\nend e2 label NEGATIVE\n",
        [("BadProbabilityValue", "g"), ("BadProbabilityValue", "g")],
        BadProbabilitySumError,
    ),
    "BadProbabilitySum": (
        "process p\nstart -> g\ngateway g choice { 0.5 -> a 0.6 -> b }\n"
        "end a label POSITIVE\nend b label NEGATIVE\n",
        [("BadProbabilitySum", "g")],
        BadProbabilitySumError,
    ),
    "MissingStart": (
        "process p\nend done label POSITIVE\n",
        [("MissingStart", "p")],
        InvalidDefinitionError,
    ),
    "UnknownTarget on the start edge": (
        MINIMAL.replace("start -> done", "start -> missing"),
        [("UnknownTarget", "missing")],
        UnknownTargetError,
    ),
    "UnknownTarget on an edge": (
        MINIMAL.replace("start -> done", "start -> x\nactivity x -> nowhere"),
        [("UnknownTarget", "nowhere")],
        UnknownTargetError,
    ),
    "UnknownAttribute": (
        "process p\nattr a: numeric in [0, 1]\nstart -> g\n"
        "gateway g { when b < 0.5 -> fin otherwise -> fin }\nend fin label POSITIVE\n",
        [("UnknownAttribute", "b")],
        UnknownAttributeError,
    ),
    "NoEndNode": (
        "process p\nstart -> x\nactivity x -> x\n",
        [("NoEndNode", "p"), ("CyclicGraph", "p")],
        InvalidDefinitionError,
    ),
    "CyclicGraph": (
        "process p\nstart -> x\nactivity x -> y\nactivity y -> x\nend fin label POSITIVE\n",
        [("CyclicGraph", "p")],
        CyclicGraphError,
    ),
    "UnreachableNode": (
        MINIMAL + "activity orphan -> done\n",
        [("UnreachableNode", "orphan")],
        UnreachableNodeError,
    ),
}


@pytest.mark.parametrize("rule", RULE_TABLE)
def test_every_validation_rule(rule):
    source, findings, raised = RULE_TABLE[rule]
    defn = source if raised is None else parse_process_structure(source)
    assert [(f.rule, f.subject) for f in validate(defn).findings] == findings
    if raised is not None:
        with pytest.raises(raised):
            parse_process(source)


def test_the_rule_table_covers_every_documented_rule():
    documented = validate.__doc__.split("Rules reported:")[1].replace("\n", " ")
    documented = {rule.strip(" .") for rule in documented.split(",")}
    covered = {rule for _, findings, _ in RULE_TABLE.values() for rule, _ in findings}
    assert covered == documented


@pytest.mark.parametrize(
    "parse, text, raised, where",
    [
        (parse_process, "process p$\n", DslSyntaxError, (1, 10, "a token")),
        (parse_process, MINIMAL + "start -> done\n", DuplicateNameError, None),
        (
            parse_process, "process p\nstart -> done\nend done label MAYBE\n",
            DslSyntaxError, (3, 16, "'POSITIVE' or 'NEGATIVE'"),
        ),
        (
            parse_process,
            "process p\nattr a: numeric in [0, 1]\nstart -> g\n"
            "gateway g { when a -> x otherwise -> x }\n",
            DslSyntaxError, (4, 20, "a comparison operator"),
        ),
        (
            parse_process, "process p\nstart -> g\ngateway g { x }\n",
            DslSyntaxError, (3, 13, "'when' or 'otherwise'"),
        ),
        (
            parse_process, "process p\nnode x\n",
            DslSyntaxError, (2, 1, "one of 'attr', 'start', 'activity', 'gateway', 'end'"),
        ),
        (parse_process, "process p\n42\n", DslSyntaxError, (2, 1, "a declaration keyword")),
        (parse_guard, "a < 1 b", DslSyntaxError, (1, 7, "end of input")),
        (
            parse_process, MINIMAL.replace("[0, 1]", "[0, 1e400]"),
            DslSyntaxError, (3, 24, "a finite number"),
        ),
        (parse_guard, "a < -1e400", DslSyntaxError, (1, 5, "a finite number")),
        (
            parse_process, "process p\nstart -> g\ngateway g choice { 1e999 -> e }\n",
            DslSyntaxError, (3, 20, "a finite number"),
        ),
    ],
    ids=["illegal-character", "second-start-edge", "bad-end-label", "missing-operator",
         "bad-gateway-body", "unknown-declaration", "number-for-declaration",
         "trailing-guard-token", "infinite-bound", "infinite-guard-value",
         "infinite-probability"],
)
def test_syntax_errors(parse, text, raised, where):
    with pytest.raises(raised) as caught:
        parse(text)
    if where is not None:
        assert (caught.value.line, caught.value.col, caught.value.expected) == where


def test_an_infinite_bound_serializes_to_text_the_parser_refuses():
    defn = ProcessDefinition(
        "p", (AttributeDecl("a", 0.0, math.inf),), "done", (EndNode("done", POSITIVE),)
    )
    with pytest.raises(DslSyntaxError) as caught:
        parse_process(serialize_process(defn))
    assert (caught.value.expected, caught.value.found) == ("a number", "'inf'")


# Texts that parse but that ``validate`` refuses; the folds build their step
# plan only for a definition it accepts.
UNVALIDATED = {
    "unknown-target": MINIMAL.replace("start -> done", "start -> x\nactivity x -> nowhere"),
    "no-start-edge": MINIMAL.replace("start -> done\n", ""),
    "duplicate-node": MINIMAL + "end done label NEGATIVE\n",
}


@pytest.mark.parametrize("fold", [
    derive_causality_graph,
    lambda defn: generate_log(defn, SimulationConfig(n_cases=5)),
    lambda defn: reachable_indicators(defn, {"a": 0.5}),
], ids=["derive_causality_graph", "generate_log", "reachable_indicators"])
@pytest.mark.parametrize("text", UNVALIDATED.values(), ids=UNVALIDATED)
def test_folds_refuse_an_unvalidated_definition_as_parse_process_does(text, fold):
    with pytest.raises(ProcexError) as parsed:
        parse_process(text)
    with pytest.raises(type(parsed.value)) as folded:
        fold(parse_process_structure(text))
    assert type(folded.value) is type(parsed.value)
    assert str(folded.value) == str(parsed.value)


class TestSerialization:
    def test_loan_round_trip_is_fixpoint(self, loan):
        text = serialize_process(loan)
        again = parse_process(text)
        assert again == loan
        assert serialize_process(again) == text

    def test_declaration_order_is_preserved(self):
        defn = parse_process(MINIMAL)
        lines = serialize_process(defn).splitlines()
        assert lines[0] == "process minimal"
        assert lines[1].startswith("attr a:")
        assert lines[2] == "start -> done"

    def test_integer_thresholds_stay_integers(self, loan):
        text = serialize_process(loan)
        assert "credit_score < 620" in text
        assert "[300, 850]" in text


class TestCausality:
    def test_loan_edges(self, loan):
        graph = derive_causality_graph(loan)
        assert set(graph.edges) == {
            ("credit_score", "skilled_agent_review"),
            ("credit_score", "standard_review"),
            ("loan_amount", "skilled_agent_review"),
            ("loan_amount", "standard_review"),
        }

    def test_linear_chain_has_no_edges(self):
        text = (
            "process p\nattr a: numeric in [0, 1]\nstart -> x\n"
            "activity x -> fin\nend fin label POSITIVE\n"
        )
        graph = derive_causality_graph(parse_process(text))
        assert graph.edges == ()

    def test_rejoining_branches_produce_no_edge(self):
        # Both branches funnel into the same activity, so the guard cannot
        # change whether it occurs.
        text = (
            "process p\nattr a: numeric in [0, 10]\nstart -> g\n"
            "gateway g { when a < 5 -> x otherwise -> x }\n"
            "activity x -> fin\nend fin label POSITIVE\n"
        )
        graph = derive_causality_graph(parse_process(text))
        assert graph.edges == ()

    def test_later_guard_does_not_reach_earlier_branches(self):
        # First match wins: b chooses between review and slow only once
        # a < 3 has failed, so it never decides whether fast occurs.
        text = (
            "process p\nattr a: numeric in [0, 10]\nattr b: numeric in [0, 10]\n"
            "start -> g\n"
            "gateway g { when a < 3 -> fast when b > 5 -> review otherwise -> slow }\n"
            "activity fast -> fin\nactivity review -> fin\nactivity slow -> fin\n"
            "end fin label POSITIVE\n"
        )
        graph = derive_causality_graph(parse_process(text))
        assert set(graph.edges) == {
            ("a", "fast"), ("a", "review"), ("a", "slow"), ("b", "review"), ("b", "slow")
        }

    def test_choice_gateways_contribute_no_edges(self, loan):
        targets = {t for _, t in derive_causality_graph(loan).edges}
        assert "submit_application" not in targets

    def test_to_json_dict_is_sorted(self, loan):
        payload = derive_causality_graph(loan).to_json_dict()
        assert payload["edges"] == sorted(payload["edges"])

    @pytest.mark.parametrize(
        "defn", [REJOINING, CHAIN, NO_ATTRIBUTES], ids=["rejoining", "chain", "no_attributes"]
    )
    def test_edges_equal_the_sweep_oracle(self, defn):
        # CHAIN has 81 activities, so its reachability masks pass 64 bits.
        assert set(derive_causality_graph(defn).edges) == sweep_oracle_edges(defn)


class TestReachableIndicators:
    def test_loan_low_score_large_loan(self, loan):
        vectors = reachable_indicators(
            loan, {"credit_score": 580.0, "loan_amount": 300000.0}
        )
        # Order: skilled_agent_review, standard_review, submit_application.
        assert vectors == frozenset({(1, 0, 1)})

    def test_loan_high_score(self, loan):
        vectors = reachable_indicators(
            loan, {"credit_score": 700.0, "loan_amount": 300000.0}
        )
        assert vectors == frozenset({(0, 1, 1)})

    def test_process_without_activities(self):
        defn = parse_process(MINIMAL)
        assert reachable_indicators(defn, {"a": 0.5}) == frozenset({()})

    def test_choice_branches_multiply_vectors(self):
        text = (
            "process p\nstart -> g\n"
            "gateway g choice { 0.5 -> x 0.5 -> y }\n"
            "activity x -> fin\nactivity y -> fin2\n"
            "end fin label POSITIVE\nend fin2 label NEGATIVE\n"
        )
        defn = parse_process(text)
        assert defn.activity_names == ("x", "y")
        assert reachable_indicators(defn, {}) == frozenset({(1, 0), (0, 1)})

    def test_missing_attribute_raises(self, loan):
        with pytest.raises(MissingAttributeError):
            reachable_indicators(loan, {"credit_score": 600.0})


def test_fixture_load_equals_parse_of_file(loan):
    assert load_fixture() == parse_process(fixture_path().read_text())
