"""Parser, validator, serializer and causality derivation."""

import numpy as np
import pytest

from procex.errors import (
    BadProbabilitySumError,
    CyclicGraphError,
    DslSyntaxError,
    DuplicateNameError,
    MissingAttributeError,
    UnknownAttributeError,
    UnknownTargetError,
    UnreachableNodeError,
)
from procex.process_model import (
    GUARD_MAX_DEPTH,
    And,
    Comparison,
    Not,
    Or,
    derive_causality_graph,
    eval_guard,
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

from procgen import _eval

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
        assert eval_guard(g, {"credit_score": 580.0, "loan_amount": 300000.0})
        assert not eval_guard(g, {"credit_score": 580.0, "loan_amount": 100000.0})
        assert not eval_guard(g, {"credit_score": 700.0, "loan_amount": 300000.0})

    def test_comparison_is_strict_or_inclusive_as_written(self):
        assert not eval_guard(parse_guard("a < 5"), {"a": 5.0})
        assert eval_guard(parse_guard("a <= 5"), {"a": 5.0})
        assert eval_guard(parse_guard("a == 5"), {"a": 5.0})
        # Negation of a strict comparison includes the boundary.
        assert eval_guard(parse_guard("!(a < 0.5)"), {"a": 0.5})

    def test_missing_attribute_raises(self):
        g = parse_guard("a < 1 && b > 2")
        with pytest.raises(MissingAttributeError):
            eval_guard(g, {"a": 0.0})

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
        for _ in range(1000):
            attrs = {"a": float(rng.uniform(-1, 1)), "b": float(rng.uniform(-1, 1))}
            assert eval_guard(lhs, attrs) == eval_guard(rhs, attrs)

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
        assert eval_guard(chain, {"a": 0.5}) and not eval_guard(chain, {"a": 1.0})
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

    def test_multiple_findings_accumulate(self):
        text = (
            "process p\nattr a: numeric in [5, 1]\nstart -> g\n"
            "gateway g choice { 0.2 -> x 0.2 -> y }\n"
            "end x label POSITIVE\nend y label NEGATIVE\n"
        )
        report = validate(parse_process_structure(text))
        rules = {f.rule for f in report.findings}
        assert {"BadAttributeBounds", "BadProbabilitySum"} <= rules


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
        assert graph.sources() == ("credit_score", "loan_amount")
        assert graph.targets_of("credit_score") == (
            "skilled_agent_review",
            "standard_review",
        )

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

    def test_choice_gateways_contribute_no_edges(self, loan):
        targets = {t for _, t in derive_causality_graph(loan).edges}
        assert "submit_application" not in targets

    def test_to_json_dict_is_sorted(self, loan):
        payload = derive_causality_graph(loan).to_json_dict()
        assert payload["edges"] == sorted(payload["edges"])


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
