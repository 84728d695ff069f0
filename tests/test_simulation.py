"""Simulation determinism, conformance, and log serialization."""

import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from procex import jsontext, simulation
from procex.cli import _emit, dispatch
from procex.errors import (
    BadLabelError,
    ConfigError,
    EmptyLogError,
    InvalidDefinitionError,
    MalformedLogError,
    MissingColumnError,
    ProcexError,
    SchemaMismatchError,
    UnparsableNumberError,
)
from procex.evaluation import ComparisonConfig, run_comparison
from procex.features import build_schema, encode_log
from procex.predictor import evaluate, save_model, split_log, train
from procex.process_model import (
    NEGATIVE,
    POSITIVE,
    fixture_path,
    parse_process,
    parse_process_structure,
)
from procex.simulation import (
    EventLog,
    SimulationConfig,
    Trace,
    execute_case,
    generate_log,
    import_log_csv,
    is_conformant,
    read_log_jsonl,
    write_log_jsonl,
)

from procgen import CHAIN, NO_ATTRIBUTES, REJOINING, random_process, simulate_reference

SKILLED = {"credit_score": 580.0, "loan_amount": 300000.0}
STANDARD = {"credit_score": 700.0, "loan_amount": 50000.0}


def reference_line(trace: Trace) -> str:
    """One JSONL line as ``json.dumps`` of a fresh record writes it."""
    return json.dumps(
        {
            "case_id": trace.case_id,
            "attrs": {k: float(v) for k, v in sorted(trace.attrs.items())},
            "activities": list(trace.activities),
            "label": trace.label,
        }
    ) + "\n"


# Traces whose lines need escapes, non-ASCII text, extreme floats, integer
# and numpy values, empty paths, unsorted or differing attribute names.
CRAFTED = (
    Trace("c\u00e9\u4e2d\U0001f600", {"a": -0.0, "b": 5e-324},
          ("r\u00e9view", 'say "hi"\n'), POSITIVE),
    Trace('quote"back\\slash\ttab\x00\x7f', {"a": 1e308, "b": 3}, (), NEGATIVE),
    Trace("", {"b": -2, "a": 0.1}, ("x", "x"), POSITIVE),
    Trace("c4", {}, (), NEGATIVE),
    Trace("c5", {"%s": 1.5, "100%": -1e-300, "\u00e9t\u00e9": np.float64(2.5)},
          ("a%sb", "\u2028"), POSITIVE),
    Trace("c6", {"a": 2**53 + 1, "b": np.int64(1)}, ("x",), NEGATIVE),
)


class TestExecuteCase:
    def test_skilled_route_and_reject(self, loan):
        # First draw of default_rng(0) is 0.6369..., below the 0.85 reject
        # probability of skilled_outcome.
        trace = execute_case(loan, SKILLED, np.random.default_rng(0), case_id="t1")
        assert trace.activities == ("submit_application", "skilled_agent_review")
        assert trace.label == NEGATIVE
        assert trace.case_id == "t1"

    def test_standard_route_and_approve(self, loan):
        # First draw of default_rng(1) is 0.5118..., above the 0.10 reject
        # probability of standard_outcome.
        trace = execute_case(loan, STANDARD, np.random.default_rng(1))
        assert trace.activities == ("submit_application", "standard_review")
        assert trace.label == POSITIVE

    def test_guard_boundary_routes_standard(self, loan):
        attrs = {"credit_score": 620.0, "loan_amount": 300000.0}
        trace = execute_case(loan, attrs, np.random.default_rng(0))
        assert "standard_review" in trace.activities

    def test_attrs_are_stored_sorted(self, loan):
        trace = execute_case(loan, dict(reversed(list(SKILLED.items()))), np.random.default_rng(0))
        assert list(trace.attrs) == ["credit_score", "loan_amount"]


class TestGenerateLog:
    def test_case_ids_are_sequential(self, small_log):
        ids = [t.case_id for t in small_log.traces]
        assert ids[:3] == ["c000001", "c000002", "c000003"]
        assert len(set(ids)) == len(ids)

    def test_repeat_run_is_identical(self, loan, small_log):
        again = generate_log(loan, SimulationConfig(n_cases=400, seed=5))
        assert again.traces == small_log.traces

    def test_traces_do_not_depend_on_n_cases(self, loan):
        # Cases are drawn in chunks of 1024; prefixes that end inside the
        # first chunk, just before, at and just after a chunk boundary read
        # the same rows as a longer log.
        full = generate_log(loan, SimulationConfig(n_cases=3000, seed=5)).traces
        for n in (0, 50, 1023, 1024, 1025, 2049):
            assert generate_log(loan, SimulationConfig(n_cases=n, seed=5)).traces == full[:n]

    def test_variates_are_drawn_into_one_block(self):
        """Each chunk draws into its rows of the result, so the traced peak
        of 50000 cases' variates stays under 1.5x the result's bytes."""
        tracemalloc.start()
        try:
            rows = simulation._uniform_rows(5, 50000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (50000, 5)
        assert peak < 1.5 * rows.nbytes, (peak, rows.nbytes)

    def test_different_seeds_differ(self, loan):
        a = generate_log(loan, SimulationConfig(n_cases=20, seed=0))
        b = generate_log(loan, SimulationConfig(n_cases=20, seed=1))
        assert a.traces != b.traces

    def test_skilled_route_fraction(self, loan):
        log = generate_log(loan, SimulationConfig(n_cases=10000, seed=42))
        frac = np.mean(["skilled_agent_review" in t.activities for t in log.traces])
        assert abs(frac - 0.35) < 0.02

    def test_choice_frequencies_converge(self, model_log):
        skilled = [t for t in model_log.traces if "skilled_agent_review" in t.activities]
        standard = [t for t in model_log.traces if "standard_review" in t.activities]
        reject_given_skilled = np.mean([t.label == NEGATIVE for t in skilled])
        reject_given_standard = np.mean([t.label == NEGATIVE for t in standard])
        assert abs(reject_given_skilled - 0.85) < 0.04
        assert abs(reject_given_standard - 0.10) < 0.04

    def test_label_noise_flip_rate(self, loan):
        clean = generate_log(loan, SimulationConfig(n_cases=400, seed=5))
        noisy = generate_log(loan, SimulationConfig(n_cases=400, seed=5, label_noise=0.3))
        for a, b in zip(clean.traces, noisy.traces):
            assert a.attrs == b.attrs
            assert a.activities == b.activities
        flipped = np.mean([a.label != b.label for a, b in zip(clean.traces, noisy.traces)])
        assert abs(flipped - 0.3) < 0.08

    def test_zero_cases_give_an_empty_log(self, loan):
        log = generate_log(loan, SimulationConfig(n_cases=0))
        assert len(log) == 0

    def test_labels_are_the_two_shared_strings(self, loan):
        log = generate_log(loan, SimulationConfig(n_cases=2000, seed=5, label_noise=0.3))
        assert set(log.labels) == {POSITIVE, NEGATIVE}
        assert all(label is POSITIVE or label is NEGATIVE for label in log.labels)

    def test_attrs_stay_within_bounds(self, small_log, loan):
        for trace in small_log.traces:
            for name, (lo, hi) in loan.attribute_bounds.items():
                assert lo <= trace.attrs[name] <= hi

class TestReferenceWalk:
    """``generate_log`` against ``procgen.simulate_reference``, which walks
    one case at a time with sequential draws."""

    @staticmethod
    def check(defn, config):
        log = generate_log(defn, config)
        want = simulate_reference(defn, config.n_cases, config.seed, config.label_noise)
        assert [(t.attrs, t.activities, t.label) for t in log.traces] == want

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_loan(self, loan, noise):
        self.check(loan, SimulationConfig(n_cases=2000, seed=42, label_noise=noise))

    def test_random_processes(self):
        for i in range(30):
            defn = random_process(np.random.default_rng(700 + i), i)
            self.check(defn, SimulationConfig(n_cases=100, seed=i, label_noise=0.2))

    @pytest.mark.parametrize(
        "defn", [REJOINING, CHAIN, NO_ATTRIBUTES], ids=["rejoining", "chain", "no_attributes"]
    )
    def test_hand_written_processes(self, defn):
        self.check(defn, SimulationConfig(n_cases=300, seed=4, label_noise=0.2))


def test_seed_42_log_bytes_are_pinned(loan, tmp_path):
    path = tmp_path / "log.jsonl"
    write_log_jsonl(generate_log(loan, SimulationConfig(n_cases=10000, seed=42)), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "82ae78779f8dd1c49cf7891c6c7339b1facb0e4efae3424e4343a221d90bfc16"


class TestConfigValidation:
    def test_negative_n_cases(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n_cases=-1)

    def test_label_noise_range(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n_cases=1, label_noise=0.7)

    @pytest.mark.parametrize("bounds", ["[850, 300]", "[5, 5]"])
    def test_bounds_that_are_not_increasing_are_refused(self, bounds, monkeypatch):
        """``parse_process_structure`` keeps such bounds; the simulator
        refuses them as ``parse_process`` does, before it draws from a
        reversed or empty range."""
        text = fixture_path().read_text().replace("[300, 850]", bounds)
        defn = parse_process_structure(text)
        lo, hi = defn.attribute_bounds["credit_score"]
        monkeypatch.setattr(simulation, "_uniform_rows", None)
        with pytest.raises(InvalidDefinitionError) as exc:
            generate_log(defn, SimulationConfig(n_cases=10))
        assert str(exc.value) == (
            f"credit_score: bounds [{lo}, {hi}] are not an increasing interval"
        )


class TestConformance:
    def test_every_simulated_trace_conforms(self, loan, small_log):
        for trace in small_log.traces:
            indicators = {a: int(a in trace.activities) for a in loan.activity_names}
            assert is_conformant(loan, trace.attrs, indicators)

    def test_skilled_vector_under_skilled_attrs(self, loan):
        ind = {"skilled_agent_review": 1, "standard_review": 0, "submit_application": 1}
        assert is_conformant(loan, SKILLED, ind)

    def test_standard_vector_under_skilled_attrs_is_invalid(self, loan):
        ind = {"skilled_agent_review": 0, "standard_review": 1, "submit_application": 1}
        assert not is_conformant(loan, SKILLED, ind)

    def test_skilled_vector_under_standard_attrs_is_invalid(self, loan):
        ind = {"skilled_agent_review": 1, "standard_review": 0, "submit_application": 1}
        assert not is_conformant(loan, STANDARD, ind)

    def test_missing_submit_is_invalid(self, loan):
        ind = {"skilled_agent_review": 1, "standard_review": 0, "submit_application": 0}
        assert not is_conformant(loan, SKILLED, ind)

    def test_wrong_indicator_keys_raise(self, loan):
        with pytest.raises(SchemaMismatchError):
            is_conformant(loan, SKILLED, {"skilled_agent_review": 1})


class TestJsonl:
    def test_round_trip(self, tmp_path, small_log):
        path = tmp_path / "log.jsonl"
        write_log_jsonl(small_log, path)
        back = read_log_jsonl(path, process_name=small_log.process_name)
        assert back.traces == small_log.traces
        assert back.process_name == small_log.process_name

    def test_output_bytes_are_stable(self, tmp_path, small_log):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log_jsonl(small_log, a)
        write_log_jsonl(small_log, b)
        assert a.read_bytes() == b.read_bytes()

    def test_line_shape(self, tmp_path, small_log):
        path = tmp_path / "log.jsonl"
        write_log_jsonl(small_log, path)
        first = path.read_text().splitlines()[0]
        record = json.loads(first)
        assert list(record) == ["case_id", "attrs", "activities", "label"]
        assert list(record["attrs"]) == sorted(record["attrs"])

    def test_bad_label_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"case_id": "c1", "attrs": {}, "activities": [], "label": "MAYBE"}\n'
        )
        with pytest.raises(BadLabelError):
            read_log_jsonl(path)

    @pytest.mark.parametrize("key", ["case_id", "attrs", "activities", "label"])
    def test_missing_field_names_line_and_key(self, tmp_path, key):
        record = {"case_id": "c1", "attrs": {}, "activities": [], "label": "POSITIVE"}
        del record[key]
        path = tmp_path / "log.jsonl"
        path.write_text('{"case_id": "c0", "attrs": {}, "activities": [], '
                        '"label": "NEGATIVE"}\n' + json.dumps(record) + "\n")
        with pytest.raises(MalformedLogError, match=f"line 2: .*'{key}'"):
            read_log_jsonl(path)

    @pytest.mark.parametrize("line", [
        '[1, 2]',
        '"c1"',
        "{not json",
        '{"case_id": "c1", "attrs": [], "activities": [], "label": "POSITIVE"}',
        '{"case_id": "c1", "attrs": [1, 2], "activities": [], "label": "POSITIVE"}',
        '{"case_id": "c1", "attrs": {"a": "x"}, "activities": [], "label": "POSITIVE"}',
        '{"case_id": "c1", "attrs": {"a": "600"}, "activities": [], "label": "POSITIVE"}',
        '{"case_id": "c1", "attrs": {"a": true}, "activities": [], "label": "POSITIVE"}',
        pytest.param('{"case_id": "c1", "attrs": {"a": 1%s}, "activities": [], '
                     '"label": "POSITIVE"}' % ("0" * 400), id="overflowing-int"),
        '{"case_id": "c1", "attrs": {}, "activities": "submit", "label": "POSITIVE"}',
    ])
    def test_malformed_line_is_refused(self, tmp_path, line):
        path = tmp_path / "log.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MalformedLogError, match="line 1"):
            read_log_jsonl(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_attribute_is_refused(self, tmp_path, value):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"case_id": "c0", "attrs": {"a": 1.0}, "activities": [], "label": "NEGATIVE"}\n'
            f'{{"case_id": "c1", "attrs": {{"a": {value}}}, "activities": [], '
            '"label": "POSITIVE"}\n'
        )
        with pytest.raises(MalformedLogError, match=r"line 2: attribute 'a' is -?(inf|nan), not a finite number"):
            read_log_jsonl(path)

    @pytest.mark.parametrize("value,kind", [
        ('"nan"', "str"), ('"inf"', "str"), ('"1.5"', "str"), ("true", "bool"),
        ("null", "NoneType"), ("[1.5]", "list"), ("{}", "dict"),
    ])
    def test_attribute_that_is_not_a_number_is_refused(self, tmp_path, value, kind):
        """A string is not a number, even one ``float`` reads, nor is a bool."""
        path = tmp_path / "log.jsonl"
        path.write_text(
            f'{{"case_id": "c1", "attrs": {{"a": {value}}}, "activities": [], '
            '"label": "POSITIVE"}\n'
        )
        with pytest.raises(MalformedLogError) as exc:
            read_log_jsonl(path)
        assert str(exc.value) == f"line 1: attribute 'a' is {kind}, not a number"

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_past_the_float_range_is_refused(self, tmp_path, digits):
        """Past 4300 digits ``int`` refuses to read it, as json reports."""
        path = tmp_path / "log.jsonl"
        path.write_text('{"case_id": "c1", "attrs": {"a": -1%s}, "activities": [], '
                        '"label": "POSITIVE"}\n' % ("0" * digits))
        with pytest.raises(MalformedLogError) as exc:
            read_log_jsonl(path)
        if digits < 4300:
            assert str(exc.value) == "line 1: attribute 'a' is -inf, not a finite number"
        else:
            assert str(exc.value).startswith("line 1: not JSON (Exceeds the limit")

    def test_empty_file_reads_as_empty_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        assert len(read_log_jsonl(path)) == 0

    @pytest.mark.parametrize("value,kind", [
        ("null", "NoneType"), ("5", "int"), ("1.5", "float"), ("true", "bool"),
        ('["c1"]', "list"), ('{"id": "c1"}', "dict"),
    ])
    def test_non_string_case_id_is_refused(self, tmp_path, value, kind):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"case_id": "c0", "attrs": {}, "activities": [], "label": "NEGATIVE"}\n'
            f'{{"case_id": {value}, "attrs": {{}}, "activities": [], "label": "POSITIVE"}}\n'
        )
        with pytest.raises(MalformedLogError) as exc:
            read_log_jsonl(path)
        assert str(exc.value) == f"line 2: 'case_id' is {kind}, not a string"

    @pytest.mark.parametrize("line", [
        "{not json",
        '{"case_id": "c1"} {}',
        '{"case_id": "c1", "attrs": {}, "activities": [], "label": "POSITIVE"} x',
        "[1, 2",
        '"unterminated',
        "\ufeff{}",
        "nul",
    ])
    def test_decode_errors_carry_json_messages(self, tmp_path, line):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(line)
        path = tmp_path / "log.jsonl"
        path.write_text('{"case_id": "c0", "attrs": {}, "activities": [], "label": "NEGATIVE"}\n'
                        + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedLogError) as got:
            read_log_jsonl(path)
        assert str(got.value) == f"line 2: not JSON ({want.value})"

    def test_traces_with_one_path_share_its_tuple(self, tmp_path, small_log):
        path = tmp_path / "log.jsonl"
        write_log_jsonl(small_log, path)
        for log in (small_log, read_log_jsonl(path)):
            paths = {t.activities for t in log.traces}
            assert len({id(t.activities) for t in log.traces}) == len(paths) == 2

    def test_crafted_traces_read_back_equal(self, tmp_path):
        """Mixed attribute names leave NaN cells, which read back as absent
        names; integer and numpy values read back as the floats written."""
        log = EventLog.from_records("p", CRAFTED)
        assert log.attribute_names == ("%s", "100%", "a", "b", "\u00e9t\u00e9")
        path = tmp_path / "log.jsonl"
        write_log_jsonl(log, path)
        back = read_log_jsonl(path, "p")
        assert back.traces == log.traces
        assert [t.attrs for t in back.traces[-3:]] == [
            {}, {"%s": 1.5, "100%": -1e-300, "\u00e9t\u00e9": 2.5}, {"a": 2.0**53, "b": 1.0},
        ]
        np.testing.assert_array_equal(back.values, log.values)

    def test_finite_values_whose_sum_overflows_are_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"case_id": "c1", "attrs": {"a": 1e308, "b": 1e308}, '
                        '"activities": [], "label": "POSITIVE"}\n')
        assert read_log_jsonl(path).traces[0].attrs == {"a": 1e308, "b": 1e308}

    def test_unencodable_case_in_a_file_is_named(self, tmp_path, loan_schema):
        """The first case in file order that lacks a schema attribute or
        holds an unknown activity is named, attributes checked first."""
        good = {"credit_score": 580.0, "loan_amount": 300000.0}
        cases = [
            ("c1", good, ["submit_application"]),
            ("c2", {"credit_score": 600.0}, ["submit_application"]),
            ("c3", good, ["escalate"]),
            ("c4", {"loan_amount": 1.0}, ["escalate"]),
        ]
        lines = [
            json.dumps({"case_id": c, "attrs": a, "activities": p, "label": POSITIVE})
            for c, a, p in cases
        ]
        path = tmp_path / "log.jsonl"
        for order, message in [
            ((0, 1, 2), "trace 'c2' lacks attribute 'loan_amount'"),
            ((0, 2, 1), "trace 'c3' contains unknown activity 'escalate'"),
            ((3, 2, 1), "trace 'c4' lacks attribute 'credit_score'"),
        ]:
            path.write_text("".join(lines[i] + "\n" for i in order))
            with pytest.raises(SchemaMismatchError) as exc:
                encode_log(loan_schema, read_log_jsonl(path))
            assert str(exc.value) == message


class TestEdgeLogs:
    """Logs without cases or without attributes go through every step."""

    def test_zero_cases(self, loan, loan_schema, tmp_path):
        log = generate_log(loan, SimulationConfig(n_cases=0))
        path = tmp_path / "log.jsonl"
        write_log_jsonl(log, path)
        assert path.read_bytes() == b""
        back = read_log_jsonl(path, loan.name)
        assert len(back) == 0 and back.values.shape == (0, 0)
        with pytest.raises(EmptyLogError):
            split_log(back)
        with pytest.raises(EmptyLogError):
            encode_log(loan_schema, back)

    def test_no_attributes(self, tmp_path):
        schema = build_schema(NO_ATTRIBUTES)
        log = generate_log(NO_ATTRIBUTES, SimulationConfig(n_cases=300, seed=3))
        assert log.values.shape == (300, 0)
        path = tmp_path / "log.jsonl"
        write_log_jsonl(log, path)
        assert '"attrs": {}, ' in path.read_text().splitlines()[0]
        back = read_log_jsonl(path, NO_ATTRIBUTES.name)
        assert back.traces == log.traces
        train_part, test_part = split_log(back)
        assert len(train_part) + len(test_part) == 300
        matrix, labels = encode_log(schema, train_part)
        assert labels == train_part.labels
        assert matrix.tolist() == [
            [float(name in t.activities) for name in schema.names] for t in train_part.traces
        ]


def validator_read(path):
    """The oracle: every line through the line validator."""
    with open(path, "r", encoding="utf-8") as fh:
        return simulation._columns("", simulation._records(fh))


def outcome(read, path):
    """The log ``read`` returns for ``path``, or its error's type and message."""
    try:
        return read(path)
    except ProcexError as exc:
        return type(exc), str(exc)


def assert_same_log(got, want):
    """Equal columns, bit for bit, in the same layout."""
    for name in ("case_ids", "labels", "attribute_names", "paths"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.shape == want.values.shape and got.values.flags.c_contiguous
    assert got.path_of.dtype == want.path_of.dtype
    assert got.path_of.tolist() == want.path_of.tolist()


class TestPatternReader:
    """``read_log_jsonl`` splits the writer's own layout with one pattern and
    reads every other file with the line validator, with equal results."""

    def test_written_logs_never_reach_the_validator(self, seed42_log, tmp_path, monkeypatch,
                                                    capsys):
        """The seed-42 log, a log the CLI's ``simulate`` writes, a log
        without attributes and logs of random processes."""
        tour = tmp_path / "tour.jsonl"
        assert dispatch(["-q", "simulate", str(fixture_path()), "--n", "3000", "--seed",
                         "1601", "--out", str(tour)]) == 0
        capsys.readouterr()
        paths = [tmp_path / "seed42.jsonl", tour, tmp_path / "no_attributes.jsonl",
                 tmp_path / "crafted.jsonl", tmp_path / "imported.jsonl"]
        write_log_jsonl(seed42_log, paths[0])
        write_log_jsonl(generate_log(NO_ATTRIBUTES, SimulationConfig(n_cases=50)), paths[2])
        # Escaped case ids and activities, and NaN cells after a first case
        # that has every attribute.
        first = Trace("c0", dict.fromkeys(["%s", "100%", "a", "b", "\u00e9t\u00e9"], 1.0),
                      ("x",), POSITIVE)
        write_log_jsonl(EventLog.from_records("", (first, *CRAFTED)), paths[3])
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("case_id,credit_score,loan_amount,activity,label\n"
                            "c1,580,300000,submit_application,NEGATIVE\n"
                            "\u00e7\u00e9,700,100,submit_\u00e9,POSITIVE\n", encoding="utf-8")
        write_log_jsonl(import_log_csv(csv_path, ["credit_score", "loan_amount"]), paths[4])
        for i in range(5):
            defn = random_process(np.random.default_rng(700 + i), i)
            paths.append(tmp_path / f"random{i}.jsonl")
            write_log_jsonl(generate_log(defn, SimulationConfig(n_cases=80, seed=i)), paths[-1])
        want = [validator_read(path) for path in paths]

        def refuse(lines):
            raise AssertionError("the line validator was called")

        monkeypatch.setattr(simulation, "_records", refuse)
        for path, log in zip(paths, want):
            assert_same_log(read_log_jsonl(path), log)

    def test_mutated_files_read_as_the_validator_reads_them(self, loan, tmp_path, monkeypatch):
        """A seeded fuzzer: 40 written loan lines with up to two edits each,
        every file read both ways, and each edit one the pattern must either
        read exactly as ``json`` does or decline."""
        path = tmp_path / "log.jsonl"
        write_log_jsonl(generate_log(loan, SimulationConfig(n_cases=40, seed=3)), path)
        canonical = path.read_text(encoding="utf-8").splitlines(keepends=True)
        numbers = ["-0", "-0.0", "1e308", "1e+308", "5", "1e-320", "1.5e+999", "5.\u0665"]
        inserts = ["\r", "\x0b", "\u00e9", '\\"', "\\u00e9", ",", "{}", "\n"]
        number = re.compile(r"(?<=: )-?[0-9][0-9.e+-]*")
        rng = np.random.default_rng(2024)

        def mutate(lines):
            i = int(rng.integers(len(lines)))
            line, kind = lines[i], rng.integers(6)
            if kind == 0:  # a number in another spelling
                spans = [m.span() for m in number.finditer(line)] or [(0, 0)]
                a, b = spans[rng.integers(len(spans))]
                lines[i] = line[:a] + numbers[rng.integers(len(numbers))] + line[b:]
            elif kind == 1:  # a character in the case id or anywhere in a line
                at = 14 if rng.integers(2) else int(rng.integers(len(line)))
                lines[i] = line[:at] + inserts[rng.integers(len(inserts))] + line[at:]
            elif kind == 2:  # two records on one line, or no final newline
                lines[i] = line.removesuffix("\n")
            elif kind == 3 and line in canonical:  # keys in another order
                record = json.loads(line)
                if rng.integers(2):
                    record = dict(reversed(record.items()))
                else:
                    record["attrs"] = dict(reversed(record["attrs"].items()))
                lines[i] = json.dumps(record) + "\n"
            elif kind == 4 and line in canonical:  # an attribute left out: a NaN cell
                record = json.loads(line)
                del record["attrs"][sorted(record["attrs"])[rng.integers(2)]]
                lines[i] = json.dumps(record) + "\n"
            else:
                lines.insert(i, "\n")

        declined = 0
        records = simulation._records

        def counted(lines, start=1):
            nonlocal declined
            declined += 1
            return records(lines, start)

        n_files = 1500
        for _ in range(n_files):
            lines = list(canonical)
            for _ in range(rng.integers(3)):
                mutate(lines)
            path.write_bytes("".join(lines).encode("utf-8"))
            want = outcome(validator_read, path)
            with monkeypatch.context() as patch:
                patch.setattr(simulation, "_records", counted)
                got = outcome(read_log_jsonl, path)
            if isinstance(want, tuple) or isinstance(got, tuple):
                assert got == want
            else:
                assert_same_log(got, want)
        assert 0.35 < 1 - declined / n_files < 0.55  # read by the pattern: 0.452

    def test_a_stream_is_read_once(self, loan, tmp_path, monkeypatch):
        """A pipe cannot be read twice, and need not be: a written log read
        through a pipe takes the pattern alone and equals the file read;
        one with blank lines reads as the validator reads the file, and one
        with a byte that is not UTF-8 is refused without a location."""
        path = tmp_path / "log.jsonl"
        write_log_jsonl(generate_log(loan, SimulationConfig(n_cases=40, seed=3)), path)
        written = path.read_bytes()
        want = read_log_jsonl(path)

        def piped(data):
            read_end, write_end = os.pipe()
            os.write(write_end, data)  # less than a pipe's buffer
            os.close(write_end)
            try:
                return outcome(read_log_jsonl, f"/dev/fd/{read_end}")
            finally:
                os.close(read_end)

        def refuse(lines, start=1):
            raise AssertionError("the line validator was called")

        with monkeypatch.context() as patch:
            patch.setattr(simulation, "_records", refuse)
            assert_same_log(piped(written), want)
        blank = written.replace(b"\n", b"\n\n", 7)
        path.write_bytes(blank)
        assert_same_log(piped(blank), validator_read(path))
        assert piped(written + b"\xff\n") == (
            MalformedLogError, "line ?, col ?: byte 0xff is not UTF-8")

    @pytest.mark.parametrize("k", [1, 2, 300, 1000])
    @pytest.mark.parametrize("edit", ["space", "blank line", "infinity"])
    def test_the_validator_reads_from_the_line_the_pattern_stops_at(
            self, loan, tmp_path, monkeypatch, k, edit):
        """Stopped at line ``k`` of 1000 written lines, in the first batch
        or a later one, the pattern hands the validator line ``k`` and the
        rest, once, and none of the lines it matched."""
        path = tmp_path / "log.jsonl"
        write_log_jsonl(generate_log(loan, SimulationConfig(n_cases=1000, seed=3)), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if edit == "space":
            lines[k - 1] = " " + lines[k - 1]
        elif edit == "blank line":
            lines.insert(k - 1, "\n")
        else:
            lines[k - 1] = re.sub(r"(?<=: )[0-9.e+-]+", "1e999", lines[k - 1], count=1)
        path.write_text("".join(lines), encoding="utf-8")
        calls = []
        records = simulation._records

        def recorded(handed, start=1):
            handed = list(handed)
            calls.append((start, handed))
            return records(handed, start)

        with monkeypatch.context() as patch:
            patch.setattr(simulation, "_records", recorded)
            got = outcome(read_log_jsonl, path)
        assert calls == [(k, lines[k - 1:])]
        want = outcome(validator_read, path)
        if edit == "infinity":
            assert got == want == (MalformedLogError, f"line {k}: attribute 'credit_score' "
                                                      "is inf, not a finite number")
        else:
            assert_same_log(got, want)

    def test_a_first_case_without_a_later_attribute_reads_as_the_validator(self, tmp_path):
        """The pattern takes the names of the first case, which has none."""
        path = tmp_path / "log.jsonl"
        write_log_jsonl(EventLog.from_records("", (CRAFTED[3], *CRAFTED[:3])), path)
        assert_same_log(read_log_jsonl(path), validator_read(path))

    def test_a_path_spelled_two_ways_is_one_path(self, tmp_path):
        """json reads ``"\\u0078"`` as ``"x"``: one path, as the validator reads it."""
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"case_id": "c1", "attrs": {}, "activities": ["x"], "label": "POSITIVE"}\n'
            '{"case_id": "c2", "attrs": {}, "activities": ["\\u0078"], "label": "NEGATIVE"}\n')
        got = read_log_jsonl(path)
        assert got.paths == (("x",),) and got.path_of.tolist() == [0, 0]
        assert_same_log(got, validator_read(path))

    @pytest.mark.parametrize("case_id,attrs", [
        ("c\\x", '"a": 1.5, "b": 2.5'),
        ("c\\u12", '"a": 1.5, "b": 2.5'),
        ("c\\u00e9\\/\\t", '"b": 2.5'),
        ("c1", '"a": 1.5, '),
        ("c1", ', "b": 2.5'),
        ("c1", '"a": 1.5 , "b": 2.5'),
        ("c1", '"a": 1.5"b": 2.5'),
        ("c1", '"b": 2.5, "a": 1.5'),
        ("c1", '"a": 1.5, "a": 2.5'),
        ("c1", ""),
        ("c1", '"a": 5\u0665.0, "b": 2.5'),
        ("c1", '"a": 1.5e\u0665, "b": 2.5'),
        ("c1", '"a": 1e\u0665, "b": 2.5'),
    ])
    def test_near_misses_read_as_the_validator_reads_them(self, tmp_path, case_id, attrs):
        """Escapes json refuses, separators out of place, names out of order
        and non-ASCII digits, after a first line that has every name."""
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"case_id": "c0", "attrs": {"a": 0.5, "b": 0.5}, "activities": [], "label": "POSITIVE"}\n'
            f'{{"case_id": "{case_id}", "attrs": {{{attrs}}}, "activities": ["x"], '
            '"label": "NEGATIVE"}\n')
        want, got = outcome(validator_read, path), outcome(read_log_jsonl, path)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
        else:
            assert_same_log(got, want)

    @pytest.mark.parametrize("line,value", [
        ('{"case_id": "c1", "attrs": {"a": -0}, "activities": [], "label": "POSITIVE"}', 0.0),
        ('{"case_id": "c1", "attrs": {"a": -0.0}, "activities": [], "label": "POSITIVE"}', -0.0),
        ('{"case_id": "c1", "attrs": {"a": 1e-320}, "activities": [], "label": "POSITIVE"}',
         1e-320),
    ])
    def test_signed_zero_and_subnormals_read_as_json_reads_them(self, tmp_path, line, value):
        path = tmp_path / "log.jsonl"
        path.write_text(line + "\n")
        got = read_log_jsonl(path).values
        assert got.tobytes() == np.array([[value]]).tobytes()


def test_records_and_their_lines_agree(tmp_path):
    """A seeded fuzzer of the one case check: 1000 valid records with one or
    two fields mutated, each read by ``from_records`` and, as one
    ``json.dumps`` line, by ``read_log_jsonl``. Both give the same columns,
    or the same error class and message after the location. A record tuple
    cannot lack a top-level field, so only an attribute or an activity is
    deleted; a line's missing keys are json's alone."""
    attrs, activities = {"a": 580.5, "b": 3e5}, ["submit", "review"]
    nested = [*attrs, *range(len(activities))]
    fields = ["case_id", "attrs", "activities", "label", *nested]
    values = [None, True, 0, -1.5, 1e308, "abc", "1.5", [], {}, [1, 2]]
    deleted = object()
    rng = np.random.default_rng(29)
    path = tmp_path / "log.jsonl"
    refused = 0
    for _ in range(1000):
        edits = {}
        for k in rng.choice(len(fields), size=rng.integers(1, 3), replace=False):
            pick = rng.integers(len(values) + (fields[k] in nested))
            edits[fields[k]] = values[pick] if pick < len(values) else deleted
        record = {
            "case_id": edits.get("case_id", "c1"),
            "attrs": edits.get("attrs", {name: edits.get(name, value)
                                         for name, value in attrs.items()
                                         if edits.get(name) is not deleted}),
            "activities": edits.get("activities", [edits.get(i, name)
                                                   for i, name in enumerate(activities)
                                                   if edits.get(i) is not deleted]),
            "label": edits.get("label", POSITIVE),
        }
        line = json.dumps(record)
        path.write_text(line + "\n", encoding="utf-8")
        got = []
        for read in (lambda: EventLog.from_records("", [tuple(json.loads(line).values())]),
                     lambda: read_log_jsonl(path)):
            try:
                got.append(read())
            except ProcexError as exc:
                got.append((type(exc), str(exc).partition(": ")[2]))
        if isinstance(got[0], tuple) or isinstance(got[1], tuple):
            assert got[0] == got[1], line
            refused += 1
        else:
            assert_same_log(*got)
    assert 100 < 1000 - refused < refused  # accepted: 138


def test_pipeline_never_builds_the_traces_view(loan, monkeypatch, tmp_path, capsys):
    """Simulate, write, read, split, train, evaluate, compare and resolve a
    ``--case-id`` without one ``Trace`` per case."""
    def refuse(self):
        raise AssertionError("the pipeline read EventLog.traces")

    monkeypatch.setattr(EventLog, "traces", property(refuse))
    schema = build_schema(loan)
    log = generate_log(loan, SimulationConfig(n_cases=2000, seed=11))
    path = tmp_path / "log.jsonl"
    write_log_jsonl(log, path)
    train_part, test_part = split_log(read_log_jsonl(path, loan.name))
    model = train(train_part, schema)
    assert evaluate(model, test_part).n == len(test_part)
    config = ComparisonConfig(n_instances=2, seeds=(0,), n_samples=100)
    assert len(run_comparison(loan, model, train_part, config).records) == 2
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    argv = ["-q", "explain", str(fixture_path()), "--model", str(model_path),
            "--log", str(path), "--case-id", "c000007", "--mode", "process-aware"]
    assert dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["instance_id"] == "c000007"


class TestJsonlWriter:
    """``write_log_jsonl`` against ``reference_line``, and its refusals."""

    def check(self, tmp_path, traces):
        path = tmp_path / "log.jsonl"
        write_log_jsonl(EventLog.from_records("p", tuple(traces)), path)
        want = "".join(map(reference_line, traces)).encode("utf-8")
        assert path.read_bytes() == want

    def test_loan_log(self, tmp_path, seed42_log):
        self.check(tmp_path, seed42_log.traces)

    def test_random_processes(self, tmp_path):
        for i in range(10):
            defn = random_process(np.random.default_rng(900 + i), i)
            log = generate_log(defn, SimulationConfig(n_cases=100, seed=i, label_noise=0.2))
            self.check(tmp_path, log.traces)

    def test_crafted_traces(self, tmp_path):
        self.check(tmp_path, CRAFTED)
        self.check(tmp_path, CRAFTED[::-1])

    def test_empty_log(self, tmp_path):
        self.check(tmp_path, ())

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("holes", [False, True], ids=["dense", "nan-cells"])
    def test_logs_across_chunk_boundaries(self, tmp_path, n, holes):
        """The writer formats 1024 cases at a time: escaped non-ASCII case
        ids, and (with ``holes``) left-out NaN cells, on both sides of each
        boundary, in the template layout and the per-case layout."""
        rng = np.random.default_rng(n)
        edges = {i + d for i in (1024, 2048) for d in (-2, -1, 0, 1)}
        paths = [("a",), ("a", "b\u00e9"), ()]
        traces = []
        for i in range(n):
            attrs = {"x": float(rng.normal() * 10.0 ** rng.integers(-5, 6)),
                     "y\u00e9": float(rng.integers(-1000, 1000))}
            if holes and i in edges:
                del attrs["x" if i % 2 else "y\u00e9"]
            case_id = f"c\u00e9\u4e2d\"{i}" if i in edges else f"c{i:06d}"
            traces.append(Trace(case_id, attrs, paths[i % 3], (POSITIVE, NEGATIVE)[i % 2]))
        self.check(tmp_path, traces)
        log = EventLog.from_records("p", traces)
        back = read_log_jsonl(tmp_path / "log.jsonl", "p")
        assert back.case_ids == log.case_ids
        assert back.labels == log.labels
        assert back.attribute_names == log.attribute_names
        assert np.array_equal(back.values, log.values, equal_nan=True)
        assert back.paths == log.paths
        assert back.path_of.tolist() == log.path_of.tolist()

    def test_peak_memory_does_not_grow_with_the_log(self, loan, tmp_path):
        """Lines are held one chunk at a time: the traced peak of writing
        8192 cases stays within 1.5x of writing 2048."""
        peaks = []
        for n in (2048, 8192):
            log = generate_log(loan, SimulationConfig(n_cases=n, seed=3))
            tracemalloc.start()
            try:
                write_log_jsonl(log, tmp_path / "log.jsonl")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_round_trip_on_random_processes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for i in range(20):
            defn = random_process(np.random.default_rng(950 + i), i)
            log = generate_log(defn, SimulationConfig(n_cases=60, seed=i, label_noise=0.2))
            write_log_jsonl(log, path)
            assert read_log_jsonl(path, defn.name).traces == log.traces

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_is_refused_before_writing(self, tmp_path, value):
        bad = Trace("c2", {"a": 1.0, "x": value}, (), POSITIVE)
        path = tmp_path / "log.jsonl"
        with pytest.raises(MalformedLogError) as exc:
            write_log_jsonl(EventLog.from_records("p", (CRAFTED[0], bad)), path)
        assert str(exc.value) == f"case 'c2': attribute 'x' is {value}, not a finite number"
        assert not path.exists()

    @pytest.mark.parametrize("value,reason", [
        ("abc", "str, not a number"),
        ("1.5", "str, not a number"),
        (True, "bool, not a number"),
        (np.True_, "bool, not a number"),
        (None, "NoneType, not a number"),
        (10**400, "inf, not a finite number"),
        (-(10**400), "-inf, not a finite number"),
    ], ids=["string", "numeric-string", "bool", "numpy-bool", "none", "overflowing-int",
            "overflowing-negative-int"])
    def test_value_that_is_not_a_finite_number_is_refused_before_writing(
            self, tmp_path, value, reason):
        """What a log line may not hold: ``float`` would read the string
        ``"1.5"`` and the bool ``True``, but neither is a number."""
        bad = Trace("c2", {"a": 1.0, "x": value}, (), POSITIVE)
        path = tmp_path / "log.jsonl"
        with pytest.raises(MalformedLogError) as exc:
            write_log_jsonl(EventLog.from_records("p", (CRAFTED[0], bad)), path)
        assert str(exc.value) == f"case 'c2': attribute 'x' is {reason}"
        assert not path.exists()

    @pytest.mark.parametrize("case_id", [None, 7, b"c2"])
    def test_non_string_case_id_is_refused_before_writing(self, tmp_path, case_id):
        bad = Trace(case_id, {"a": 1.0}, (), POSITIVE)
        path = tmp_path / "log.jsonl"
        with pytest.raises(MalformedLogError) as exc:
            write_log_jsonl(EventLog.from_records("p", (CRAFTED[0], bad)), path)
        assert str(exc.value) == (
            f"trace 2 (case {case_id!r}): 'case_id' is {type(case_id).__name__}, not a string"
        )
        assert not path.exists()

    @pytest.mark.parametrize("bad,error,message", [
        (Trace("c2", {}, ("a", None), POSITIVE), MalformedLogError,
         "case 'c2': activity None is not a string"),
        (Trace("c2", {}, (("a",),), POSITIVE), MalformedLogError,
         "case 'c2': activity ('a',) is not a string"),
        (Trace("c2", {}, ("a",), "positive"), BadLabelError,
         "case 'c2': label 'positive' is neither POSITIVE nor NEGATIVE"),
        (Trace("c2", {}, ("a",), None), BadLabelError,
         "case 'c2': label None is neither POSITIVE nor NEGATIVE"),
    ], ids=["null-activity", "list-activity", "lowercase-label", "null-label"])
    def test_what_the_reader_refuses_is_refused_before_writing(self, tmp_path, bad, error, message):
        path = tmp_path / "log.jsonl"
        with pytest.raises(error) as exc:
            write_log_jsonl(EventLog.from_records("p", (CRAFTED[0], bad)), path)
        assert str(exc.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("bad,message", [
        (("c2", None, ("a",), POSITIVE), "case 'c2': 'attrs' is NoneType, not a mapping"),
        (("c2", [("a", 1.0)], ("a",), POSITIVE), "case 'c2': 'attrs' is list, not a mapping"),
        (("c2", {}, None, POSITIVE), "case 'c2': 'activities' is NoneType, not a list"),
        (("c2", {}, "ab", POSITIVE), "case 'c2': 'activities' is str, not a list"),
        (("c2", {1: 2.0}, ("a",), POSITIVE), "case 'c2': attribute name 1 is not a string"),
        (("c2", {"a": 1.0, 1: 2.0}, ("a",), POSITIVE),
         "case 'c2': attribute name 1 is not a string"),
        (("c2", {}, ("a",)), "trace 2: expected 4 fields, got 3"),
        (["c2", {}, ("a",), POSITIVE, "extra"], "trace 2: expected 4 fields, got 5"),
        (5, "trace 2: expected a sequence of 4 fields, got int"),
        ({"case_id": "c2", "attrs": {}, "activities": (), "label": POSITIVE},
         "trace 2: expected a sequence of 4 fields, got dict"),
    ], ids=["null-attrs", "list-attrs", "null-activities", "string-activities",
            "int-attribute-name", "mixed-attribute-names", "three-fields", "five-fields",
            "not-a-sequence", "mapping"])
    def test_record_of_the_wrong_shape_is_refused(self, bad, message):
        with pytest.raises(MalformedLogError) as exc:
            EventLog.from_records("p", (CRAFTED[0], bad))
        assert str(exc.value) == message

    def test_first_unwritable_trace_is_named(self, tmp_path):
        bad_id = Trace(None, {"a": 1.0}, (), POSITIVE)
        bad_value = Trace("c3", {"a": float("nan")}, (), POSITIVE)
        path = tmp_path / "log.jsonl"
        with pytest.raises(MalformedLogError, match=r"^trace 2 \(case None\)"):
            write_log_jsonl(EventLog.from_records("p", (CRAFTED[3], bad_id, bad_value)), path)
        with pytest.raises(MalformedLogError, match="^case 'c3': attribute 'a' is nan"):
            write_log_jsonl(EventLog.from_records("p", (CRAFTED[3], bad_value, bad_id)), path)
        assert not path.exists()


def strict_json(value) -> str:
    """The bytes every JSON output is specified by: stdout payloads, model
    files, reports and explanations."""
    return json.dumps(value, indent=2, allow_nan=False)


class TestStrictJsonWriter:
    """``_json_text``, behind every command's stdout, ``save_model``,
    ``write_report_json`` and ``explain --out``, against
    ``json.dumps(..., indent=2, allow_nan=False)``."""

    CHARACTERS = [
        "a", "Z", "0", " ", '"', "\\", "/", "\x00", "\x08", "\t", "\n", "\x0c", "\r", "\x1f",
        "\x7f", "é", "ÿ", "Ā", " ", "中", "﻿", "\U0001f600",
        "\ud800", "\udfff",
    ]
    FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.5, 1e16, 1e-7, 123456789.125]

    def random_value(self, rng, depth=0):
        kind = int(rng.integers(11 if depth < 5 else 6))
        if kind == 0:
            picks = rng.integers(len(self.CHARACTERS), size=int(rng.integers(8)))
            return "".join(self.CHARACTERS[i] for i in picks)
        if kind == 1:
            if rng.integers(2):
                return self.FLOATS[rng.integers(len(self.FLOATS))]
            value = float(rng.integers(2**64, dtype=np.uint64).view(np.float64))
            return value if np.isfinite(value) else float(rng.standard_normal())
        if kind == 2:
            return int(rng.integers(-1000, 1000)) * 3 ** int(rng.integers(0, 90))
        if kind == 3:
            return bool(rng.integers(2))
        if kind == 4:
            return None
        if kind == 5:
            return [(), [], {}][rng.integers(3)]
        items = [self.random_value(rng, depth + 1) for _ in range(int(rng.integers(1, 5)))]
        if kind == 6:
            return items
        if kind == 7:
            return tuple(items)
        keys = [self.random_key(rng) for _ in items]
        return dict(zip(keys, items))

    def random_key(self, rng):
        value = self.random_value(rng, depth=5)
        return value if isinstance(value, (str, int, float, bool, type(None))) else "k"

    def test_random_values_give_the_json_bytes(self):
        rng = np.random.default_rng(31)
        values = [self.random_value(rng) for _ in range(2500)]
        assert sum(isinstance(v, (list, tuple, dict)) and len(v) > 0 for v in values) > 1000
        for value in values:
            assert jsontext._json_text(value) == strict_json(value)

    def test_edge_values_give_the_json_bytes(self):
        edges = [
            2**64, -(2**64) - 1, 10**40, True, False, None, "", "\ud800x\udfff", -0.0, 5e-324,
            {1.5: 1, True: 2, None: 3, 2**70: 4, "é": 5, -0.0: 6}, [[[[[[]]]]]], ({},),
            # Subclasses of the leaf types, written by the recursive path.
            [np.float64(1.5), np.str_("é"), {"k": np.float64(-0.0)}, (np.float64(1e16),)],
        ]
        for value in edges:
            assert jsontext._json_text(value) == strict_json(value)

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, [1.0, [math.nan]], {"a": {"b": -math.inf}},
         {math.inf: 1}, np.float64("nan"), [np.float64("inf")], {"a": math.nan, (1,): 1}],
    )
    def test_non_finite_numbers_raise_value_error(self, value):
        with pytest.raises(ValueError) as want:
            strict_json(value)
        with pytest.raises(ValueError) as got:
            jsontext._json_text(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "value", [np.int64(3), {1, 2}, [np.int64(3)], {np.int64(1): 2}, {(1,): 2}, b"x",
                  {(1,): math.nan}, {"a": 1.0, (1,): [math.nan]}]
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError) as want:
            strict_json(value)
        with pytest.raises(TypeError) as got:
            jsontext._json_text(value)
        assert str(got.value) == str(want.value)

    def test_no_writer_creates_its_file_for_a_non_finite_number(
        self, loan, loan_model, small_log, tmp_path, monkeypatch
    ):
        from dataclasses import replace

        from procex import explainer
        from procex.evaluation import write_report_json

        model = replace(loan_model, train_meta={**loan_model.train_meta, "final_loss": math.nan})
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(model, tmp_path / "model.json")
        config = ComparisonConfig(n_instances=1, seeds=(0,), n_samples=50)
        report = run_comparison(loan, loan_model, small_log, config)
        report = replace(report, aggregates={**report.aggregates, "mean_top_k_overlap": math.inf})
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report_json(report, tmp_path / "report.json")
        save_model(loan_model, tmp_path / "good.json")
        payload = explainer.Explanation.to_json_dict
        monkeypatch.setattr(
            explainer.Explanation, "to_json_dict", lambda self: {**payload(self), "x": -math.inf}
        )
        argv = ["explain", str(fixture_path()), "--model", str(tmp_path / "good.json"),
                "--attrs", "credit_score=580,loan_amount=300000", "--mode", "vanilla", "--samples", "50",
                "--out", str(tmp_path / "explanation.json")]
        with pytest.raises(ValueError, match="not JSON compliant"):
            dispatch(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.json"]

    def test_stdout_payload_with_a_non_finite_number_raises(self, capsys):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"command": "train", "train_meta": {"final_loss": math.nan}})
        assert capsys.readouterr().out == ""


class TestCsvImport:
    HEADER = "case_id,credit_score,loan_amount,activity,label\n"
    BODY = (
        "c1,580,300000,submit_application,NEGATIVE\n"
        "c1,580,300000,skilled_agent_review,NEGATIVE\n"
        "c2,700,50000,submit_application,POSITIVE\n"
        "c2,700,50000,standard_review,POSITIVE\n"
    )

    def _write(self, tmp_path, text):
        path = tmp_path / "events.csv"
        path.write_text(text)
        return path

    def test_groups_rows_into_traces(self, tmp_path):
        path = self._write(tmp_path, self.HEADER + self.BODY)
        log = import_log_csv(path, ["credit_score", "loan_amount"])
        assert len(log) == 2
        first = log.traces[0]
        assert first.case_id == "c1"
        assert first.attrs == {"credit_score": 580.0, "loan_amount": 300000.0}
        assert first.activities == ("submit_application", "skilled_agent_review")
        assert first.label == NEGATIVE
        assert log.traces[1].label == POSITIVE

    def test_lowercase_label_is_normalized(self, tmp_path):
        text = self.HEADER + "c1,580,300000,submit_application,negative\n"
        log = import_log_csv(self._write(tmp_path, text), ["credit_score", "loan_amount"])
        assert log.traces[0].label == NEGATIVE

    def test_missing_column(self, tmp_path):
        text = "case_id,credit_score,activity,label\nc1,580,submit_application,NEGATIVE\n"
        with pytest.raises(MissingColumnError):
            import_log_csv(self._write(tmp_path, text), ["credit_score", "loan_amount"])

    def test_unparsable_number_names_the_cell(self, tmp_path):
        text = self.HEADER + "c1,oops,300000,submit_application,NEGATIVE\n"
        with pytest.raises(UnparsableNumberError) as exc:
            import_log_csv(self._write(tmp_path, text), ["credit_score", "loan_amount"])
        assert "row 2" in str(exc.value)
        assert "credit_score" in str(exc.value)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_number_names_the_cell(self, tmp_path, cell):
        text = self.HEADER + self.BODY.replace("c2,700,", f"c2,{cell},")
        with pytest.raises(UnparsableNumberError) as exc:
            import_log_csv(self._write(tmp_path, text), ["credit_score", "loan_amount"])
        assert str(exc.value) == (
            f"row 4, column 'credit_score': cannot parse '{cell}' as a finite number"
        )

    def test_bad_label(self, tmp_path):
        text = self.HEADER + "c1,580,300000,submit_application,UNKNOWN\n"
        with pytest.raises(BadLabelError):
            import_log_csv(self._write(tmp_path, text), ["credit_score", "loan_amount"])

    def test_header_only_file(self, tmp_path):
        with pytest.raises(EmptyLogError):
            import_log_csv(self._write(tmp_path, self.HEADER), ["credit_score", "loan_amount"])

    def test_imported_log_survives_jsonl_round_trip(self, tmp_path):
        path = self._write(tmp_path, self.HEADER + self.BODY)
        log = import_log_csv(path, ["credit_score", "loan_amount"])
        out = tmp_path / "log.jsonl"
        write_log_jsonl(log, out)
        assert read_log_jsonl(out, "loan_approval").traces == log.traces


def test_simulation_works_for_process_without_attributes():
    text = (
        "process p\nstart -> g\n"
        "gateway g choice { 0.5 -> x 0.5 -> y }\n"
        "activity x -> ok\nactivity y -> bad\n"
        "end ok label POSITIVE\nend bad label NEGATIVE\n"
    )
    defn = parse_process(text)
    log = generate_log(defn, SimulationConfig(n_cases=200, seed=2))
    frac_x = np.mean(["x" in t.activities for t in log.traces])
    assert 0.4 < frac_x < 0.6
    for trace in log.traces:
        indicators = {a: int(a in trace.activities) for a in defn.activity_names}
        assert is_conformant(defn, trace.attrs, indicators)
