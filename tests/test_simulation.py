"""Simulation determinism, conformance, and log serialization."""

import hashlib
import json

import numpy as np
import pytest

from procex.errors import (
    BadLabelError,
    ConfigError,
    EmptyLogError,
    MalformedLogError,
    MissingColumnError,
    SchemaMismatchError,
    UnknownAttributeError,
    UnparsableNumberError,
)
from procex.process_model import NEGATIVE, POSITIVE, parse_process
from procex.simulation import (
    SimulationConfig,
    TruncatedNormal,
    Uniform,
    execute_case,
    generate_log,
    import_log_csv,
    is_conformant,
    read_log_jsonl,
    trace_indicators,
    write_log_jsonl,
)

from procgen import CHAIN, NO_ATTRIBUTES, REJOINING, random_process, simulate_reference

SKILLED = {"credit_score": 580.0, "loan_amount": 300000.0}
STANDARD = {"credit_score": 700.0, "loan_amount": 50000.0}


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

    def test_noise_flips_label_not_path(self, loan):
        clean = execute_case(loan, SKILLED, np.random.default_rng(0), label_noise=0.0)
        noisy = execute_case(loan, SKILLED, np.random.default_rng(0), label_noise=1e-9)
        assert noisy.activities == clean.activities
        full = execute_case(loan, SKILLED, np.random.default_rng(0), label_noise=0.5)
        assert full.activities == clean.activities

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
        short = generate_log(loan, SimulationConfig(n_cases=50, seed=5))
        assert short.traces == generate_log(loan, SimulationConfig(n_cases=100, seed=5)).traces[:50]

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

    def test_empty_log_carries_warning(self, loan):
        log = generate_log(loan, SimulationConfig(n_cases=0))
        assert len(log) == 0
        assert log.provenance["warnings"]

    def test_attrs_stay_within_bounds(self, small_log, loan):
        for trace in small_log.traces:
            for name, (lo, hi) in loan.attribute_bounds.items():
                assert lo <= trace.attrs[name] <= hi

    def test_truncated_normal_override(self, loan):
        config = SimulationConfig(
            n_cases=300,
            seed=3,
            distributions={"credit_score": TruncatedNormal(600.0, 30.0, 500.0, 700.0)},
        )
        log = generate_log(loan, config)
        scores = np.array([t.attrs["credit_score"] for t in log.traces])
        assert scores.min() >= 500.0 and scores.max() <= 700.0
        assert abs(scores.mean() - 600.0) < 10.0

    def test_truncated_normal_in_fresh_interpreter(self, loan, fresh_python):
        """scipy.stats is imported on first use; a process that has not
        loaded it yet draws the same traces."""
        source = """
import json, sys
from procex.process_model import load_fixture
from procex.simulation import SimulationConfig, TruncatedNormal, generate_log

assert "scipy.stats" not in sys.modules
config = SimulationConfig(
    n_cases=300,
    seed=3,
    distributions={"credit_score": TruncatedNormal(600.0, 30.0, 500.0, 700.0)},
)
log = generate_log(load_fixture(), config)
print(json.dumps([[t.attrs, list(t.activities), t.label] for t in log.traces]))
"""
        config = SimulationConfig(
            n_cases=300,
            seed=3,
            distributions={"credit_score": TruncatedNormal(600.0, 30.0, 500.0, 700.0)},
        )
        want = [[t.attrs, list(t.activities), t.label] for t in generate_log(loan, config).traces]
        assert json.loads(fresh_python(source)) == want


class TestReferenceWalk:
    """``generate_log`` against ``procgen.simulate_reference``, which walks
    one case at a time with sequential draws."""

    @staticmethod
    def check(defn, config):
        log = generate_log(defn, config)
        want = simulate_reference(
            defn, config.n_cases, config.seed, config.label_noise,
            dict(config.distributions),
        )
        assert [(t.attrs, t.activities, t.label) for t in log.traces] == want

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_loan(self, loan, noise):
        self.check(loan, SimulationConfig(n_cases=2000, seed=42, label_noise=noise))

    def test_loan_with_overrides(self, loan):
        distributions = {
            "credit_score": TruncatedNormal(600.0, 30.0, 500.0, 700.0),
            "loan_amount": Uniform(5000.0, 400000.0),
        }
        config = SimulationConfig(
            n_cases=500, seed=3, label_noise=0.1, distributions=distributions
        )
        self.check(loan, config)

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
    assert digest == "07a4bbb438356b29d1a3e2267684d930643da41f3d1a6ed57a9703b4b86dc0e2"


class TestConfigValidation:
    def test_negative_n_cases(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n_cases=-1)

    def test_label_noise_range(self):
        with pytest.raises(ConfigError):
            SimulationConfig(n_cases=1, label_noise=0.7)

    def test_unknown_distribution_attribute(self, loan):
        config = SimulationConfig(n_cases=1, distributions={"income": Uniform(0, 1)})
        with pytest.raises(UnknownAttributeError):
            generate_log(loan, config)

    def test_distribution_outside_declared_bounds(self, loan):
        config = SimulationConfig(
            n_cases=1, distributions={"credit_score": Uniform(0.0, 850.0)}
        )
        with pytest.raises(ConfigError):
            generate_log(loan, config)


class TestConformance:
    def test_every_simulated_trace_conforms(self, loan, small_log):
        for trace in small_log.traces:
            assert is_conformant(loan, trace.attrs, trace_indicators(loan, trace))

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
        '{"case_id": "c1", "attrs": {"a": "x"}, "activities": [], "label": "POSITIVE"}',
        '{"case_id": "c1", "attrs": {}, "activities": "submit", "label": "POSITIVE"}',
    ])
    def test_malformed_line_is_refused(self, tmp_path, line):
        path = tmp_path / "log.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MalformedLogError, match="line 1"):
            read_log_jsonl(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"nan"', '"inf"'])
    def test_non_finite_attribute_is_refused(self, tmp_path, value):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"case_id": "c0", "attrs": {"a": 1.0}, "activities": [], "label": "NEGATIVE"}\n'
            f'{{"case_id": "c1", "attrs": {{"a": {value}}}, "activities": [], '
            '"label": "POSITIVE"}\n'
        )
        with pytest.raises(MalformedLogError, match=r"line 2: attribute 'a' is -?(inf|nan), not a finite number"):
            read_log_jsonl(path)

    def test_empty_file_reads_as_empty_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        assert len(read_log_jsonl(path)) == 0


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
        log = import_log_csv(path, ["credit_score", "loan_amount"], process_name="loan_approval")
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
        assert is_conformant(defn, trace.attrs, trace_indicators(defn, trace))
