"""Command-line interface: exit codes, JSON payloads, help texts."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import procex
from procex.cli import dispatch
from procex.process_model import fixture_path, serialize_process

from procgen import NO_ATTRIBUTES_SOURCE, NO_FEATURES_ERROR, NO_FEATURES_SOURCE, long_chain

GOLDEN_DIR = Path(__file__).parent / "goldens"
LOAN = str(fixture_path())

CSV_TEXT = (
    "case_id,credit_score,loan_amount,activity,label\n"
    "c1,580,300000,submit_application,NEGATIVE\n"
    "c1,580,300000,skilled_agent_review,NEGATIVE\n"
    "c2,700,50000,submit_application,POSITIVE\n"
    "c2,700,50000,standard_review,POSITIVE\n"
)


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = dispatch(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated log and a trained model shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    log = root / "log.jsonl"
    model = root / "model.json"
    assert dispatch(["simulate", LOAN, "--n", "300", "--seed", "9", "--out", str(log)]) == 0
    assert dispatch(["train", LOAN, "--log", str(log), "--out", str(model)]) == 0
    return {"root": root, "log": log, "model": model}


class TestValidate:
    def test_clean_definition(self, run):
        code, out, err = run("validate", LOAN)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"process": "loan_approval", "findings": []}
        assert "no findings" in err

    def test_quiet_suppresses_stderr(self, run):
        code, _, err = run("-q", "validate", LOAN)
        assert code == 0 and err == ""

    def test_findings_are_reported_not_fatal(self, run, tmp_path):
        bad = tmp_path / "bad.bp"
        bad.write_text(
            "process p\nstart -> done\nactivity lost -> done\n"
            "end done label POSITIVE\n"
        )
        code, out, _ = run("validate", str(bad))
        assert code == 0
        rules = [f["rule"] for f in json.loads(out)["findings"]]
        assert "UnreachableNode" in rules

    def test_unparsable_file_fails(self, run, tmp_path):
        bad = tmp_path / "bad.bp"
        bad.write_text("process p\nstart ->\n")
        code, _, err = run("validate", str(bad))
        assert code == 1
        assert "DslSyntaxError" in err

    def test_missing_file_fails(self, run, tmp_path):
        code, _, err = run("validate", str(tmp_path / "nope.bp"))
        assert code == 1
        assert "FileNotFoundError" in err


def _guard_process(tmp_path, guard):
    """A one-gateway process routing on ``guard``; returns the path and the
    1-based column where the guard starts on its line (line 4)."""
    prefix = "gateway g { when "
    path = tmp_path / "deep.bp"
    path.write_text(
        "process deep\nattr a: numeric in [0, 10]\nstart -> g\n"
        f"{prefix}{guard} -> x otherwise -> y }}\n"
        "end x label POSITIVE\nend y label NEGATIVE\n"
    )
    return str(path), len(prefix) + 1


DEEP_GUARDS = {
    # A comparison chain: the && tree goes past 100 levels at its 100th &&.
    "chain": (" && ".join(["a < 5"] * 1500), len(" && ".join(["a < 5"] * 100)) + 1, "&&"),
    # One comparison in nested parentheses: the 101st ( goes past 100.
    "parentheses": ("(" * 1200 + "a < 5" + ")" * 1200, 100, "("),
}


class TestDeepGuards:
    @pytest.mark.parametrize("shape", sorted(DEEP_GUARDS))
    @pytest.mark.parametrize(
        "argv", [["validate"], ["causal-graph"], ["simulate", "--n", "5", "--out", "x.jsonl"]]
    )
    def test_too_deep_is_a_syntax_error(self, run, tmp_path, shape, argv):
        guard, offset, token = DEEP_GUARDS[shape]
        path, col = _guard_process(tmp_path, guard)
        argv = [str(tmp_path / a) if a.endswith(".jsonl") else a for a in argv]
        code, out, err = run(argv[0], path, *argv[1:])
        assert (code, out) == (1, "")
        assert err == (
            f"DslSyntaxError: line 4, col {col + offset}: expected a guard at most "
            f"100 levels deep, found '{token}'\n"
        )

    @pytest.mark.parametrize(
        "guard", [" && ".join(["a < 5"] * 100), "(" * 100 + "a < 5" + ")" * 100]
    )
    def test_at_the_limit_runs(self, run, tmp_path, guard):
        path, _ = _guard_process(tmp_path, guard)
        assert run("validate", path)[0] == 0
        code, out, _ = run("simulate", path, "--n", "20", "--out", str(tmp_path / "x.jsonl"))
        assert code == 0
        assert sum(json.loads(out)["label_counts"].values()) == 20


class TestCausalGraph:
    def test_loan_edges(self, run):
        code, out, _ = run("causal-graph", LOAN)
        assert code == 0
        payload = json.loads(out)
        assert payload["process"] == "loan_approval"
        assert payload["edges"] == [
            ["credit_score", "skilled_agent_review"],
            ["credit_score", "standard_review"],
            ["loan_amount", "skilled_agent_review"],
            ["loan_amount", "standard_review"],
        ]

    def test_diamonds_in_series_enumerate_no_paths(self, run, tmp_path):
        # 40 xor diamonds in series: 2**40 routes, and one edge per branch.
        lines = ["process diamonds", *(f"attr a{i}: numeric in [0, 1]" for i in range(40))]
        lines.append("start -> g0")
        for i in range(40):
            after = f"g{i + 1}" if i < 39 else "fin"
            lines += [
                f"gateway g{i} {{ when a{i} < 0.5 -> l{i} otherwise -> r{i} }}",
                f"activity l{i} -> {after}",
                f"activity r{i} -> {after}",
            ]
        lines.append("end fin label POSITIVE")
        process = tmp_path / "diamonds.bp"
        process.write_text("\n".join(lines) + "\n")
        started = time.perf_counter()
        code, out, _ = run("causal-graph", str(process))
        elapsed = time.perf_counter() - started
        assert code == 0
        edges = json.loads(out)["edges"]
        assert len(edges) == 80
        assert ["a7", "l7"] in edges and ["a7", "r7"] in edges
        assert elapsed < 0.5


class TestSimulate:
    def test_writes_log_and_echoes_counts(self, run, tmp_path):
        out_path = tmp_path / "log.jsonl"
        code, out, err = run(
            "simulate", LOAN, "--n", "50", "--seed", "3", "--out", str(out_path)
        )
        assert code == 0
        assert "wrote 50 traces" in err
        assert len(out_path.read_text().splitlines()) == 50
        payload = json.loads(out)
        assert payload["config"]["seed"] == 3
        assert sum(payload["label_counts"].values()) == 50

    def test_repeat_runs_are_byte_identical(self, run, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        code_a, out_a, _ = run("simulate", LOAN, "--n", "40", "--out", str(a))
        code_b, out_b, _ = run("simulate", LOAN, "--n", "40", "--out", str(b))
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()
        assert out_a.replace(str(a), "X") == out_b.replace(str(b), "X")

    def test_negative_count_is_a_usage_error(self, run, tmp_path):
        code, _, err = run(
            "simulate", LOAN, "--n", "-5", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 2
        assert "usage" in err

    def test_missing_out_is_a_usage_error(self, run):
        code, _, _ = run("simulate", LOAN, "--n", "5")
        assert code == 2


class TestImport:
    def test_round_trip(self, run, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text(CSV_TEXT)
        out_path = tmp_path / "log.jsonl"
        code, out, _ = run(
            "import",
            "--csv", str(csv_path),
            "--attrs", "credit_score,loan_amount",
            "--label", "label",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_cases"] == 2
        assert payload["label_counts"] == {"NEGATIVE": 1, "POSITIVE": 1}
        lines = out_path.read_text().splitlines()
        assert json.loads(lines[0])["case_id"] == "c1"

    def test_missing_column_fails(self, run, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("case_id,activity\nc1,submit_application\n")
        code, _, err = run(
            "import",
            "--csv", str(csv_path),
            "--attrs", "credit_score",
            "--label", "label",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 1
        assert "MissingColumnError" in err


    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_fails(self, run, tmp_path, cell):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text(CSV_TEXT.replace("c2,700,", f"c2,{cell},"))
        out_path = tmp_path / "log.jsonl"
        code, out, err = run(
            "import",
            "--csv", str(csv_path),
            "--attrs", "credit_score,loan_amount",
            "--label", "label",
            "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"UnparsableNumberError: row 4, column 'credit_score': "
            f"cannot parse '{cell}' as a finite number\n"
        )
        assert not out_path.exists()


class TestTrain:
    def test_model_file_and_metrics(self, workspace):
        data = json.loads(workspace["model"].read_text())
        assert set(data) >= {"schema", "scaler", "weights", "bias", "hyperparams"}
        assert len(data["weights"]) == 5

    def test_echo_includes_held_out_metrics(self, run, workspace, tmp_path):
        model = tmp_path / "model.json"
        code, out, _ = run(
            "train", LOAN, "--log", str(workspace["log"]), "--out", str(model)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["split"] == 0.2
        assert 0.0 <= payload["metrics"]["test"]["accuracy"] <= 1.0
        assert payload["train_meta"]["n_cases"] == 240

    def test_split_zero_trains_on_everything(self, run, workspace, tmp_path):
        model = tmp_path / "model.json"
        code, out, _ = run(
            "train", LOAN,
            "--log", str(workspace["log"]),
            "--out", str(model),
            "--split", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["train_meta"]["n_cases"] == 300
        assert "test" not in payload["metrics"]

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.1"])
    def test_bad_split_is_a_config_error(self, run, tmp_path, value):
        # Checked before the log is read, so a missing log does not matter.
        model = tmp_path / "m.json"
        code, out, err = run(
            "train", LOAN, "--log", str(tmp_path / "nope.jsonl"), "--out", str(model),
            f"--split={value}",
        )
        assert (code, out) == (1, "")
        assert err == f"ConfigError: split must be 0 or lie in (0, 1), got {value}\n"
        assert not model.exists()

    def test_missing_log_fails(self, run, tmp_path):
        code, _, err = run(
            "train", LOAN,
            "--log", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert "FileNotFoundError" in err

    def test_record_without_label_fails(self, run, workspace, tmp_path):
        lines = workspace["log"].read_text().splitlines()
        record = json.loads(lines[1])
        del record["label"]
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
        code, out, err = run(
            "train", LOAN, "--log", str(log), "--out", str(tmp_path / "m.json")
        )
        assert code == 1
        assert out == ""
        assert err == "MalformedLogError: line 2: missing field(s) 'label'\n"


    def test_unconverged_training_notes_on_stderr(self, run, workspace, tmp_path):
        argv = ["train", LOAN, "--log", str(workspace["log"]), "--epochs", "1"]
        code, out, err = run(*argv, "--out", str(tmp_path / "a.json"))
        assert code == 0
        assert json.loads(out)["train_meta"]["converged"] is False
        assert "unconverged after epochs_run=1" in err
        assert "--tol 1e-06" in err
        quiet = run("-q", *argv, "--out", str(tmp_path / "b.json"))
        assert quiet[0] == 0 and quiet[2] == ""
        assert quiet[1].replace("b.json", "a.json") == out
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_default_training_converges_without_a_note(self, run, workspace, tmp_path):
        code, out, err = run(
            "train", LOAN, "--log", str(workspace["log"]), "--out", str(tmp_path / "m.json")
        )
        assert code == 0
        meta = json.loads(out)["train_meta"]
        assert meta["converged"] is True and meta["epochs_run"] <= 10
        assert "note:" not in err

    def test_zero_penalty_trains(self, run, workspace, tmp_path):
        # The loan log's Hessian is exactly singular without a penalty.
        model = tmp_path / "m.json"
        code, out, _ = run(
            "train", LOAN, "--log", str(workspace["log"]), "--out", str(model), "--l2", "0"
        )
        assert code == 0
        assert json.loads(out)["train_meta"]["converged"] is True
        data = json.loads(model.read_text())
        assert all(math.isfinite(w) for w in [*data["weights"], data["bias"]])

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--l2", "-1", "l2 must be a finite non-negative number, got -1.0"),
            ("--l2", "nan", "l2 must be a finite non-negative number, got nan"),
            ("--tol", "-1e-6", "tol must be a finite non-negative number, got -1e-06"),
            ("--tol", "nan", "tol must be a finite non-negative number, got nan"),
        ],
    )
    def test_bad_numbers_are_config_errors(self, run, workspace, tmp_path, flag, value, message):
        model = tmp_path / "m.json"
        code, out, err = run(
            "train", LOAN, "--log", str(workspace["log"]), "--out", str(model),
            f"{flag}={value}",
        )
        assert (code, out, err) == (1, "", f"ConfigError: {message}\n")
        assert not model.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_attribute_in_log_fails(self, run, workspace, tmp_path, value):
        lines = workspace["log"].read_text().splitlines()
        lines[2] = lines[2].replace('"credit_score": ', f'"credit_score": {value}, "x": ', 1)
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            "train", LOAN, "--log", str(log), "--out", str(tmp_path / "m.json")
        )
        shown = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[value]
        assert (code, out) == (1, "")
        assert err == (
            f"MalformedLogError: line 3: attribute 'credit_score' is {shown}, "
            "not a finite number\n"
        )

    def test_converged_training_has_no_note(self, run, workspace, tmp_path):
        code, out, err = run(
            "train", LOAN, "--log", str(workspace["log"]),
            "--out", str(tmp_path / "m.json"), "--tol", "1",
        )
        assert code == 0
        assert json.loads(out)["train_meta"]["converged"] is True
        assert "unconverged" not in err


class TestExplain:
    def test_case_from_log(self, run, workspace):
        case_id = json.loads(workspace["log"].read_text().splitlines()[0])["case_id"]
        code, out, _ = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--log", str(workspace["log"]),
            "--case-id", case_id,
            "--mode", "vanilla",
            "--samples", "300",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "vanilla"
        assert payload["instance_id"] == case_id
        assert len(payload["attributions"]) == 5

    def test_case_id_without_log(self, run, workspace):
        code, _, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--case-id", "c000001",
            "--mode", "vanilla",
        )
        assert code == 2
        assert "requires --log" in err

    def test_unknown_case_id(self, run, workspace):
        code, _, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--log", str(workspace["log"]),
            "--case-id", "c999999",
            "--mode", "vanilla",
            "--samples", "100",
        )
        assert code == 1
        assert "NoMatchingInstancesError" in err

    def case_argv(self, workspace, log):
        """explain argv for the log's second case, read from ``log``."""
        lines = workspace["log"].read_text().splitlines()
        return (
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--log", str(log),
            "--case-id", json.loads(lines[1])["case_id"],
            "--mode", "vanilla",
            "--samples", "300",
        )

    def test_lines_after_the_case_are_not_read(self, run, workspace, tmp_path):
        lines = workspace["log"].read_text().splitlines()
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join([*lines[:2], "{not json", *lines[2:]]) + "\n")
        expected = run(*self.case_argv(workspace, workspace["log"]))
        assert expected[0] == 0
        assert run(*self.case_argv(workspace, log)) == expected

    def test_malformed_line_before_the_case_fails(self, run, workspace, tmp_path):
        lines = workspace["log"].read_text().splitlines()
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join([lines[0], '{"case_id": "x"}', *lines[1:]]) + "\n")
        code, out, err = run(*self.case_argv(workspace, log))
        assert (code, out) == (1, "")
        assert err == (
            "MalformedLogError: line 2: missing field(s) 'attrs', 'activities', 'label'\n"
        )

    def test_hypothetical_case(self, run, workspace):
        code, out, _ = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=580,loan_amount=300000",
            "--mode", "process-aware",
            "--samples", "300",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["instance_id"] == "adhoc"
        top2 = {a["feature"] for a in payload["attributions"][:2]}
        assert top2 == {"skilled_agent_review", "standard_review"}

    def test_missing_attribute_value(self, run, workspace):
        code, _, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=580",
            "--mode", "vanilla",
        )
        assert code == 1
        assert "MissingAttributeError" in err

    def test_undeclared_attribute(self, run, workspace):
        code, _, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=580,loan_amount=1,income=9",
            "--mode", "vanilla",
        )
        assert code == 1
        assert "UnknownAttributeError" in err

    def test_malformed_attrs_usage_error(self, run, workspace):
        code, _, _ = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=high",
            "--mode", "vanilla",
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_attrs_usage_error(self, run, workspace, value):
        code, out, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", f"credit_score={value},loan_amount=300000",
            "--mode", "process-aware",
            "--strategy", "reject",
        )
        assert code == 2
        assert out == ""
        assert "not a finite number" in err

    def test_out_of_bounds_attribute_warns(self, run, workspace):
        argv = [
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=-5000,loan_amount=300000",
            "--mode", "process-aware",
            "--samples", "300",
        ]
        code, out, err = run(*argv)
        assert code == 0
        assert "credit_score=-5000.0" in err
        assert "[300.0, 850.0]" in err
        assert "loan_amount" not in err
        quiet = run("-q", *argv)
        assert quiet == (0, out, "")

    def test_in_bounds_attributes_do_not_warn(self, run, workspace):
        code, _, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=300,loan_amount=500000",
            "--mode", "vanilla",
            "--samples", "200",
        )
        assert code == 0
        assert "warning" not in err

    def test_process_without_attributes(self, run, tmp_path):
        process = tmp_path / "p.bp"
        process.write_text(NO_ATTRIBUTES_SOURCE)
        log, model = tmp_path / "log.jsonl", tmp_path / "model.json"
        assert run("simulate", str(process), "--n", "200", "--seed", "2", "--out", str(log))[0] == 0
        assert run("train", str(process), "--log", str(log), "--out", str(model))[0] == 0
        for strategy in ("propagate", "reject"):
            code, out, err = run(
                "explain", str(process),
                "--model", str(model),
                "--log", str(log),
                "--case-id", "c000001",
                "--mode", "process-aware",
                "--strategy", strategy,
                "--samples", "300",
            )
            assert code == 0, err
            assert {a["feature"] for a in json.loads(out)["attributions"]} == {"a", "x", "y"}

    def test_top_truncates_both_lists(self, run, workspace):
        code, out, _ = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=700,loan_amount=50000",
            "--mode", "vanilla",
            "--samples", "200",
            "--top", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["attributions"]) == 2
        assert len(payload["attributions_raw"]) == 2

    def test_collapse_with_vanilla_is_rejected(self, run, workspace):
        code, _, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=700,loan_amount=50000",
            "--mode", "vanilla",
            "--collapse-derived",
        )
        assert code == 1
        assert "ConfigError" in err

    def test_out_file_matches_stdout(self, run, workspace, tmp_path):
        out_path = tmp_path / "expl.json"
        code, out, _ = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=580,loan_amount=300000",
            "--mode", "vanilla",
            "--samples", "200",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)


    @pytest.mark.parametrize(
        "flag,value", [("--ridge", "nan"), ("--spread", "nan"), ("--ridge", "inf")]
    )
    def test_non_finite_numbers_are_config_errors(self, run, workspace, flag, value):
        code, out, err = run(
            "explain", LOAN,
            "--model", str(workspace["model"]),
            "--attrs", "credit_score=700,loan_amount=50000",
            "--mode", "process-aware",
            flag, value,
        )
        name = flag.lstrip("-")
        assert (code, out) == (1, "")
        assert err == (
            f"ConfigError: {name} must be a finite non-negative number, "
            f"got {float(value)}\n"
        )


class TestEvaluate:
    def test_end_to_end(self, run, workspace, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(
            "evaluate", LOAN,
            "--model", str(workspace["model"]),
            "--log", str(workspace["log"]),
            "--instances", "2",
            "--seeds", "0,1",
            "--samples", "150",
            "--out", str(report),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregates"]["n_runs"] == 4
        assert payload["aggregates"]["mean_conformance"]["process_aware"] == 1.0
        assert report.exists()
        # Default bar-data path swaps .json for .figdata.csv.
        figdata = tmp_path / "report.figdata.csv"
        assert figdata.exists()
        assert payload["figdata"] == str(figdata)

    def test_custom_figdata_path(self, run, workspace, tmp_path):
        report = tmp_path / "r.json"
        figdata = tmp_path / "bars.csv"
        code, _, _ = run(
            "evaluate", LOAN,
            "--model", str(workspace["model"]),
            "--log", str(workspace["log"]),
            "--instances", "1",
            "--seeds", "0",
            "--samples", "100",
            "--out", str(report),
            "--figdata", str(figdata),
        )
        assert code == 0
        assert figdata.read_text().startswith("feature,mode,mean_abs_weight,rank")

    def test_bad_seed_list_is_a_usage_error(self, run, workspace, tmp_path):
        code, _, _ = run(
            "evaluate", LOAN,
            "--model", str(workspace["model"]),
            "--log", str(workspace["log"]),
            "--instances", "1",
            "--seeds", "0,x",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2


def test_chain_past_the_recursion_limit_runs_reject(run, tmp_path):
    """Reject sampling and evaluate on 1501 activities, nearly all in one
    sequence: deeper than Python's recursion limit."""
    process = tmp_path / "deep.bp"
    process.write_text(serialize_process(long_chain(arm=5, tail=1490)))
    log, model = str(tmp_path / "log.jsonl"), str(tmp_path / "model.json")
    assert run("simulate", str(process), "--n", "200", "--noise", "0.2", "--out", log)[0] == 0
    # One Newton step: the model's fit does not matter here, only the oracle.
    assert run("train", str(process), "--log", log, "--out", model, "--epochs", "1")[0] == 0
    common = ("--strategy", "reject", "--samples", "2000", "--flip-p", "0.0001")
    code, _, err = run(
        "explain", str(process), "--model", model, "--attrs", "x=0.2",
        "--mode", "process-aware", *common,
    )
    assert code == 0, err
    code, out, err = run(
        "evaluate", str(process), "--model", model, "--log", log,
        "--instances", "1", "--seeds", "0", "--label", "POSITIVE",
        "--out", str(tmp_path / "report.json"), *common,
    )
    assert code == 0, err
    assert json.loads(out)["aggregates"]["mean_conformance"]["process_aware"] == 1.0


def test_process_without_features_fails_before_sampling(run, tmp_path):
    """Nothing to attribute: `explain` and `evaluate` name that cause in one
    line on stderr, exit 1, and print no numpy warning."""
    process = tmp_path / "bare.bp"
    process.write_text(NO_FEATURES_SOURCE)
    log, model = tmp_path / "log.jsonl", tmp_path / "model.json"
    assert run("simulate", str(process), "--n", "50", "--seed", "1", "--out", str(log))[0] == 0
    assert run("train", str(process), "--log", str(log), "--out", str(model))[0] == 0
    src = str(Path(procex.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    inputs = [str(process), "--model", str(model), "--log", str(log)]
    for argv in (
        ["explain", *inputs, "--case-id", "c000001", "--mode", "vanilla"],
        ["explain", *inputs, "--case-id", "c000001", "--mode", "process-aware"],
        ["evaluate", *inputs, "--instances", "5", "--seeds", "0",
         "--out", str(tmp_path / "report.json")],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "procex.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == NO_FEATURES_ERROR + "\n"


class TestParsing:
    def test_no_arguments(self, run):
        assert run()[0] == 2

    def test_unknown_command(self, run):
        assert run("frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("root", ["--help"]),
            ("validate", ["validate", "--help"]),
            ("causal-graph", ["causal-graph", "--help"]),
            ("simulate", ["simulate", "--help"]),
            ("import", ["import", "--help"]),
            ("train", ["train", "--help"]),
            ("explain", ["explain", "--help"]),
            ("evaluate", ["evaluate", "--help"]),
        ],
    )
    def test_help_matches_golden(self, run, monkeypatch, name, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run(*argv)
        assert code == 0
        assert out == (GOLDEN_DIR / f"help_{name}.txt").read_text()


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "procex.cli", "validate", LOAN],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["findings"] == []


def test_start_up_path_loads_no_scipy(fresh_python, tmp_path):
    """validate, causal-graph, simulate, train and process-aware explain
    (propagate and reject) all run without loading any scipy module."""
    source = f"""
import json, sys
import procex, procex.cli

def run(*argv):
    sys.argv = ["procex", "-q", *argv]
    try:
        procex.cli.main()
    except SystemExit as exc:
        return exc.code

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loan, log = {LOAN!r}, {str(tmp_path / "log.jsonl")!r}
model = {str(tmp_path / "model.json")!r}
codes = [
    run("validate", loan),
    run("causal-graph", loan),
    run("simulate", loan, "--n", "200", "--out", log),
]
before = scipy_modules()
codes.append(run("train", loan, "--log", log, "--out", model))
after_train = scipy_modules()
for strategy in ("propagate", "reject"):
    codes.append(run(
        "explain", loan, "--model", model, "--attrs", "credit_score=580,loan_amount=300000",
        "--mode", "process-aware", "--strategy", strategy, "--samples", "300",
    ))
print(json.dumps({{
    "codes": codes, "before": before, "after_train": after_train,
    "after_explain": scipy_modules(),
}}))
"""
    result = json.loads(fresh_python(source).splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["before"] == []
    assert result["after_train"] == []
    assert result["after_explain"] == []


def test_definition_commands_load_no_numpy(fresh_python, run):
    """validate and causal-graph load neither numpy nor any pipeline module,
    and print the same payloads as in this process, which has them all."""
    source = f"""
import io, json, sys
from contextlib import redirect_stdout
import procex, procex.cli

def run(*argv):
    sys.argv = ["procex", "-q", *argv]
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            procex.cli.main()
        except SystemExit as exc:
            return exc.code, out.getvalue()

results = [run("validate", {LOAN!r}), run("causal-graph", {LOAN!r})]
loaded = sorted(
    m for m in sys.modules
    if m == "numpy" or m.startswith("numpy.") or m.startswith("procex.")
)
print(json.dumps({{"results": results, "loaded": loaded}}))
"""
    result = json.loads(fresh_python(source).splitlines()[-1])
    assert result["loaded"] == ["procex.cli", "procex.errors", "procex.process_model"]
    expected = [run("-q", "validate", LOAN), run("-q", "causal-graph", LOAN)]
    assert result["results"] == [[code, out] for code, out, _ in expected]
    assert all(code == 0 for code, _ in result["results"])
