"""Command-line interface: exit codes, JSON payloads, help texts."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import procex
from procex.cli import dispatch
from procex.evaluation import ComparisonConfig
from procex.explainer import PROCESS_AWARE, ExplainConfig
from procex.predictor import TrainConfig
from procex.process_model import fixture_path, serialize_process
from procex.simulation import SimulationConfig

from procgen import CHAIN, NO_ATTRIBUTES_SOURCE, NO_FEATURES_ERROR, NO_FEATURES_SOURCE, long_chain

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

    def test_non_integer_count_is_a_usage_error(self, run, tmp_path):
        code, out, err = run(
            "simulate", LOAN, "--n", "x", "--out", str(tmp_path / "x.jsonl")
        )
        assert (code, out) == (2, "")
        assert err.endswith("procex simulate: error: argument --n: 'x' is not an integer\n")
        assert not (tmp_path / "x.jsonl").exists()

    def test_missing_out_is_a_usage_error(self, run):
        code, _, _ = run("simulate", LOAN, "--n", "5")
        assert code == 2

    @pytest.mark.parametrize("bounds,message", [
        ("[0, 1e400]", "DslSyntaxError: line 2, col 24: expected a finite number, found '1e400'"),
        ("[-1e308, 1e308]",
         "InvalidDefinitionError: x: bounds [-1e+308, 1e+308] have no finite width"),
    ], ids=["infinite-bound", "infinite-width"])
    def test_non_finite_bounds_are_refused(self, run, tmp_path, bounds, message):
        process, out_path = tmp_path / "p.bp", tmp_path / "log.jsonl"
        process.write_text(
            f"process p\nattr x: numeric in {bounds}\nstart -> done\nend done label POSITIVE\n"
        )
        code, out, err = run("simulate", str(process), "--n", "5", "--out", str(out_path))
        assert (code, out, err) == (1, "", message + "\n")
        assert not out_path.exists()


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

    def test_empty_attrs_list_is_a_usage_error(self, run, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text(CSV_TEXT)
        out_path = tmp_path / "log.jsonl"
        code, out, err = run("import", "--csv", str(csv_path), "--attrs", ",",
                             "--label", "label", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.endswith("procex import: error: argument --attrs: "
                            "at least one name is required\n")
        assert not out_path.exists()

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

    def test_row_without_activity_cell_fails(self, run, tmp_path):
        """A row that ends before its activity cell would be written as a
        null activity that ``train`` refuses; import refuses it instead."""
        csv_path = tmp_path / "events.csv"
        csv_path.write_text(
            "case_id,credit_score,loan_amount,label,activity\n"
            "c1,600,1000,POSITIVE,submit_application\n"
            "c1,600,1000,POSITIVE\n"
        )
        out_path = tmp_path / "log.jsonl"
        code, out, err = run(
            "import",
            "--csv", str(csv_path),
            "--attrs", "credit_score,loan_amount",
            "--label", "label",
            "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == "MissingColumnError: row 3 has no 'activity' cell\n"
        assert not out_path.exists()

    def test_row_without_case_cell_fails(self, run, tmp_path):
        """A row that ends before its case cell is named by its row, not
        passed on as a case without an id."""
        csv_path = tmp_path / "events.csv"
        csv_path.write_text(
            "credit_score,activity,label,case_id\n"
            "600,submit_application,POSITIVE\n"
        )
        out_path = tmp_path / "log.jsonl"
        code, out, err = run(
            "import",
            "--csv", str(csv_path),
            "--attrs", "credit_score",
            "--label", "label",
            "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == "MissingColumnError: row 2 has no 'case_id' cell\n"
        assert not out_path.exists()


class TestUndecodableInput:
    """A file with a byte that is not UTF-8 is refused by its reader's typed
    error, naming the byte's line, column and offset: exit 1, one line."""

    def refused(self, run, argv, out_path=None):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert out_path is None or not out_path.exists()
        return err

    @staticmethod
    def spoil(path, tail=b"\xff\n"):
        """Append ``tail`` to the file; returns the offset of its first byte."""
        data = path.read_bytes()
        path.write_bytes(data + tail)
        return len(data)

    @pytest.fixture()
    def log(self, run, tmp_path):
        """A 300-case loan log, longer than one chunk of a text read, and a
        last line that is one 0xff byte; and the message that names it."""
        path = tmp_path / "log.jsonl"
        assert run("-q", "simulate", LOAN, "--n", "300", "--out", str(path))[0] == 0
        offset = self.spoil(path)
        assert offset > 8192
        return path, f"MalformedLogError: line 301, col 1: byte 0xff at offset {offset} " \
                     "is not UTF-8\n"

    def test_log_read_by_train(self, run, log, tmp_path):
        path, message = log
        out = tmp_path / "model.json"
        assert self.refused(run, ["train", LOAN, "--log", str(path), "--out", str(out)],
                            out) == message

    def test_log_scanned_for_a_case(self, run, log, workspace):
        path, message = log
        assert self.refused(run, ["explain", LOAN, "--model", str(workspace["model"]),
                                  "--log", str(path), "--case-id", "c999999",
                                  "--mode", "vanilla"]) == message

    def test_model_file(self, run, workspace, tmp_path):
        model = tmp_path / "model.json"
        model.write_bytes(workspace["model"].read_bytes())
        offset = self.spoil(model, b" \xe9")
        lines = model.read_bytes().count(b"\n")
        err = self.refused(run, ["explain", LOAN, "--model", str(model), "--mode", "vanilla",
                                 "--attrs", "credit_score=600,loan_amount=1000"])
        assert err == (f"MalformedModelError: line {lines + 1}, col 2: "
                       f"byte 0xe9 at offset {offset + 1} is not UTF-8\n")

    def test_csv_file(self, run, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_bytes(CSV_TEXT.replace("c2,700,", "c2,7\xff0,").encode("latin-1"))
        out_path = tmp_path / "log.jsonl"
        err = self.refused(run, ["import", "--csv", str(csv_path), "--attrs",
                                 "credit_score,loan_amount", "--label", "label",
                                 "--out", str(out_path)], out_path)
        offset = CSV_TEXT.index("c2,700,") + 4
        assert err == f"MalformedLogError: line 4, col 5: byte 0xff at offset {offset} " \
                      "is not UTF-8\n"

    @pytest.mark.parametrize("command", ["validate", "causal-graph", "simulate"])
    def test_process_file(self, run, tmp_path, command):
        process = tmp_path / "loan.bp"
        process.write_bytes(fixture_path().read_bytes())
        offset = self.spoil(process, b"# \xe9t\xe9\n")
        line = process.read_bytes().count(b"\n")
        argv = [command, str(process)]
        if command == "simulate":
            argv += ["--n", "5", "--out", str(tmp_path / "log.jsonl")]
        err = self.refused(run, argv, tmp_path / "log.jsonl")
        assert err == (f"DslSyntaxError: line {line}, col 3: expected UTF-8 text, "
                       f"found byte 0xe9 at offset {offset + 2}\n")


class TestUndecodableJson:
    """A log line or model file that json cannot decode, truncated or nested
    past the recursion limit, is refused by its reader's typed error: exit
    1, empty stdout, one stderr line."""

    NESTED = "maximum recursion depth exceeded while decoding a JSON array"

    def refused(self, run, argv):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        return err

    @pytest.fixture()
    def nested(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "\n")
        return path

    def test_log_read_by_train(self, run, nested, tmp_path):
        err = self.refused(run, ["train", LOAN, "--log", str(nested),
                                 "--out", str(tmp_path / "model.json")])
        assert err.startswith(f"MalformedLogError: line 1: not JSON ({self.NESTED}")
        assert not (tmp_path / "model.json").exists()

    def test_log_scanned_for_a_case(self, run, nested, workspace):
        err = self.refused(run, ["explain", LOAN, "--model", str(workspace["model"]),
                                 "--log", str(nested), "--case-id", "c1", "--mode", "vanilla"])
        assert err.startswith(f"MalformedLogError: line 1: not JSON ({self.NESTED}")

    def test_nested_model_file(self, run, nested):
        err = self.refused(run, ["explain", LOAN, "--model", str(nested), "--mode", "vanilla",
                                 "--attrs", "credit_score=600,loan_amount=1000"])
        assert err.startswith(f"MalformedModelError: model file is not JSON ({self.NESTED}")

    def test_truncated_model_file(self, run, workspace, tmp_path):
        model = tmp_path / "model.json"
        text = workspace["model"].read_text()[:12]
        model.write_text(text)
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        err = self.refused(run, ["explain", LOAN, "--model", str(model), "--mode", "vanilla",
                                 "--attrs", "credit_score=600,loan_amount=1000"])
        assert err == f"MalformedModelError: model file is not JSON ({exc.value})\n"

    def test_integer_past_the_digit_limit_in_model_file(self, run, workspace, tmp_path):
        model = tmp_path / "model.json"
        data = json.loads(workspace["model"].read_text())
        data["bias"] = 0
        text = json.dumps(data).replace('"bias": 0', '"bias": ' + "9" * 5000)
        model.write_text(text)
        with pytest.raises(ValueError) as exc:
            json.loads(text)
        err = self.refused(run, ["explain", LOAN, "--model", str(model), "--mode", "vanilla",
                                 "--attrs", "credit_score=600,loan_amount=1000"])
        assert err == f"MalformedModelError: model file is not JSON ({exc.value})\n"


def test_csv_cell_past_the_field_limit_names_its_row(run, tmp_path):
    """An unclosed quote in row 4 runs on past ``csv``'s field size limit."""
    csv_path = tmp_path / "events.csv"
    csv_path.write_text(CSV_TEXT.replace("c2,700,", 'c2,"700,', 1) + "x" * 140000 + "\n")
    out_path = tmp_path / "log.jsonl"
    code, out, err = run("import", "--csv", str(csv_path), "--attrs", "credit_score,loan_amount",
                         "--label", "label", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == "MalformedLogError: row 4: field larger than field limit (131072)\n"
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

    def test_zero_epochs_keep_the_zero_start(self, run, workspace, tmp_path):
        code, out, err = run(
            "train", LOAN, "--log", str(workspace["log"]), "--out", str(tmp_path / "m.json"),
            "--epochs", "0",
        )
        assert code == 0
        meta = json.loads(out)["train_meta"]
        assert (meta["epochs_run"], meta["converged"]) == (0, False)
        assert "note: training unconverged after epochs_run=0" in err

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

    def test_non_finite_weight_is_refused(self, run, workspace, tmp_path):
        data = json.loads(workspace["model"].read_text())
        data["weights"][1] = math.nan
        model, out_path = tmp_path / "model.json", tmp_path / "explanation.json"
        model.write_text(json.dumps(data))
        code, out, err = run(
            "explain", LOAN,
            "--model", str(model),
            "--attrs", "credit_score=580,loan_amount=300000",
            "--mode", "vanilla",
            "--samples", "100",
            "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == (
            "MalformedModelError: model file weights of feature 'loan_amount' is "
            "nan, not a finite number\n"
        )
        assert not out_path.exists()

    def test_mistyped_bias_is_refused(self, run, workspace, tmp_path):
        data = json.loads(workspace["model"].read_text())
        data["bias"] = "abc"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        code, out, err = run(
            "explain", LOAN,
            "--model", str(model),
            "--attrs", "credit_score=580,loan_amount=300000",
            "--mode", "vanilla",
            "--samples", "100",
        )
        assert (code, out) == (1, "")
        assert err == 'MalformedModelError: model file bias is "abc", not a number\n'

    @pytest.mark.parametrize(
        "edit, shown",
        [
            (lambda d: d.update(scaler=[]), "model file scaler is [], not an object"),
            (lambda d: d["hyperparams"].update(l2="abc"),
             "model file hyperparams: l2 must be a number, got 'abc'"),
            (lambda d: d.pop("bias"), "model file has no 'bias'"),
            (lambda d: d["hyperparams"].update(epochs=2.5),
             "model file hyperparams: epochs must be an integer, got 2.5"),
            (lambda d: d["hyperparams"].pop("tol"), "model file hyperparams has no 'tol'"),
            (lambda d: d["hyperparams"].update(epochs=-1),
             "model file hyperparams: epochs must be non-negative, got -1"),
            (lambda d: d["hyperparams"].update(tol=-0.5),
             "model file hyperparams: tol must be a finite non-negative number, got -0.5"),
            (lambda d: d["scaler"].pop("std"), "model file scaler has no 'std'"),
            (lambda d: d.update(schema="loan"), 'model file schema is "loan", not an object'),
            (lambda d: d["schema"].update(features=3),
             "model file schema features is 3, not a list"),
            (lambda d: d["schema"]["features"][2].pop("kind"),
             "model file schema feature 2 has no 'kind'"),
        ],
        ids=["list-scaler", "string-l2", "no-bias", "float-epochs", "no-tol", "negative-epochs",
             "negative-tol", "no-std",
             "string-schema", "number-features", "feature-without-kind"],
    )
    def test_malformed_model_field_is_refused(self, run, workspace, tmp_path, edit, shown):
        data = json.loads(workspace["model"].read_text())
        edit(data)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        code, out, err = run(
            "explain", LOAN,
            "--model", str(model),
            "--attrs", "credit_score=580,loan_amount=300000",
            "--mode", "vanilla",
            "--samples", "100",
        )
        assert (code, out) == (1, "")
        assert err == f"MalformedModelError: {shown}\n"

    def test_model_file_that_is_not_an_object_is_refused(self, run, tmp_path):
        model = tmp_path / "model.json"
        model.write_text("[]")
        code, out, err = run(
            "explain", LOAN,
            "--model", str(model),
            "--attrs", "credit_score=580,loan_amount=300000",
            "--mode", "vanilla",
        )
        assert (code, out) == (1, "")
        assert err == "MalformedModelError: model file is [], not an object\n"

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

    def test_empty_attrs_item_is_skipped(self, run, workspace):
        argv = ["explain", LOAN, "--model", str(workspace["model"]), "--mode", "vanilla",
                "--samples", "50"]
        assert run(*argv, "--attrs", "credit_score=600,,loan_amount=1") == \
            run(*argv, "--attrs", "credit_score=600,loan_amount=1")

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
        code, out, err = run(
            "evaluate", LOAN,
            "--model", str(workspace["model"]),
            "--log", str(workspace["log"]),
            "--instances", "1",
            "--seeds", "0,x",
            "--out", str(tmp_path / "r.json"),
        )
        assert (code, out) == (2, "")
        assert err.endswith("procex evaluate: error: argument --seeds: 'x' is not an integer\n")

    @pytest.mark.parametrize("flags,message", [
        (["--label", "negative"], "select_label 'negative' is neither POSITIVE nor NEGATIVE"),
        (["--require-activity", "skilled_review"],
         "require_activity 'skilled_review' is not an activity of 'loan_approval'"),
    ])
    def test_refused_selection_names_the_setting(self, run, workspace, tmp_path, flags,
                                                 message):
        """Not a ``NoMatchingInstancesError``: no log could match them."""
        report = tmp_path / "r.json"
        code, out, err = run("evaluate", LOAN, "--model", str(workspace["model"]),
                             "--log", str(workspace["log"]), "--instances", "1",
                             "--seeds", "0", "--out", str(report), *flags)
        assert (code, out, err) == (1, "", f"ConfigError: {message}\n")
        assert not report.exists()


@pytest.mark.parametrize("command,flags,message", [
    ("explain", ["--attrs", "credit_score"],
     "argument --attrs: expected name=value, got 'credit_score'"),
    ("explain", ["--attrs", ","], "argument --attrs: at least one name=value pair is required"),
    ("explain", ["--attrs", "credit_score=500,credit_score=600,loan_amount=1000"],
     "argument --attrs: attribute 'credit_score' is given more than once"),
    ("import", ["--attrs", "credit_score,loan_amount,credit_score"],
     "argument --attrs: name 'credit_score' is given more than once"),
])
def test_refused_arguments_usage_error(run, workspace, tmp_path, command, flags, message):
    csv_path, out_path = tmp_path / "events.csv", tmp_path / "log.jsonl"
    csv_path.write_text(CSV_TEXT)
    argv = {
        "explain": ["explain", LOAN, "--model", str(workspace["model"]), "--mode", "vanilla"],
        "import": ["import", "--csv", str(csv_path), "--label", "label", "--out", str(out_path)],
    }[command]
    code, out, err = run(*argv, *flags)
    assert (code, out) == (2, "")
    assert err.endswith(f"procex {command}: error: {message}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command,flags,message", [
    ("simulate", ["--n", "-5"], "n_cases must be non-negative, got -5"),
    ("simulate", ["--n", "5", "--seed", "-1"], "seed must be non-negative, got -1"),
    ("train", ["--seed", "-1"], "seed must be non-negative, got -1"),
    ("train", ["--epochs", "-1"], "epochs must be non-negative, got -1"),
    ("explain", ["--seed", "-1"], "seed must be non-negative, got -1"),
    ("explain", ["--samples", "0"], "n_samples must be at least 1, got 0"),
    ("explain", ["--top", "0"], "top must be positive, got 0"),
    ("evaluate", ["--instances", "0", "--seeds", "0"], "n_instances must be positive, got 0"),
    ("evaluate", ["--instances", "1", "--seeds", "0", "--top-k", "0"],
     "top_k must be positive, got 0"),
    ("evaluate", ["--instances", "1", "--seeds", "0,-1"], "seed must be non-negative, got -1"),
    ("evaluate", ["--instances", "1", "--seeds", ","], "at least one seed is required"),
])
def test_integers_out_of_range_are_config_errors(run, workspace, tmp_path, command, flags,
                                                 message):
    """An integer flag parses to any integer; the config it feeds refuses
    it with its own message, as the library does, and no file is written."""
    model, log = str(workspace["model"]), str(workspace["log"])
    argv = {
        "simulate": ["simulate", LOAN],
        "train": ["train", LOAN, "--log", log],
        "explain": ["explain", LOAN, "--model", model, "--mode", "process-aware",
                    "--attrs", "credit_score=580,loan_amount=300000"],
        "evaluate": ["evaluate", LOAN, "--model", model, "--log", log],
    }[command]
    code, out, err = run(*argv, *flags, "--out", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", f"ConfigError: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["simulate", "missing.bp", "--n", "-5"], "n_cases must be non-negative, got -5"),
    (["evaluate", "missing.bp", "--model", "missing.json", "--log", "missing.jsonl",
      "--instances", "1", "--seeds", "0,-1"], "seed must be non-negative, got -1"),
])
def test_a_refused_setting_reads_no_file(run, tmp_path, monkeypatch, argv, message):
    """The config is built before any file is opened, so a refused setting
    is reported even when every input is missing."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(*argv, "--out", "out")
    assert (code, out, err) == (1, "", f"ConfigError: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "train", "explain", "evaluate"])
def test_flags_default_to_the_library_configs(run, workspace, tmp_path, command):
    """With only the required flags, each echoed config is the library's
    default one."""
    model, log, out = str(workspace["model"]), str(workspace["log"]), str(tmp_path / "o")
    argv, expected = {
        "simulate": (
            ["--n", "40", "--out", out],
            SimulationConfig(n_cases=40).to_json_dict(),
        ),
        "train": (["--log", log, "--out", out], TrainConfig().to_json_dict()),
        "explain": (
            ["--model", model, "--attrs", "credit_score=580,loan_amount=300000",
             "--mode", "process-aware"],
            ExplainConfig(mode=PROCESS_AWARE).to_json_dict(arity=5),
        ),
        "evaluate": (
            ["--model", model, "--log", log, "--instances", "2", "--seeds", "3",
             "--out", out],
            ComparisonConfig(n_instances=2, seeds=(3,)).to_json_dict(),
        ),
    }[command]
    code, stdout, _ = run(command, LOAN, *argv)
    assert code == 0
    config = json.loads(stdout)["config"]
    if command == "evaluate":
        expected["selected_cases"] = config["selected_cases"]
    assert config == expected


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


def run_in_subprocess(*argv, flags=()):
    """Run the CLI in a new interpreter, with these interpreter ``flags``,
    where numpy warnings reach stderr."""
    src = str(Path(procex.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, *flags, "-m", "procex.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_process_without_features_fails_before_sampling(run, tmp_path):
    """Nothing to attribute: `explain` and `evaluate` name that cause in one
    line on stderr, exit 1, and print no numpy warning."""
    process = tmp_path / "bare.bp"
    process.write_text(NO_FEATURES_SOURCE)
    log, model = tmp_path / "log.jsonl", tmp_path / "model.json"
    assert run("simulate", str(process), "--n", "50", "--seed", "1", "--out", str(log))[0] == 0
    assert run("train", str(process), "--log", str(log), "--out", str(model))[0] == 0
    inputs = [str(process), "--model", str(model), "--log", str(log)]
    for argv in (
        ["explain", *inputs, "--case-id", "c000001", "--mode", "vanilla"],
        ["explain", *inputs, "--case-id", "c000001", "--mode", "process-aware"],
        ["evaluate", *inputs, "--instances", "5", "--seeds", "0",
         "--out", str(tmp_path / "report.json")],
    ):
        result = run_in_subprocess(*argv)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == NO_FEATURES_ERROR + "\n"


@pytest.mark.parametrize("setting", [
    ("--width", "1e-200"), ("--width", "1e-160"), ("--width", "1e300"),
    ("--spread", "1e308"), ("--spread", "1e306"), ("--spread", "1e-300"), ("--ridge", "1e308"),
    ("--flip-p", "0"), ("--flip-p", "1"), ("--samples", "1"),
], ids=" ".join)
def test_extreme_explain_settings_leak_no_warning(workspace, setting):
    """With RuntimeWarnings as errors, as the tests run in-process, an
    extreme finite setting explains or fails in one `Name: message` line."""
    result = run_in_subprocess(
        "-q", "explain", LOAN, "--model", str(workspace["model"]),
        "--attrs", "credit_score=580,loan_amount=300000", "--mode", "process-aware",
        *setting, flags=("-W", "error::RuntimeWarning"),
    )
    if result.returncode == 0:
        assert result.stderr == ""
        assert json.loads(result.stdout)["mode"] == PROCESS_AWARE
    else:
        assert result.returncode == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert re.fullmatch(r"[A-Z]\w*Error: \S.*", line), result.stderr


def test_log_value_whose_square_overflows_is_refused(run, tmp_path):
    """A finite log value whose square overflows would leave an infinite
    scaler std: `train` names the feature in one line, warns nothing and
    writes no model."""
    log, model = tmp_path / "log.jsonl", tmp_path / "model.json"
    assert run("simulate", LOAN, "--n", "300", "--seed", "1", "--out", str(log))[0] == 0
    lines = log.read_text().splitlines()
    record = json.loads(lines[5])
    record["attrs"]["credit_score"] = 1e308
    lines[5] = json.dumps(record)
    log.write_text("\n".join(lines) + "\n")
    result = run_in_subprocess(
        "train", LOAN, "--log", str(log), "--split", "0", "--out", str(model)
    )
    assert result.returncode == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("DivergedError: feature 'credit_score' ")
    assert not model.exists()


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
    """All seven commands, process-aware explain with both strategies, run
    without loading any scipy module."""
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
csv, report = {str(tmp_path / "events.csv")!r}, {str(tmp_path / "report.json")!r}
with open(csv, "w") as fh:
    fh.write({CSV_TEXT!r})
codes = [
    run("validate", loan),
    run("causal-graph", loan),
    run("simulate", loan, "--n", "200", "--out", log),
    run("import", "--csv", csv, "--attrs", "credit_score,loan_amount", "--label", "label",
        "--out", {str(tmp_path / "imported.jsonl")!r}),
]
before = scipy_modules()
codes.append(run("train", loan, "--log", log, "--out", model))
after_train = scipy_modules()
for strategy in ("propagate", "reject"):
    codes.append(run(
        "explain", loan, "--model", model, "--attrs", "credit_score=580,loan_amount=300000",
        "--mode", "process-aware", "--strategy", strategy, "--samples", "300",
    ))
after_explain = scipy_modules()
codes.append(run(
    "evaluate", loan, "--model", model, "--log", log, "--instances", "2", "--seeds", "0",
    "--samples", "300", "--out", report,
))
print(json.dumps({{
    "codes": codes, "before": before, "after_train": after_train,
    "after_explain": after_explain, "after_evaluate": scipy_modules(),
}}))
"""
    result = json.loads(fresh_python(source).splitlines()[-1])
    assert result["codes"] == [0] * 8
    assert result["before"] == []
    assert result["after_train"] == []
    assert result["after_explain"] == []
    assert result["after_evaluate"] == []


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
    assert result["loaded"] == [
        "procex.cli", "procex.errors", "procex.jsontext", "procex.process_model",
    ]
    expected = [run("-q", "validate", LOAN), run("-q", "causal-graph", LOAN)]
    assert result["results"] == [[code, out] for code, out, _ in expected]
    assert all(code == 0 for code, _ in result["results"])


def test_main_pins_blas_to_one_thread_unless_the_user_chose(fresh_python):
    """main() sets OPENBLAS_NUM_THREADS=1 before any command imports numpy,
    and leaves the environment alone when the user set it or OMP_NUM_THREADS."""
    source = f"""
import io, json, os, sys
from contextlib import redirect_stdout
import procex.cli

def pinned(**env):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.pop(name, None)
    os.environ.update(env)
    sys.argv = ["procex", "-q", "validate", {LOAN!r}]
    with redirect_stdout(io.StringIO()):
        try:
            procex.cli.main()
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    return os.environ.get("OPENBLAS_NUM_THREADS")

print(json.dumps([pinned(), pinned(OPENBLAS_NUM_THREADS="3"), pinned(OMP_NUM_THREADS="2")]))
"""
    assert json.loads(fresh_python(source).splitlines()[-1]) == ["1", "3", None]


def _outputs_under_threads(fresh_python, workdir, threads, commands):
    """Run ``commands`` through main() in a new interpreter, in ``workdir``,
    with ``OPENBLAS_NUM_THREADS`` set to ``threads`` (None: neither it nor
    ``OMP_NUM_THREADS`` set); returns each command's exit code and stdout,
    and the text of every file the commands wrote."""
    workdir.mkdir()
    source = f"""
import io, json, os, sys
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.pop(name, None)
if {threads!r} is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = {threads!r}
os.chdir({str(workdir)!r})
from contextlib import redirect_stdout
import procex.cli

def run(argv):
    sys.argv = ["procex", "-q", *argv]
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            procex.cli.main()
        except SystemExit as exc:
            return exc.code, out.getvalue()

print(json.dumps([run(argv) for argv in {commands!r}]))
"""
    results = json.loads(fresh_python(source).splitlines()[-1])
    files = {path.name: path.read_text() for path in sorted(workdir.iterdir())}
    return results, files


@pytest.mark.parametrize("name", ["loan", "chain"])
def test_outputs_do_not_depend_on_the_host(fresh_python, tmp_path, name):
    """stdout, log, model, report and bar data are the bytes of a one-thread
    BLAS whatever the host's core count, on the loan process and on 81
    activities. On loan they stay so under two threads; on the chain a
    threaded product of 83 x 83 Gram sums may change their last digits."""
    if name == "loan":
        process, attrs, simulate, flip = LOAN, "credit_score=580,loan_amount=300000", [], []
    else:  # rejection keeps nothing of 81 activities flipped at the default rate
        process, attrs = str(tmp_path / "chain.bp"), "x=0.2"
        simulate, flip = ["--noise", "0.2"], ["--flip-p", "0.001"]
        Path(process).write_text(serialize_process(CHAIN))
    explain = ["explain", process, "--model", "model.json", "--attrs", attrs,
               "--mode", "process-aware", *flip, "--strategy"]
    commands = [
        ["simulate", process, "--n", "4000", "--seed", "3", *simulate, "--out", "log.jsonl"],
        ["train", process, "--log", "log.jsonl", "--out", "model.json"],
        [*explain, "propagate"],
        [*explain, "reject"],
        ["evaluate", process, "--model", "model.json", "--log", "log.jsonl",
         "--instances", "3", "--seeds", "0,1", "--samples", "1000", "--out", "report.json"],
    ]
    default = _outputs_under_threads(fresh_python, tmp_path / "default", None, commands)
    one = _outputs_under_threads(fresh_python, tmp_path / "one", "1", commands)
    assert [code for code, _ in default[0]] == [0] * len(commands)
    assert sorted(default[1]) == ["log.jsonl", "model.json", "report.figdata.csv", "report.json"]
    assert default == one
    if name == "loan":
        assert _outputs_under_threads(fresh_python, tmp_path / "two", "2", commands) == one
