"""Shared fixtures and the acceptance-summary reporting hook."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import procex
from procex.features import build_schema
from procex.predictor import split_log, train
from procex.process_model import load_fixture
from procex.simulation import SimulationConfig, generate_log

# Acceptance tests append their printed result lines here; the terminal
# summary hook replays them after the run so they are visible even when
# pytest captures stdout of passing tests.
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def loan():
    return load_fixture()


@pytest.fixture(scope="session")
def loan_schema(loan):
    return build_schema(loan)


@pytest.fixture(scope="session")
def small_log(loan):
    return generate_log(loan, SimulationConfig(n_cases=400, seed=5))


@pytest.fixture(scope="session")
def model_log(loan):
    # Big enough for stable explanation tests, small enough to train quickly.
    return generate_log(loan, SimulationConfig(n_cases=4000, seed=11))


@pytest.fixture(scope="session")
def loan_model(loan_schema, model_log):
    return train(model_log, loan_schema)


@pytest.fixture(scope="session")
def seed42_log(loan):
    """The README tour's log: ``procex simulate --n 10000 --seed 42``."""
    return generate_log(loan, SimulationConfig(n_cases=10000, seed=42))


@pytest.fixture(scope="session")
def seed42_model(loan_schema, seed42_log):
    """The model ``procex train`` writes for the README tour's log."""
    train_part, _ = split_log(seed42_log, 0.2, seed=42)
    return train(train_part, loan_schema)


@pytest.fixture(scope="session")
def rejected_skilled(model_log):
    return [
        t
        for t in model_log.traces
        if t.label == "NEGATIVE" and "skilled_agent_review" in t.activities
    ]


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a new interpreter that imports this checkout's
    procex; returns its stdout and fails the test on a non-zero exit."""
    src = str(Path(procex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(source: str) -> str:
        result = subprocess.run(
            [sys.executable, "-c", source],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    return run
