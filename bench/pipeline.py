"""Inputs, set-up and the README tour commands shared by every workload.

Everything here goes through procex's public API or its command line. The
workload seed decides every input: the simulation seed and the instances and
attributes to explain. The program only sees the generated inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from procex import fixture_path
from procex.explainer import REJECT
from procex.evaluation import ComparisonConfig
from procex.features import encode_log
from procex.predictor import load_model

from replay import parse_checked, simulate_to, span, train_to

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; ``FULL`` for measuring, ``TINY`` for the
    smoke test."""

    loan_cases: int
    setup_repeats: int
    explain_warmup: int
    explain_min_timed: int
    explain_pool: int
    evaluate_instances: int
    probe_repeats: int
    replay_explains: int


FULL = Sizes(
    loan_cases=10000,
    setup_repeats=5,
    explain_warmup=99,
    explain_min_timed=1200,
    explain_pool=60,
    evaluate_instances=20,
    probe_repeats=3,
    replay_explains=600,
)
TINY = Sizes(
    loan_cases=400,
    setup_repeats=1,
    explain_warmup=3,
    explain_min_timed=6,
    explain_pool=5,
    evaluate_instances=2,
    probe_repeats=1,
    replay_explains=6,
)


def comparison_config(sizes: Sizes, chunk: int) -> ComparisonConfig:
    """Comparison chunk ``chunk``: the README ``evaluate`` tour's instances
    (the first 20 rejected cases that went to skilled review) under seed
    ``chunk``."""
    return ComparisonConfig(
        n_instances=sizes.evaluate_instances,
        seeds=(chunk,),
        require_activity="skilled_agent_review",
    )


@dataclass(frozen=True, eq=False)
class Setup:
    seed: int
    text: str
    process_path: Path
    defn: object
    log: object
    model: object
    log_bytes: bytes
    model_bytes: bytes


def prepare(seed: int, sizes: Sizes, workdir: Path, tracer=None) -> Setup:
    """Parse the loan process, simulate and write the log, read it back,
    train and save, as the tour's ``simulate`` and ``train`` commands do, then
    reload the model."""
    text = fixture_path().read_text(encoding="utf-8")
    process_path = workdir / "loan.bp"
    process_path.write_text(text, encoding="utf-8")
    log_path = workdir / "loan_log.jsonl"
    model_path = workdir / "model.json"
    defn = parse_checked(tracer, text)
    simulate_to(tracer, defn, sizes.loan_cases, seed, log_path)
    log, model, (train_log, _) = train_to(tracer, defn, log_path, model_path)
    with span(tracer, "predictor.load_model"):
        loaded = load_model(model_path, definition=defn)
    if tracer is not None:
        # ``train`` encodes internally; encoding once more is the only way to
        # time the features layer from outside.
        with span(tracer, "features.encode_log"):
            encode_log(model.schema, train_log)
        tracer.value("simulation.log_bytes", log_path.stat().st_size)
        tracer.value("simulation.n_cases", sizes.loan_cases)
        for key in ("epochs_run", "converged", "final_loss"):
            tracer.value(f"predictor.{key}", float(model.train_meta[key]))
    return Setup(
        seed=seed,
        text=text,
        process_path=process_path,
        defn=defn,
        log=log,
        model=loaded,
        log_bytes=log_path.read_bytes(),
        model_bytes=model_path.read_bytes(),
    )


def prepare_repeated(seed: int, sizes: Sizes, workdir: Path, pace):
    """Set up ``sizes.setup_repeats`` times, sampling ``pace`` after each;
    returns the last set-up, the set-up times and the problems found
    (set-ups that disagree)."""
    times = []
    problems = []
    first = None
    for i in range(sizes.setup_repeats):
        start = time.perf_counter()
        setup = prepare(seed, sizes, workdir)
        times.append(time.perf_counter() - start)
        pace.after(times[-1])
        written = (setup.log_bytes, setup.model_bytes)
        if first is None:
            first = written
        elif written != first:
            problems.append(f"set-up {i} wrote other bytes than set-up 0 under the same seed")
    return setup, times, problems


# ---------------------------------------------------------------------------
# The README tour on the command line
# ---------------------------------------------------------------------------

def tour_attrs(defn, seed: int) -> dict[str, float]:
    """Attributes of the hypothetical case the tour explains, drawn from the
    seed within the declared bounds."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    return {
        name: round(float(rng.uniform(lower, upper)), 2)
        for name, (lower, upper) in sorted(defn.attribute_bounds.items())
    }


def tour_commands(process: Path, seed: int, n_cases: int, attrs: dict) -> list:
    """The README quick tour without ``evaluate``, which has its own workload:
    ``(name, argv)`` pairs, run in order in one directory."""
    assignment = ",".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
    explain = ["explain", str(process), "--model", "model.json", "--attrs", assignment,
               "--mode", "process-aware"]
    return [
        ("validate", ["validate", str(process)]),
        ("causal_graph", ["causal-graph", str(process)]),
        ("simulate", ["simulate", str(process), "--n", str(n_cases), "--seed", str(seed),
                      "--out", "loan_log.jsonl"]),
        ("train", ["train", str(process), "--log", "loan_log.jsonl", "--out", "model.json"]),
        ("explain", explain),
        ("reject", explain + ["--strategy", REJECT]),
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run ``procex ARGS`` as the installed console script would, from the
    checkout's sources."""
    return subprocess.run(
        [sys.executable, "-m", "procex.cli", *args],
        cwd=cwd,
        env=cli_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=150,
        check=False,
    )


def run_python(code: str, cwd: Path) -> None:
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=cli_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=150,
        check=True,
    )
