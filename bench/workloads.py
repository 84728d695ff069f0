"""The three workloads, timed with tracing off, and their traced replays.

Every workload is a closed loop with one caller in one process: the next
operation starts when the previous one has finished, and the ``tour``
subprocesses run one at a time. Each operation is attempted once and fails
on a non-zero exit, a ``ProcexError`` or a failed output check. The checks
test invariants (conformance, coverage of the schema, equal bytes under equal
seeds), never digests of the program's output.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from procex.errors import ProcexError
from procex.evaluation import report_to_json_dict, run_comparison
from procex.explainer import PROCESS_AWARE, PROPAGATE, REJECT, VANILLA, ExplainConfig, explain
from procex.features import encode_trace

from pipeline import (
    Sizes,
    comparison_config,
    prepare,
    prepare_repeated,
    run_cli,
    run_python,
    tour_attrs,
    tour_commands,
)
from replay import (
    Tracer,
    layer_metrics,
    oracle_probe,
    replay_comparison,
    replay_explain,
    replay_tour,
    span,
    write_report,
)

# The explain workload cycles through these, one call each.
EXPLAIN_CONFIGS = (
    ExplainConfig(mode=VANILLA),
    ExplainConfig(mode=PROCESS_AWARE, strategy=PROPAGATE),
    ExplainConfig(mode=PROCESS_AWARE, strategy=PROPAGATE, collapse_derived=True),
)
ORACLE_PROBE_ROWS = 500
# Seconds in one ref at which ``setup_s`` is given: about the reference
# kernel's time on a 2-core x86_64 host.
NOMINAL_REF_S = 5e-4


@dataclass(frozen=True)
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path


class Tally:
    """Operations attempted and failed; a failure's reasons go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def call(self, what: str, fn):
        """Run one operation; a ``ProcexError`` counts it as failed."""
        try:
            return fn()
        except ProcexError as exc:
            self.record(what, [f"{type(exc).__name__}: {exc}"])
            return None


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def explanation_problems(payload: dict, schema) -> list[str]:
    """Checks on one explanation's JSON payload."""
    problems = []
    weights = {a["feature"]: a["weight"] for a in payload["attributions"]}
    if sorted(weights) != sorted(schema.names):
        problems.append("not every schema feature is attributed")
    if not math.isfinite(payload["fidelity_r2"]):
        problems.append(f"fidelity_r2 is {payload['fidelity_r2']}")
    if payload["config"]["collapse_derived"]:
        binary = [schema.names[i] for i in schema.binary_indices]
        if any(weights.get(name) != 0.0 for name in binary):
            problems.append("collapse_derived left weight on an activity indicator")
    return problems


def report_problems(report, schema) -> list[str]:
    """Checks on one comparison report."""
    problems = []
    conformance = report.aggregates["mean_conformance"]
    if conformance[PROCESS_AWARE] != 1.0:
        problems.append(f"process-aware mean conformance is {conformance[PROCESS_AWARE]!r}")
    if not conformance[VANILLA] < 1.0:
        problems.append(f"vanilla mean conformance is {conformance[VANILLA]!r}")
    for record in report.records:
        problems += explanation_problems(record.vanilla.to_json_dict(), schema)
        problems += explanation_problems(record.process_aware.to_json_dict(), schema)
    return problems


def cli_problems(name: str, proc, cwd: Path, expected: dict, schema) -> list[str]:
    """Checks on one tour command against the in-process replay's output."""
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {proc.returncode}: {tail[0]}"]
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        return ["stdout is not one JSON payload"]
    if name == "validate":
        got = payload["findings"]
    elif name == "causal_graph":
        got = payload["edges"]
    elif name == "simulate":
        got = (cwd / "loan_log.jsonl").read_bytes()
    elif name == "train":
        got = (cwd / "model.json").read_bytes()
    else:
        got = payload
    problems = []
    if got != expected[name]:
        problems.append("output differs from the API's under the same seed")
    if name in ("explain", "reject"):
        problems += explanation_problems(payload, schema)
    return problems


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _frozenset_paths(depth: int) -> frozenset:
    if depth == 0:
        return frozenset({frozenset()})
    below = _frozenset_paths(depth - 1)
    return frozenset(s | {depth} for s in below) | below


_ARRAY = np.random.default_rng(0).standard_normal((2000, 16))


def mixed_kernel() -> None:
    """Recursion over frozensets and dict updates, like the conformance
    oracle, then array arithmetic and a small matrix product, like sampling,
    the kernel weights and the surrogate fit."""
    sum(len(s) for s in _frozenset_paths(9))
    counts: dict[int, int] = {}
    for i in range(600):
        counts[i % 37] = counts.get(i % 37, 0) + i
    weights = np.exp(-(_ARRAY * _ARRAY).sum(axis=1))
    float((_ARRAY.T @ (_ARRAY * weights[:, None])).sum())


class Pace:
    """The host's speed, sampled between operations.

    A shared host drifts in speed by 10-20% within tens of seconds, far more
    than a regression worth catching. So ``mixed_kernel``, fixed code outside
    procex, is timed between the operations (about 8% of the time they take),
    and every operation's time is divided by the median kernel time of its
    segment: the operations since the previous segment ended and the kernel
    samples taken after them, at least ``SEGMENT`` of those. The drift
    cancels in the ratio as far as it hits both alike, and a segment is short
    enough (one tour command or comparison, or about 70 explain calls) that
    the drift within it is small.
    """

    SHARE = 0.08
    SEGMENT = 20

    def __init__(self) -> None:
        self._debt = 0.0
        self.samples: list[float] = []
        self._pending: list[float] = []
        self._segment_start = 0
        self._refs: list[float] = []

    def after(self, elapsed: float) -> None:
        """Sample the kernel for a share of an operation that took ``elapsed``."""
        self._pending.append(elapsed)
        self._debt += self.SHARE * elapsed
        while self._debt > 0 or not self.samples:
            start = time.perf_counter()
            mixed_kernel()
            took = time.perf_counter() - start
            self.samples.append(took)
            self._debt -= took
        if len(self.samples) - self._segment_start >= self.SEGMENT:
            self._close_segment()

    def _close_segment(self) -> None:
        first = min(self._segment_start, max(len(self.samples) - self.SEGMENT, 0))
        ref = float(np.median(self.samples[first:]))
        self._refs += [elapsed / ref for elapsed in self._pending]
        self._pending = []
        self._segment_start = len(self.samples)

    def in_refs(self) -> list[float]:
        """Every operation passed to ``after``, in refs, in order."""
        if self._pending:
            self._close_segment()
        return list(self._refs)

    def unit(self) -> float:
        """The median kernel time over the whole run, in seconds."""
        return float(np.median(self.samples))


def timed_setup(ctx: Context):
    """Set up ``ctx.sizes.setup_repeats`` times; returns the last set-up,
    ``setup_s`` and the problems found.

    ``setup_s`` is the median set-up in refs, given in seconds at
    ``NOMINAL_REF_S`` a ref: on a shared host raw set-up times spread over
    runs several times as much as the ref-based ones.
    """
    pace = Pace()
    setup, times, problems = prepare_repeated(ctx.seed, ctx.sizes, ctx.workdir, pace)
    print(json.dumps({"setup": {"median_s": float(np.median(times)),
                                "reference_ms": pace.unit() * 1e3}}))
    return setup, float(np.median(pace.in_refs())) * NOMINAL_REF_S, problems


def latency_metrics(latencies: list[float], in_refs: list[float], units: list[int],
                    setup_s: float, pace: Pace) -> dict:
    """End-to-end metrics: ``latencies`` are the operations' times in
    seconds and ``in_refs`` the same in refs; ``units`` is the work each
    operation did (commands, calls, records).

    Throughput is all the work over all the time, so unlike the median
    latency it also moves with slow operations in the tail.
    """
    raw = {
        "latency_p50_ms": float(np.median(latencies)) * 1e3,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "throughput_per_s": float(np.sum(units)) / float(np.sum(latencies)),
        "reference_ms": pace.unit() * 1e3,
        "operations": len(latencies),
    }
    print(json.dumps({"raw": raw}))
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ref": float(np.median(in_refs)),
        "throughput_per_ref": float(np.sum(units)) / float(np.sum(in_refs)),
    }


def explain_calls(setup, sizes: Sizes):
    """Call ``i`` of the explain workload: instance, config and id. The
    instances are drawn from the seed and encoded before timing starts."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=setup.seed, spawn_key=(5,)))
    traces = setup.log.traces
    picks = rng.choice(len(traces), size=min(sizes.explain_pool, len(traces)), replace=False)
    pool = [(traces[i].case_id, encode_trace(setup.model.schema, traces[i])) for i in picks]

    def call(i: int):
        case_id, vector = pool[(i // len(EXPLAIN_CONFIGS)) % len(pool)]
        return vector, replace(EXPLAIN_CONFIGS[i % len(EXPLAIN_CONFIGS)], seed=i), case_id

    return call


def fresh_dir(ctx: Context, name: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=name, dir=ctx.workdir))


def run_tour(ctx: Context, process: Path, attrs: dict, expected: dict, schema,
             tally: Tally, tracer: Tracer | None = None, pace: Pace | None = None) -> list[float]:
    """Run the six tour commands as subprocesses; returns their wall times."""
    cwd = fresh_dir(ctx, "tour")
    latencies = []
    commands = tour_commands(process, ctx.seed, ctx.sizes.loan_cases, attrs)
    with span(tracer, "cli.tour"):
        for name, argv in commands:
            start = time.perf_counter()
            with span(tracer, f"cli.run.{name}"):
                proc = run_cli(argv, cwd)
            latencies.append(time.perf_counter() - start)
            tally.record(f"procex {argv[0]}", cli_problems(name, proc, cwd, expected, schema))
            if pace is not None:
                pace.after(latencies[-1])
    return latencies


def tour_expected(setup, attrs: dict, ctx: Context, tracer: Tracer | None = None) -> dict:
    """What each tour command must output: the in-process replay's results."""
    return replay_tour(
        tracer, setup.text, ctx.seed, ctx.sizes.loan_cases, attrs, fresh_dir(ctx, "replay")
    )


# ---------------------------------------------------------------------------
# Timed runs (tracing off)
# ---------------------------------------------------------------------------

def timed_tour(ctx: Context, tally: Tally) -> dict:
    setup, setup_s, problems = timed_setup(ctx)
    tally.record("set-up", problems)
    attrs = tour_attrs(setup.defn, ctx.seed)
    expected = tour_expected(setup, attrs, ctx)
    tally.record("in-process tour", [
        f"{what} bytes differ from the set-up's under the same seed"
        for what, same in (
            ("log", expected["simulate"] == setup.log_bytes),
            ("model", expected["train"] == setup.model_bytes),
        )
        if not same
    ])
    # One operation is a whole tour: its commands differ too much in cost
    # for a median over single commands to be steady.
    pace = Pace()
    tours = []
    commands = []
    begin = time.perf_counter()
    while not tours or time.perf_counter() - begin < ctx.seconds:
        latencies = run_tour(ctx, setup.process_path, attrs, expected,
                             setup.model.schema, tally, pace=pace)
        tours.append(sum(latencies))
        commands.append(len(latencies))
    per_command = pace.in_refs()
    ends = np.cumsum(commands)
    in_refs = [sum(per_command[end - n:end]) for n, end in zip(commands, ends)]
    return latency_metrics(tours, in_refs, commands, setup_s, pace)


def timed_explain(ctx: Context, tally: Tally) -> dict:
    setup, setup_s, problems = timed_setup(ctx)
    tally.record("set-up", problems)
    call = explain_calls(setup, ctx.sizes)
    model, defn, schema = setup.model, setup.defn, setup.model.schema

    def one(i: int):
        vector, config, case_id = call(i)
        start = time.perf_counter()
        expl = tally.call(f"explain {i}", lambda: explain(model, defn, vector, config, case_id))
        elapsed = time.perf_counter() - start
        if expl is None:
            return None, elapsed
        payload = expl.to_json_dict()
        tally.record(f"explain {i}", explanation_problems(payload, schema))
        return payload, elapsed

    first, _ = one(0)
    for i in range(1, ctx.sizes.explain_warmup):
        one(i)
    pace = Pace()
    latencies = []
    i = ctx.sizes.explain_warmup
    begin = time.perf_counter()
    while i - ctx.sizes.explain_warmup < ctx.sizes.explain_min_timed or (
        time.perf_counter() - begin < ctx.seconds
    ):
        payload, elapsed = one(i)
        if payload is not None:
            latencies.append(elapsed)
            pace.after(elapsed)
        i += 1
    again, _ = one(0)
    tally.record("explain 0 repeated", [] if json.dumps(again) == json.dumps(first) else [
        "the same call twice gave different bytes"
    ])
    return latency_metrics(latencies, pace.in_refs(), [1] * len(latencies), setup_s, pace)


def timed_evaluate(ctx: Context, tally: Tally) -> dict:
    setup, setup_s, problems = timed_setup(ctx)
    tally.record("set-up", problems)
    defn, model, log, schema = setup.defn, setup.model, setup.log, setup.model.schema
    path = ctx.workdir / "report.json"
    pace = Pace()
    latencies = []
    records = []
    first = None
    chunk = 0
    begin = time.perf_counter()
    while chunk == 0 or time.perf_counter() - begin < ctx.seconds:
        config = comparison_config(ctx.sizes, chunk)
        start = time.perf_counter()
        report = tally.call(
            f"comparison {chunk}", lambda: run_comparison(defn, model, log, config)
        )
        if report is not None:
            write_report(None, report, path)
            latencies.append(time.perf_counter() - start)
            pace.after(latencies[-1])
            records.append(len(report.records))
            written = json.loads(path.read_text(encoding="utf-8"))
            problems = report_problems(report, schema)
            if written["aggregates"]["n_runs"] != len(report.records):
                problems.append("the written report lost records")
            tally.record(f"comparison {chunk}", problems)
            if first is None:
                first = report
        chunk += 1
    if first is not None:
        # The first record again, alone: same seed, same bytes.
        config = replace(comparison_config(ctx.sizes, 0), n_instances=1)
        again = tally.call(
            "comparison 0 repeated", lambda: run_comparison(defn, model, log, config)
        )
        if again is not None:
            same = json.dumps(report_to_json_dict(again)["records"][0]) == json.dumps(
                report_to_json_dict(first)["records"][0]
            )
            tally.record("comparison 0 repeated", [] if same else [
                "the same record twice gave different bytes"
            ])
    if not latencies:
        raise RuntimeError("every comparison failed")
    return latency_metrics(latencies, pace.in_refs(), records, setup_s, pace)


def timed_run(workload: str, ctx: Context, tally: Tally) -> dict:
    if workload == "tour":
        return timed_tour(ctx, tally)
    if workload == "explain":
        return timed_explain(ctx, tally)
    return timed_evaluate(ctx, tally)


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def traced_run(workload: str, ctx: Context, tally: Tally) -> dict:
    """Per-layer metrics: a traced set-up, the CLI probes, the workload's
    operations replayed with tracing off and on (each compared with the
    top-level calls), and one record of each sampling strategy so that every
    layer appears in every workload's trace."""
    tracer = Tracer()
    setup = prepare(ctx.seed, ctx.sizes, ctx.workdir, tracer)
    defn, model, log, schema = setup.defn, setup.model, setup.log, setup.model.schema

    for _ in range(ctx.sizes.probe_repeats):
        with tracer.span("cli.interpreter"):
            run_python("pass", ctx.workdir)
        with tracer.span("cli.import"):
            run_python("import procex.cli", ctx.workdir)
    attrs = tour_attrs(defn, ctx.seed)
    expected = tour_expected(setup, attrs, ctx)
    run_tour(ctx, setup.process_path, attrs, expected, schema, tally, tracer)

    if workload == "tour":
        def replay(t):
            return [tour_expected(setup, attrs, ctx, t)]
        public = [expected]
    elif workload == "explain":
        call = explain_calls(setup, ctx.sizes)
        calls = [call(i) for i in range(ctx.sizes.replay_explains)]
        public = [explain(model, defn, v, c, case_id) for v, c, case_id in calls]

        def replay(t):
            return [replay_explain(t, model, defn, v, c, case_id)[0] for v, c, case_id in calls]
    else:
        config = comparison_config(ctx.sizes, 0)
        path = ctx.workdir / "report.json"

        def written(report, t=None):
            figdata = write_report(t, report, path)
            return path.read_bytes() + figdata.read_bytes()

        public = [written(run_comparison(defn, model, log, config))]

        def replay(t):
            return [written(replay_comparison(t, defn, model, log, config)[0], t)]

    off, untraced_s = _timed(lambda: replay(None))
    on, traced_s = _timed(lambda: replay(tracer))
    for name, outputs in (("untraced replay", off), ("traced replay", on)):
        tally.record(name, [] if outputs == public else [
            "the replay's output differs from the top-level calls'"
        ])

    for strategy in (PROPAGATE, REJECT):
        config = replace(comparison_config(ctx.sizes, 0), n_instances=1, strategy=strategy)
        report, vanilla_sets = replay_comparison(tracer, defn, model, log, config)
        write_report(tracer, report, ctx.workdir / f"probe_{strategy}.json")
        tally.record(f"{strategy} probe", report_problems(report, schema))
        oracle_probe(tracer, defn, schema, vanilla_sets[0], ORACLE_PROBE_ROWS)

    pace = Pace()
    pace.after(untraced_s)
    metrics = layer_metrics(tracer)
    metrics["bench.tracing_overhead_s"] = traced_s - untraced_s
    metrics["bench.reference_ms"] = pace.unit() * 1e3
    return metrics
