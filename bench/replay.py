"""Spans held in memory, and replays of procex's top-level calls.

``explain``, ``run_comparison`` and the CLI commands are rebuilt here from the
public calls they are made of (``sample_*``, ``predict_proba``,
``kernel_weights``, ``fit_surrogate``, ``conformance_rate`` and the rest),
with a span around each, so every layer is timed from outside the program.
The workloads check that a replay returns exactly what the top-level call
returns, so the breakdown measures the same program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from procex import derive_causality_graph, reachable_indicators, validate
from procex.evaluation import (
    ComparisonConfig,
    ExperimentReport,
    InstanceRun,
    compute_aggregates,
    conformance_rate,
    top_k_overlap,
    write_figdata_csv,
    write_report_json,
)
from procex.explainer import (
    PROCESS_AWARE,
    REJECT,
    VANILLA,
    ExplainConfig,
    Explanation,
    fit_surrogate,
    kernel_weights,
    sample_process_aware,
    sample_vanilla,
)
from procex.features import build_schema, encode_trace, split_vector
from procex.predictor import (
    TrainConfig,
    evaluate,
    load_model,
    predict_proba,
    save_model,
    split_log,
    train,
)
from procex.process_model import eval_guard_batch, parse_process_structure
from procex.simulation import (
    SimulationConfig,
    execute_case,
    generate_log,
    is_conformant,
    read_log_jsonl,
    write_log_jsonl,
)

LAYERS = (
    "cli",
    "process_model",
    "simulation",
    "features",
    "predictor",
    "explainer",
    "evaluation",
)
# CLI defaults, so the in-process set-up trains exactly the model `procex
# train` writes.
TRAIN_SPLIT = 0.2
TRAIN_CONFIG = TrainConfig()


class Tracer:
    """Spans (name, start, end, parent) and named values, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.values: dict[str, list[float]] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def value(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in spans of that layer and not in a child."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += end - start - inner
        return totals


def span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


# ---------------------------------------------------------------------------
# explain and run_comparison
# ---------------------------------------------------------------------------

def replay_explain(
    tracer: Tracer | None,
    model,
    defn,
    instance: np.ndarray,
    config: ExplainConfig,
    instance_id: str = "",
) -> tuple[Explanation, np.ndarray]:
    """``explain_detailed`` from its public steps; returns the samples too.

    It skips the model-versus-definition schema check, which the set-up
    already made when it loaded the model.
    """
    instance = np.asarray(instance, dtype=float)
    schema, scaler = model.schema, model.scaler
    rng = np.random.default_rng(config.seed)
    with span(tracer, "explainer.explain"):
        if config.mode == VANILLA:
            strategy = None
            with span(tracer, "explainer.sample_vanilla"):
                samples = sample_vanilla(
                    instance, schema, scaler,
                    config.n_samples, config.spread, config.flip_p, rng,
                )
        else:
            strategy = config.strategy
            with span(tracer, f"explainer.sample_{strategy}"):
                samples = sample_process_aware(
                    instance, defn, schema, scaler,
                    config.n_samples, config.spread, strategy, rng,
                    flip_p=config.flip_p,
                )
        with span(tracer, "predictor.predict_proba"):
            predictions = np.atleast_1d(predict_proba(model, samples))
        width = config.resolved_width(schema.arity)
        with span(tracer, "explainer.kernel"):
            weights = kernel_weights(instance, samples, scaler, width)
        if config.collapse_derived:
            columns = schema.numeric_indices
        else:
            columns = np.arange(schema.arity)
        with span(tracer, "explainer.surrogate"):
            coef, intercept, fidelity = fit_surrogate(
                scaler.apply(samples)[:, columns], predictions, weights, config.ridge
            )
        std_weights = np.zeros(schema.arity)
        std_weights[columns] = coef
        raw_weights = std_weights / scaler.scale
        order = sorted(
            range(schema.arity), key=lambda i: (-abs(std_weights[i]), schema.names[i])
        )
        explanation = Explanation(
            mode=config.mode,
            strategy=strategy,
            instance_id=instance_id,
            prediction=float(predictions[0]),
            attributions=tuple((schema.names[i], float(std_weights[i])) for i in order),
            attributions_raw=tuple((schema.names[i], float(raw_weights[i])) for i in order),
            intercept=intercept,
            fidelity_r2=fidelity,
            n_samples=config.n_samples,
            seed=config.seed,
            kernel_width=width,
            config=tuple(sorted(config.to_json_dict(schema.arity).items())),
        )
    return explanation, samples


def select_instances(log, config: ComparisonConfig) -> list:
    """The traces ``run_comparison`` explains: the first matching ones."""
    selected = [
        t for t in log.traces
        if t.label == config.select_label
        and (config.require_activity is None or config.require_activity in t.activities)
    ]
    return selected[: config.n_instances]


def replay_comparison(
    tracer: Tracer | None, defn, model, log, config: ComparisonConfig
) -> tuple[ExperimentReport, list[np.ndarray]]:
    """``run_comparison`` from its public steps; also returns the vanilla
    sample sets."""
    schema = model.schema
    records = []
    vanilla_sets = []
    with span(tracer, "evaluation.run_comparison"):
        instances = select_instances(log, config)
        for trace in instances:
            vector = encode_trace(schema, trace)
            for seed in config.seeds:
                runs = {}
                for mode in (VANILLA, PROCESS_AWARE):
                    expl, samples = replay_explain(
                        tracer, model, defn, vector,
                        config.explain_config(mode, seed), trace.case_id,
                    )
                    with span(tracer, "evaluation.conformance_rate"):
                        rate = conformance_rate(defn, samples[1:], schema)
                    runs[mode] = (expl, samples, rate)
                    if tracer is not None:
                        tracer.value("evaluation.conformance_rows", len(samples) - 1)
                (v_expl, v_samples, v_rate), (a_expl, _, a_rate) = runs.values()
                vanilla_sets.append(v_samples)
                if tracer is not None and config.strategy == REJECT:
                    tracer.value("explainer.reject_acceptance", v_rate)
                    tracer.value("explainer.reject_acceptance_rows", len(v_samples) - 1)
                records.append(
                    InstanceRun(
                        case_id=trace.case_id,
                        seed=seed,
                        vanilla=v_expl,
                        process_aware=a_expl,
                        vanilla_conformance=v_rate,
                        process_aware_conformance=a_rate,
                        top_k_overlap=top_k_overlap(v_expl, a_expl, config.top_k),
                    )
                )
        with span(tracer, "evaluation.aggregates"):
            aggregates = compute_aggregates(records, schema.names)
        report_config = dict(config.to_json_dict())
        report_config["selected_cases"] = [t.case_id for t in instances]
    report = ExperimentReport(
        config=report_config, records=tuple(records), aggregates=aggregates
    )
    return report, vanilla_sets


def write_report(tracer: Tracer | None, report: ExperimentReport, path: Path) -> Path:
    """Write the report and its bar data as ``procex evaluate`` does; returns
    the bar data's path."""
    figdata = path.with_suffix(".figdata.csv")
    with span(tracer, "evaluation.write_report"):
        write_report_json(report, path)
        write_figdata_csv(report, figdata)
    return figdata


# ---------------------------------------------------------------------------
# The conformance oracle, row by row
# ---------------------------------------------------------------------------

def route_signatures(defn, schema, samples: np.ndarray) -> int:
    """Distinct xor routes (branch taken at every xor gateway) among rows."""
    columns = {name: samples[:, schema.index(name)] for name in defn.attribute_names}
    routes = []
    for gateway in defn.xor_gateways:
        taken = np.full(len(samples), len(gateway.branches))
        for k in reversed(range(len(gateway.branches))):
            taken[eval_guard_batch(gateway.branches[k].guard, columns)] = k
        routes.append(taken)
    return len(np.unique(np.stack(routes, axis=1), axis=0))


def oracle_probe(tracer: Tracer, defn, schema, samples: np.ndarray, max_rows: int) -> None:
    """Time ``reachable_indicators`` and ``is_conformant`` per row on one
    vanilla sample set, and count the routes and reachable vectors."""
    rows = samples[1:]
    split = [split_vector(schema, row) for row in rows[:max_rows]]
    with tracer.span("process_model.reachable_indicators"):
        reachable = [len(reachable_indicators(defn, attrs)) for attrs, _ in split]
    with tracer.span("simulation.is_conformant"):
        for attrs, indicators in split:
            is_conformant(defn, attrs, indicators)
    tracer.value("process_model.oracle_rows", len(split))
    tracer.value("process_model.reachable_vectors", float(np.mean(reachable)))
    tracer.value("process_model.route_signatures", route_signatures(defn, schema, rows))


# ---------------------------------------------------------------------------
# The README tour, command by command
# ---------------------------------------------------------------------------

def parse_checked(tracer: Tracer | None, text: str):
    """``parse_process``: parse, then refuse a definition with findings."""
    with span(tracer, "process_model.parse"):
        defn = parse_process_structure(text)
    with span(tracer, "process_model.validate"):
        report = validate(defn)
    if not report.ok:
        raise ValueError(f"definition has findings: {report.findings}")
    return defn


def simulate_to(tracer: Tracer | None, defn, n_cases: int, seed: int, log_path: Path) -> None:
    """What ``procex simulate`` does after parsing: generate, write JSONL."""
    with span(tracer, "simulation.generate_log"):
        log = generate_log(defn, SimulationConfig(n_cases=n_cases, seed=seed))
    with span(tracer, "simulation.write_jsonl"):
        write_log_jsonl(log, log_path)


def train_to(tracer: Tracer | None, defn, log_path: Path, model_path: Path):
    """What ``procex train`` does after parsing, up to saving the model, with
    the CLI's defaults. Returns the log read back, the model and the
    ``(train, test)`` split."""
    schema = build_schema(defn)
    with span(tracer, "simulation.read_jsonl"):
        log = read_log_jsonl(log_path, process_name=defn.name)
    train_log, test_log = split_log(log, TRAIN_SPLIT, TRAIN_CONFIG.seed)
    with span(tracer, "predictor.train"):
        model = train(train_log, schema, TRAIN_CONFIG)
    with span(tracer, "predictor.save_model"):
        save_model(model, model_path)
    return log, model, (train_log, test_log)


def replay_tour(
    tracer: Tracer | None, text: str, seed: int, n_cases: int, attrs: dict, workdir: Path
) -> dict:
    """Do in-process what each tour command does; returns, per command, the
    output the CLI run is compared on."""
    out = {}
    with span(tracer, "cli.validate"):
        with span(tracer, "process_model.parse"):
            defn = parse_process_structure(text)
        with span(tracer, "process_model.validate"):
            report = validate(defn)
        out["validate"] = [
            {"rule": f.rule, "subject": f.subject, "message": f.message}
            for f in report.findings
        ]
    with span(tracer, "cli.causal_graph"):
        defn = parse_checked(tracer, text)
        with span(tracer, "process_model.causal_graph"):
            graph = derive_causality_graph(defn)
        out["causal_graph"] = [[s, t] for s, t in graph.edges]
    log_path = workdir / "loan_log.jsonl"
    with span(tracer, "cli.simulate"):
        simulate_to(tracer, parse_checked(tracer, text), n_cases, seed, log_path)
    out["simulate"] = log_path.read_bytes()
    model_path = workdir / "model.json"
    with span(tracer, "cli.train"):
        defn = parse_checked(tracer, text)
        _, model, (train_log, test_log) = train_to(tracer, defn, log_path, model_path)
        with span(tracer, "predictor.evaluate"):
            evaluate(model, train_log)
            evaluate(model, test_log)
    out["train"] = model_path.read_bytes()
    for command, strategy in (("explain", "propagate"), ("reject", REJECT)):
        with span(tracer, f"cli.{command}"):
            defn = parse_checked(tracer, text)
            with span(tracer, "predictor.load_model"):
                model = load_model(model_path, definition=defn)
            with span(tracer, "simulation.execute_case"):
                trace = execute_case(defn, attrs, np.random.default_rng(0), case_id="adhoc")
            vector = encode_trace(model.schema, trace)
            config = ExplainConfig(mode=PROCESS_AWARE, strategy=strategy)
            explanation, _ = replay_explain(tracer, model, defn, vector, config, "adhoc")
        out[command] = json.loads(json.dumps(explanation.to_json_dict()))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (span name, scale applied to the median span in seconds)
SPAN_MEDIANS = {
    "cli.interpreter_s": ("cli.interpreter", 1.0),
    "cli.import_s": ("cli.import", 1.0),
    "cli.tour_s": ("cli.tour", 1.0),
    "cli.simulate_cmd_s": ("cli.run.simulate", 1.0),
    "cli.train_cmd_s": ("cli.run.train", 1.0),
    "cli.explain_cmd_s": ("cli.run.explain", 1.0),
    "cli.reject_cmd_s": ("cli.run.reject", 1.0),
    "process_model.parse_ms": ("process_model.parse", 1e3),
    "process_model.validate_ms": ("process_model.validate", 1e3),
    "simulation.generate_log_s": ("simulation.generate_log", 1.0),
    "simulation.write_jsonl_s": ("simulation.write_jsonl", 1.0),
    "simulation.read_jsonl_s": ("simulation.read_jsonl", 1.0),
    "features.encode_log_s": ("features.encode_log", 1.0),
    "predictor.train_s": ("predictor.train", 1.0),
    "predictor.save_model_ms": ("predictor.save_model", 1e3),
    "predictor.load_model_ms": ("predictor.load_model", 1e3),
    "predictor.predict_proba_ms": ("predictor.predict_proba", 1e3),
    "explainer.sample_vanilla_ms": ("explainer.sample_vanilla", 1e3),
    "explainer.sample_propagate_ms": ("explainer.sample_propagate", 1e3),
    "explainer.sample_reject_ms": ("explainer.sample_reject", 1e3),
    "explainer.kernel_ms": ("explainer.kernel", 1e3),
    "explainer.surrogate_ms": ("explainer.surrogate", 1e3),
    "evaluation.conformance_rate_ms": ("evaluation.conformance_rate", 1e3),
    "evaluation.aggregates_ms": ("evaluation.aggregates", 1e3),
    "evaluation.write_report_ms": ("evaluation.write_report", 1e3),
}

# metric -> recorded value whose median it reports
VALUE_MEDIANS = {
    "process_model.route_signatures": "process_model.route_signatures",
    "process_model.reachable_vectors": "process_model.reachable_vectors",
    "simulation.log_bytes": "simulation.log_bytes",
    "predictor.train_epochs": "predictor.epochs_run",
    "predictor.train_converged": "predictor.converged",
    "predictor.final_loss": "predictor.final_loss",
    "explainer.reject_acceptance": "explainer.reject_acceptance",
    "explainer.reject_acceptance_rows": "explainer.reject_acceptance_rows",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric from one traced run's spans and values."""

    def spans(name: str) -> list[float]:
        found = tracer.durations(name)
        if not found:
            raise KeyError(f"the traced run recorded no {name!r} span")
        return found

    def total(name: str) -> float:
        return float(np.sum(spans(name)))

    metrics = {
        metric: float(np.median(spans(name))) * scale
        for metric, (name, scale) in SPAN_MEDIANS.items()
    }
    metrics.update(
        (metric, float(np.median(tracer.values[name])))
        for metric, name in VALUE_MEDIANS.items()
    )
    oracle_rows = float(np.sum(tracer.values["process_model.oracle_rows"]))
    conformance_rows = float(np.sum(tracer.values["evaluation.conformance_rows"]))
    comparison = total("evaluation.run_comparison")
    metrics.update(
        {
            "process_model.reachable_indicators_us":
                total("process_model.reachable_indicators") / oracle_rows * 1e6,
            "simulation.is_conformant_us":
                total("simulation.is_conformant") / oracle_rows * 1e6,
            "simulation.cases_per_s": float(np.median(tracer.values["simulation.n_cases"]))
                / metrics["simulation.generate_log_s"],
            "evaluation.conformance_rows_per_s":
                conformance_rows / total("evaluation.conformance_rate"),
            "evaluation.conformance_share":
                total("evaluation.conformance_rate") / comparison,
            "evaluation.comparison_s": comparison,
        }
    )
    metrics.update((f"{layer}.self_s", s) for layer, s in tracer.self_times().items())
    return metrics
