"""Explanation-quality metrics and the vanilla-versus-process-aware experiment.

``run_comparison`` packages the whole contrast: pick instances from a log,
explain each one with both sampling modes across several seeds, measure
conformance of the perturbation neighborhoods, surrogate fidelity, and
attribution-rank agreement, then aggregate. The report serializes to JSON and
to a plot-ready CSV of mean absolute weight per feature per mode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptySamplesError,
    NoMatchingInstancesError,
    SchemaMismatchError,
    _integer,
)
from .explainer import (
    PROCESS_AWARE,
    VANILLA,
    ExplainConfig,
    Explanation,
    PerturbationSet,
    _checked_instance,
    _explain,
    _sampler,
)
from .features import _encode, build_schema, split_columns
from .jsontext import _write_json
from .predictor import LogisticModel
from .process_model import LABELS, NEGATIVE, ProcessDefinition, conformant_rows
from .simulation import EventLog

__all__ = [
    "conformance_rate",
    "top_k_overlap",
    "ComparisonConfig",
    "InstanceRun",
    "ExperimentReport",
    "run_comparison",
    "compute_aggregates",
    "report_to_json_dict",
    "write_report_json",
    "write_figdata_csv",
]


def conformance_rate(
    defn: ProcessDefinition,
    samples: "PerturbationSet | np.ndarray",
    schema=None,
) -> float:
    """Fraction of samples the conformance oracle accepts.

    Accepts a 2-D sample matrix, one sample per row (every row is
    checked), or a :class:`PerturbationSet`, in which case row 0 is excluded
    because it is the instance itself, not a perturbation. ``schema``
    defaults to the definition's; a definition of another schema is refused.
    """
    schema = build_schema(defn) if schema is None else schema
    schema.check_definition(defn)
    start = 1 if isinstance(samples, PerturbationSet) else 0
    matrix = samples.samples if start else samples
    verdicts = conformant_rows(defn, *split_columns(schema, matrix))[start:]
    if not len(verdicts):
        raise EmptySamplesError("conformance rate over zero samples is undefined")
    return int(np.count_nonzero(verdicts)) / len(verdicts)


def top_k_overlap(e1: Explanation, e2: Explanation, k: int) -> float:
    """|top-k(e1) ∩ top-k(e2)| / k under the |weight| ranking."""
    names1 = {name for name, _ in e1.attributions}
    names2 = {name for name, _ in e2.attributions}
    if names1 != names2:
        raise SchemaMismatchError(
            "explanations cover different feature sets; cannot compare"
        )
    _integer("k", k, 1, "be positive")
    if k > len(names1):
        raise ConfigError(f"k must be at most the {len(names1)} features, got {k}")
    return len(set(e1.top_features(k)) & set(e2.top_features(k))) / k


@dataclass(frozen=True)
class ComparisonConfig:
    """Instance selection plus the explainer settings shared by both modes,
    which default as in :class:`ExplainConfig`."""

    n_instances: int = 20
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    select_label: str = NEGATIVE
    require_activity: str | None = None
    top_k: int = 2
    n_samples: int = ExplainConfig.n_samples
    spread: float = ExplainConfig.spread
    flip_p: float = ExplainConfig.flip_p
    kernel_width: float | None = ExplainConfig.kernel_width
    ridge: float = ExplainConfig.ridge
    strategy: str = ExplainConfig.strategy
    collapse_derived: bool = ExplainConfig.collapse_derived

    def __post_init__(self) -> None:
        _integer("n_instances", self.n_instances, 1, "be positive")
        if not isinstance(self.seeds, (tuple, list)):
            raise ConfigError(f"seeds must be a tuple or list, got {self.seeds!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.select_label not in LABELS:
            raise ConfigError(
                f"select_label {self.select_label!r} is neither POSITIVE nor NEGATIVE"
            )
        if not (self.require_activity is None or isinstance(self.require_activity, str)):
            shown = repr(self.require_activity)
            raise ConfigError(f"require_activity must be None or a name, got {shown}")
        _integer("top_k", self.top_k, 1, "be positive")
        for seed in self.seeds:  # checks each seed and the shared settings
            self.explain_config(PROCESS_AWARE, seed)

    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["seeds"] = list(self.seeds)
        return data

    def explain_config(self, mode: str, seed: int) -> ExplainConfig:
        shared = {
            f.name: getattr(self, f.name)
            for f in fields(ExplainConfig)
            if f.name not in ("mode", "seed")
        }
        if mode != PROCESS_AWARE:
            shared["collapse_derived"] = False
        return ExplainConfig(mode=mode, seed=seed, **shared)


@dataclass(frozen=True)
class InstanceRun:
    """Both explanations of one instance under one seed, plus metrics."""

    case_id: str
    seed: int
    vanilla: Explanation
    process_aware: Explanation
    vanilla_conformance: float
    process_aware_conformance: float
    top_k_overlap: float


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    records: tuple[InstanceRun, ...]
    aggregates: dict


def _select_instances(log: EventLog, config: ComparisonConfig) -> EventLog:
    """The first ``n_instances`` cases with the selected label and, if one is
    required, activity."""
    # None, the activity no selection requires, is on every path.
    on_path = [config.require_activity in (None, *path) for path in log.paths]
    matches = (
        i for i, (label, k) in enumerate(zip(log.labels, log.path_of))
        if label == config.select_label and on_path[k]
    )
    rows = list(islice(matches, config.n_instances))
    if not rows:
        raise NoMatchingInstancesError(
            f"no trace with label {config.select_label!r}"
            + (
                f" and activity {config.require_activity!r}"
                if config.require_activity
                else ""
            )
        )
    return log.take(rows)


def compute_aggregates(
    records: Sequence[InstanceRun], feature_names: Sequence[str]
) -> dict:
    """Aggregate per-run metrics; pure so reports can be re-derived."""
    if not records:
        raise EmptySamplesError("aggregates over zero runs are undefined")
    modes = {VANILLA: lambda r: r.vanilla, PROCESS_AWARE: lambda r: r.process_aware}
    feature_stats: dict[str, dict[str, dict[str, float]]] = {}
    rank_by_mean: dict[str, dict[str, int]] = {}
    top1: dict[str, dict[str, float]] = {}
    top2: dict[str, dict[str, float]] = {}
    n_runs = len(records)
    for mode, pick in modes.items():
        stats: dict[str, dict[str, float]] = {}
        for name in feature_names:
            abs_weights = [abs(pick(r).weight_of(name)) for r in records]
            ranks = [pick(r).rank_of(name) for r in records]
            stats[name] = {
                "mean_abs_weight": float(np.mean(abs_weights)),
                "mean_rank": float(np.mean(ranks)),
            }
        feature_stats[mode] = stats
        ordered = sorted(
            feature_names, key=lambda n: (-stats[n]["mean_abs_weight"], n)
        )
        rank_by_mean[mode] = {name: i + 1 for i, name in enumerate(ordered)}
        top1[mode] = {
            name: sum(pick(r).rank_of(name) == 1 for r in records) / n_runs
            for name in feature_names
        }
        top2[mode] = {
            name: sum(pick(r).rank_of(name) <= 2 for r in records) / n_runs
            for name in feature_names
        }
    return {
        "n_runs": n_runs,
        "mean_conformance": {
            VANILLA: float(np.mean([r.vanilla_conformance for r in records])),
            PROCESS_AWARE: float(
                np.mean([r.process_aware_conformance for r in records])
            ),
        },
        "mean_fidelity": {
            VANILLA: float(np.mean([r.vanilla.fidelity_r2 for r in records])),
            PROCESS_AWARE: float(
                np.mean([r.process_aware.fidelity_r2 for r in records])
            ),
        },
        "mean_top_k_overlap": float(np.mean([r.top_k_overlap for r in records])),
        "feature_stats": feature_stats,
        "rank_by_mean_abs_weight": rank_by_mean,
        "top1_fraction": top1,
        "top2_fraction": top2,
    }


def run_comparison(
    defn: ProcessDefinition,
    model: LogisticModel,
    log: EventLog,
    config: ComparisonConfig = ComparisonConfig(),
) -> ExperimentReport:
    """Explain selected instances with both modes across every seed.

    Instances are the first ``n_instances`` traces matching the selection
    (fewer if the log runs out; zero matches raise
    ``NoMatchingInstancesError``, an activity the process does not declare
    ``ConfigError``). Runs are ordered instance-major,
    seed-minor, and the whole report is deterministic.
    """
    schema = model.schema
    schema.check_definition(defn)
    if config.require_activity not in (None, *defn.activity_names):
        raise ConfigError(
            f"require_activity {config.require_activity!r} is not an activity of {defn.name!r}"
        )
    instances = _select_instances(log, config)
    vectors = [_checked_instance(schema, v) for v in _encode(schema, instances)]
    if config.top_k > schema.arity:
        raise ConfigError(
            f"top_k must be at most the {schema.arity} features, got {config.top_k}"
        )
    case_ids = list(instances.case_ids)

    def scored(
        mode_config: ExplainConfig,
        sampler: Callable[[np.ndarray], np.ndarray],
        vector: np.ndarray,
        case_id: str,
    ) -> tuple[Explanation, float]:
        """One explanation and its conformance rate; the sample set is freed
        on return."""
        explanation, samples = _explain(model, sampler(vector), mode_config, case_id)
        return explanation, conformance_rate(defn, samples, schema)

    grid: list[list[InstanceRun]] = [[] for _ in case_ids]
    for seed in config.seeds:
        # Each mode's sampler draws its variates once, for every instance.
        vanilla_config = config.explain_config(VANILLA, seed)
        aware_config = config.explain_config(PROCESS_AWARE, seed)
        vanilla_sampler = _sampler(defn, schema, model.scaler, vanilla_config)
        aware_sampler = _sampler(defn, schema, model.scaler, aware_config)
        for runs, vector, case_id in zip(grid, vectors, case_ids):
            vanilla, vanilla_rate = scored(vanilla_config, vanilla_sampler, vector, case_id)
            aware, aware_rate = scored(aware_config, aware_sampler, vector, case_id)
            runs.append(
                InstanceRun(
                    case_id=case_id,
                    seed=seed,
                    vanilla=vanilla,
                    process_aware=aware,
                    vanilla_conformance=vanilla_rate,
                    process_aware_conformance=aware_rate,
                    top_k_overlap=top_k_overlap(vanilla, aware, config.top_k),
                )
            )
    records = [run for runs in grid for run in runs]
    aggregates = compute_aggregates(records, schema.names)
    report_config = dict(config.to_json_dict())
    report_config["selected_cases"] = case_ids
    return ExperimentReport(
        config=report_config,
        records=tuple(records),
        aggregates=aggregates,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_to_json_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.config,
        "aggregates": report.aggregates,
        "records": [
            {
                "case_id": r.case_id,
                "seed": r.seed,
                "vanilla": r.vanilla.to_json_dict(),
                "process_aware": r.process_aware.to_json_dict(),
                "vanilla_conformance": r.vanilla_conformance,
                "process_aware_conformance": r.process_aware_conformance,
                "top_k_overlap": r.top_k_overlap,
            }
            for r in report.records
        ],
    }


def write_report_json(report: ExperimentReport, path: str | Path) -> None:
    """Write ``report`` as strict JSON. A non-finite number raises
    ``ValueError`` before the file is opened."""
    _write_json(report_to_json_dict(report), path)


def write_figdata_csv(report: ExperimentReport, path: str | Path) -> None:
    """Plot-ready bar data: one row per (feature, mode), ordered by rank."""
    stats = report.aggregates["feature_stats"]
    ranks = report.aggregates["rank_by_mean_abs_weight"]
    rows: list[tuple[str, str, float, int]] = []
    for mode in sorted(stats):
        for feature in sorted(stats[mode], key=lambda n: ranks[mode][n]):
            rows.append(
                (
                    feature,
                    mode,
                    stats[mode][feature]["mean_abs_weight"],
                    ranks[mode][feature],
                )
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "mode", "mean_abs_weight", "rank"])
        writer.writerows(rows)
