"""Explanation-quality metrics and the vanilla-versus-process-aware experiment.

``run_comparison`` packages the whole contrast: pick instances from a log,
explain each one with both sampling modes across several seeds, measure
conformance of the perturbation neighborhoods, surrogate fidelity, and
attribution-rank agreement, then aggregate. The report serializes to JSON and
to a plot-ready CSV of mean absolute weight per feature per mode.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptySamplesError,
    NoMatchingInstancesError,
    SchemaMismatchError,
)
from .explainer import (
    PROCESS_AWARE,
    PROPAGATE,
    VANILLA,
    ExplainConfig,
    Explanation,
    PerturbationSet,
    explain_detailed,
)
from .features import build_schema, encode_trace, split_columns
from .predictor import LogisticModel
from .process_model import NEGATIVE, ProcessDefinition, conformant_rows
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

    Accepts a raw sample matrix (every row is checked) or a
    :class:`PerturbationSet`, in which case row 0 is excluded because it is
    the instance itself, not a perturbation. ``schema`` defaults to the
    definition's.
    """
    if isinstance(samples, PerturbationSet):
        matrix = samples.samples[1:]
    else:
        matrix = np.asarray(samples, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
    if matrix.shape[0] == 0:
        raise EmptySamplesError("conformance rate over zero samples is undefined")
    if schema is None:
        schema = build_schema(defn)
    columns, indicators = split_columns(schema, matrix, defn.activity_names)
    hits = int(np.count_nonzero(conformant_rows(defn, columns, indicators)))
    return hits / matrix.shape[0]


def top_k_overlap(e1: Explanation, e2: Explanation, k: int) -> float:
    """|top-k(e1) ∩ top-k(e2)| / k under the |weight| ranking."""
    names1 = {name for name, _ in e1.attributions}
    names2 = {name for name, _ in e2.attributions}
    if names1 != names2:
        raise SchemaMismatchError(
            "explanations cover different feature sets; cannot compare"
        )
    if not 1 <= k <= len(names1):
        raise ConfigError(f"k must lie in [1, {len(names1)}], got {k}")
    return len(set(e1.top_features(k)) & set(e2.top_features(k))) / k


@dataclass(frozen=True)
class ComparisonConfig:
    """Instance selection plus the explainer settings shared by both modes."""

    n_instances: int = 20
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    select_label: str = NEGATIVE
    require_activity: str | None = None
    top_k: int = 2
    n_samples: int = 5000
    spread: float = 1.0
    flip_p: float = 0.5
    kernel_width: float | None = None
    ridge: float = 1.0
    strategy: str = PROPAGATE
    collapse_derived: bool = False

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise ConfigError(f"n_instances must be positive, got {self.n_instances}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        self.explain_config(PROCESS_AWARE, self.seeds[0])  # checks the shared settings

    def to_json_dict(self) -> dict:
        return {
            "n_instances": self.n_instances,
            "seeds": list(self.seeds),
            "select_label": self.select_label,
            "require_activity": self.require_activity,
            "top_k": self.top_k,
            "n_samples": self.n_samples,
            "spread": self.spread,
            "flip_p": self.flip_p,
            "kernel_width": self.kernel_width,
            "ridge": self.ridge,
            "strategy": self.strategy,
            "collapse_derived": self.collapse_derived,
        }

    def explain_config(self, mode: str, seed: int) -> ExplainConfig:
        return ExplainConfig(
            mode=mode,
            strategy=self.strategy,
            n_samples=self.n_samples,
            spread=self.spread,
            flip_p=self.flip_p,
            kernel_width=self.kernel_width,
            ridge=self.ridge,
            seed=seed,
            collapse_derived=self.collapse_derived if mode == PROCESS_AWARE else False,
        )


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
    aggregates: dict = field(default_factory=dict)


def _select_instances(
    log: EventLog, config: ComparisonConfig
) -> list:
    selected = []
    for trace in log.traces:
        if trace.label != config.select_label:
            continue
        if (
            config.require_activity is not None
            and config.require_activity not in trace.activities
        ):
            continue
        selected.append(trace)
        if len(selected) == config.n_instances:
            break
    if not selected:
        raise NoMatchingInstancesError(
            f"no trace with label {config.select_label!r}"
            + (
                f" and activity {config.require_activity!r}"
                if config.require_activity
                else ""
            )
        )
    return selected


def compute_aggregates(
    records: Sequence[InstanceRun], feature_names: Sequence[str]
) -> dict:
    """Aggregate per-run metrics; pure so reports can be re-derived."""
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
    ``NoMatchingInstancesError``). Runs are ordered instance-major,
    seed-minor, and the whole report is deterministic.
    """
    schema = model.schema
    instances = _select_instances(log, config)
    records: list[InstanceRun] = []
    for trace in instances:
        vector = encode_trace(schema, trace)
        for seed in config.seeds:
            vanilla_expl, vanilla_samples = explain_detailed(
                model, defn, vector,
                config.explain_config(VANILLA, seed),
                instance_id=trace.case_id,
            )
            aware_expl, aware_samples = explain_detailed(
                model, defn, vector,
                config.explain_config(PROCESS_AWARE, seed),
                instance_id=trace.case_id,
            )
            records.append(
                InstanceRun(
                    case_id=trace.case_id,
                    seed=seed,
                    vanilla=vanilla_expl,
                    process_aware=aware_expl,
                    vanilla_conformance=conformance_rate(
                        defn, vanilla_samples, schema
                    ),
                    process_aware_conformance=conformance_rate(
                        defn, aware_samples, schema
                    ),
                    top_k_overlap=top_k_overlap(
                        vanilla_expl, aware_expl, config.top_k
                    ),
                )
            )
    aggregates = compute_aggregates(records, schema.names)
    report_config = dict(config.to_json_dict())
    report_config["selected_cases"] = [t.case_id for t in instances]
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_to_json_dict(report), fh, indent=2)
        fh.write("\n")


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
