"""Conformance rates, explanation overlap, and the comparison experiment."""

import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from procex.errors import (
    ConfigError,
    EmptySamplesError,
    NoMatchingInstancesError,
    SchemaMismatchError,
)
from procex.evaluation import (
    ComparisonConfig,
    ExperimentReport,
    InstanceRun,
    compute_aggregates,
    conformance_rate,
    report_to_json_dict,
    run_comparison,
    top_k_overlap,
    write_figdata_csv,
    write_report_json,
)
from procex.explainer import (
    PROCESS_AWARE,
    PROPAGATE,
    REJECT,
    VANILLA,
    ExplainConfig,
    explain,
    explain_detailed,
)
from procex.features import build_schema, encode_trace
from procex.predictor import train
from procex.process_model import parse_process
from procex.simulation import EventLog, SimulationConfig, generate_log

from procgen import CHAIN, NO_ATTRIBUTES, REJOINING, random_process

SKILLED_VEC = np.array([580.0, 300000.0, 1.0, 0.0, 1.0])

SMALL = ComparisonConfig(
    n_instances=4,
    seeds=(0, 1),
    select_label="NEGATIVE",
    require_activity="skilled_agent_review",
    n_samples=300,
)


def _refuse_generators(monkeypatch) -> None:
    """Fail the test if any random generator is started."""
    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was started")

    monkeypatch.setattr(np.random, "default_rng", refuse)


@pytest.fixture(scope="module")
def report(loan, loan_model, model_log):
    return run_comparison(loan, loan_model, model_log, SMALL)


class TestConformanceRate:
    def test_conformant_matrix_scores_one(self, loan, loan_schema):
        matrix = np.array(
            [[580.0, 300000.0, 1.0, 0.0, 1.0], [700.0, 50000.0, 0.0, 1.0, 1.0]]
        )
        assert conformance_rate(loan, matrix, loan_schema) == 1.0

    def test_mixed_matrix(self, loan, loan_schema):
        matrix = np.array(
            [[580.0, 300000.0, 1.0, 0.0, 1.0], [580.0, 300000.0, 0.0, 1.0, 1.0]]
        )
        assert conformance_rate(loan, matrix, loan_schema) == 0.5

    def test_single_vector_is_refused(self, loan, loan_schema):
        with pytest.raises(SchemaMismatchError, match=r"shape \(5,\)"):
            conformance_rate(loan, SKILLED_VEC, loan_schema)
        assert conformance_rate(loan, np.array([SKILLED_VEC]), loan_schema) == 1.0

    def test_perturbation_set_skips_the_instance_row(self, loan, loan_model):
        _, pert = explain_detailed(
            loan_model,
            loan,
            SKILLED_VEC,
            ExplainConfig(mode=VANILLA, n_samples=200, flip_p=1.0, spread=0.0),
        )
        # Every perturbed row flips all indicators and is non-conformant; row
        # 0 (the conformant instance) must not dilute the rate.
        assert conformance_rate(loan, pert) == 0.0

    def test_propagate_set_scores_one(self, loan, loan_model):
        _, pert = explain_detailed(
            loan_model,
            loan,
            SKILLED_VEC,
            ExplainConfig(mode=PROCESS_AWARE, strategy=PROPAGATE, n_samples=200),
        )
        assert conformance_rate(loan, pert) == 1.0

    def test_zero_rows_raise(self, loan, loan_schema):
        with pytest.raises(EmptySamplesError):
            conformance_rate(loan, np.empty((0, 5)), loan_schema)

    def test_indicator_cells_are_rounded(self, loan, loan_schema):
        # skilled_agent_review, standard_review, submit_application round
        # to 1, 0, 1 (a conformant skilled row) and to 0, 0, 1 (not).
        matrix = np.array(
            [[580.0, 300000.0, 0.9, 0.2, 1.4], [580.0, 300000.0, 0.5, -0.4, 0.6]]
        )
        assert conformance_rate(loan, matrix, loan_schema) == 0.5

    def test_non_finite_indicator_names_the_column(self, loan, loan_schema):
        matrix = np.array([SKILLED_VEC, SKILLED_VEC])
        matrix[1, loan_schema.index("standard_review")] = np.nan
        with pytest.raises(SchemaMismatchError, match="'standard_review'"):
            conformance_rate(loan, matrix, loan_schema)

    def test_wrong_width_raises(self, loan, loan_schema):
        with pytest.raises(SchemaMismatchError, match="arity"):
            conformance_rate(loan, np.zeros((3, 4)), loan_schema)

    def test_indicators_of_another_process_raise(self, loan, loan_schema):
        other = parse_process(
            "process other\nattr credit_score: numeric in [300, 850]\n"
            "attr loan_amount: numeric in [1000, 500000]\nstart -> a\n"
            "activity a -> b\nactivity b -> c\nactivity c -> fin\n"
            "end fin label POSITIVE\n"
        )
        with pytest.raises(SchemaMismatchError, match="model was trained for schema"):
            conformance_rate(other, np.array([SKILLED_VEC]), loan_schema)


class TestTopKOverlap:
    def test_identical_explanations_overlap_fully(self, loan, loan_model):
        cfg = ExplainConfig(mode=VANILLA, n_samples=200, seed=3)
        e = explain(loan_model, loan, SKILLED_VEC, cfg)
        assert top_k_overlap(e, e, 2) == 1.0
        assert top_k_overlap(e, e, 5) == 1.0

    def test_full_k_always_overlaps(self, loan, loan_model):
        a = explain(loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, n_samples=200))
        b = explain(
            loan_model,
            loan,
            SKILLED_VEC,
            ExplainConfig(mode=PROCESS_AWARE, strategy=PROPAGATE, n_samples=200),
        )
        assert top_k_overlap(a, b, 5) == 1.0

    def test_collapse_and_vanilla_disagree_at_the_top(self, loan, loan_model):
        a = explain(loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, n_samples=200))
        b = explain(
            loan_model,
            loan,
            SKILLED_VEC,
            ExplainConfig(
                mode=PROCESS_AWARE,
                strategy=PROPAGATE,
                collapse_derived=True,
                n_samples=200,
            ),
        )
        # Vanilla puts the route indicators first; collapsed explanations
        # only weight the numeric attributes.
        assert top_k_overlap(a, b, 2) == 0.0

    def test_k_bounds_are_checked(self, loan, loan_model):
        e = explain(loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, n_samples=200))
        with pytest.raises(ConfigError):
            top_k_overlap(e, e, 0)
        with pytest.raises(ConfigError):
            top_k_overlap(e, e, 6)

    @pytest.mark.parametrize("k,message", [
        (2.0, "k must be an integer, got 2.0"),
        (True, "k must be an integer, got True"),
        (0, "k must be positive, got 0"),
        (6, "k must be at most the 5 features, got 6"),
    ], ids=["float", "bool", "zero", "above-the-features"])
    def test_k_is_judged_as_top_k_is(self, loan, loan_model, k, message):
        e = explain(loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, n_samples=200))
        with pytest.raises(ConfigError) as got:
            top_k_overlap(e, e, k)
        assert str(got.value) == message

    def test_different_feature_sets_are_refused(self, loan, loan_model):
        e = explain(loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, n_samples=200))
        clone = type(e)(**{**e.__dict__, "attributions": e.attributions[:-1]})
        with pytest.raises(SchemaMismatchError):
            top_k_overlap(e, clone, 2)


class TestRunComparison:
    def test_record_grid_is_instance_major(self, report):
        assert len(report.records) == 8
        cases = [r.case_id for r in report.records]
        assert cases == sorted(cases, key=cases.index)
        assert [r.seed for r in report.records[:2]] == [0, 1]
        assert report.config["selected_cases"] == sorted(
            set(cases), key=cases.index
        )

    def test_selected_instances_match_the_filter(self, report, model_log):
        by_id = {t.case_id: t for t in model_log.traces}
        for case_id in report.config["selected_cases"]:
            trace = by_id[case_id]
            assert trace.label == "NEGATIVE"
            assert "skilled_agent_review" in trace.activities

    def test_aware_conformance_is_perfect(self, report):
        assert all(r.process_aware_conformance == 1.0 for r in report.records)
        assert report.aggregates["mean_conformance"][PROCESS_AWARE] == 1.0

    def test_vanilla_conformance_is_poor(self, report):
        assert report.aggregates["mean_conformance"][VANILLA] < 0.7

    def test_mean_fidelity_is_reported(self, report):
        assert 0.0 <= report.aggregates["mean_fidelity"][PROCESS_AWARE] <= 1.0
        assert report.aggregates["mean_fidelity"][VANILLA] > 0.0

    def test_aggregates_are_recomputable(self, report, loan_schema):
        again = compute_aggregates(report.records, loan_schema.names)
        assert again == report.aggregates

    def test_aggregates_over_no_runs_raise(self, loan_schema):
        with pytest.raises(EmptySamplesError, match="zero runs"):
            compute_aggregates([], loan_schema.names)

    def test_rank_table_is_a_permutation(self, report, loan_schema):
        for mode in (VANILLA, PROCESS_AWARE):
            ranks = report.aggregates["rank_by_mean_abs_weight"][mode]
            assert sorted(ranks.values()) == [1, 2, 3, 4, 5]
            assert set(ranks) == set(loan_schema.names)

    def test_top_fractions_are_probabilities(self, report):
        for table in (report.aggregates["top1_fraction"], report.aggregates["top2_fraction"]):
            for mode_stats in table.values():
                for value in mode_stats.values():
                    assert 0.0 <= value <= 1.0
        assert sum(report.aggregates["top1_fraction"][VANILLA].values()) == pytest.approx(1.0)

    def test_deterministic(self, loan, loan_model, model_log, report):
        again = run_comparison(loan, loan_model, model_log, SMALL)
        assert report_to_json_dict(again) == report_to_json_dict(report)

    def test_fewer_matches_than_requested_is_fine(self, loan, loan_model, model_log):
        config = ComparisonConfig(
            n_instances=10 ** 6,
            seeds=(0,),
            select_label="NEGATIVE",
            require_activity="skilled_agent_review",
            n_samples=50,
        )
        result = run_comparison(loan, loan_model, model_log, config)
        assert 0 < len(result.config["selected_cases"]) < 10 ** 6

    def test_no_matching_instances(self, loan, loan_model, model_log):
        positive = [i for i, label in enumerate(model_log.labels) if label == "POSITIVE"]
        config = ComparisonConfig(n_samples=50)  # selects NEGATIVE cases
        with pytest.raises(NoMatchingInstancesError):
            run_comparison(loan, loan_model, model_log.take(positive), config)

    def test_undeclared_activity_is_refused_before_selection(self, loan, loan_model, model_log):
        """An empty log would raise ``NoMatchingInstancesError`` in selection."""
        config = ComparisonConfig(require_activity="escalate", n_samples=50)
        with pytest.raises(ConfigError) as exc:
            run_comparison(loan, loan_model, model_log.take([]), config)
        assert str(exc.value) == (
            "require_activity 'escalate' is not an activity of 'loan_approval'"
        )

    def test_non_finite_attribute_fails_before_any_draw(
        self, loan, loan_model, model_log, monkeypatch
    ):
        selected = [
            t.case_id for t in model_log.traces
            if t.label == SMALL.select_label and SMALL.require_activity in t.activities
        ][: SMALL.n_instances]
        # The last selected trace gets a NaN credit score.
        values = model_log.values.copy()
        values[model_log.case_ids.index(selected[-1]), 0] = float("nan")
        _refuse_generators(monkeypatch)
        with pytest.raises(SchemaMismatchError, match="credit_score"):
            run_comparison(loan, loan_model, replace(model_log, values=values), SMALL)

    def test_top_k_above_the_arity_fails_before_any_draw(
        self, loan, loan_model, model_log, monkeypatch
    ):
        _refuse_generators(monkeypatch)
        with pytest.raises(ConfigError, match="top_k must be at most the 5 features, got 6"):
            run_comparison(loan, loan_model, model_log, replace(SMALL, top_k=6))

    def test_definition_of_another_schema_is_refused(
        self, loan_model, model_log, monkeypatch
    ):
        _refuse_generators(monkeypatch)
        with pytest.raises(SchemaMismatchError, match="model was trained for schema"):
            run_comparison(CHAIN, loan_model, model_log, SMALL)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ComparisonConfig(n_instances=0)
        with pytest.raises(ConfigError):
            ComparisonConfig(seeds=())
        # Every seed is checked, not only the first.
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            ComparisonConfig(seeds=(0, -1))
        # The explainer settings are checked when the config is built.
        with pytest.raises(ConfigError, match="ridge"):
            ComparisonConfig(ridge=float("nan"))
        with pytest.raises(ConfigError, match="spread"):
            ComparisonConfig(spread=-1.0)
        with pytest.raises(ConfigError, match="select_label 'negative' is neither"):
            ComparisonConfig(select_label="negative")

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_is_refused(self, top_k):
        with pytest.raises(ConfigError, match=f"top_k must be positive, got {top_k}"):
            ComparisonConfig(top_k=top_k)


class TestReportFiles:
    def test_report_json_round_trips(self, tmp_path, report):
        path = tmp_path / "report.json"
        write_report_json(report, path)
        data = json.loads(path.read_text())
        assert data == report_to_json_dict(report)
        assert list(data) == ["config", "aggregates", "records"]

    def test_report_bytes_are_stable(self, tmp_path, report):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(report, a)
        write_report_json(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_report_is_refused_and_keeps_the_old_file(self, tmp_path, report):
        path = tmp_path / "report.json"
        write_report_json(report, path)
        before = path.read_bytes()
        broken = replace(report, aggregates={**report.aggregates, "mean_top_k_overlap": math.nan})
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report_json(broken, path)
        assert path.read_bytes() == before

    def test_figdata_layout(self, tmp_path, report):
        path = tmp_path / "fig.csv"
        write_figdata_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "mode", "mean_abs_weight", "rank"]
        assert len(rows) == 1 + 2 * 5
        modes = [row[1] for row in rows[1:]]
        assert modes == [PROCESS_AWARE] * 5 + [VANILLA] * 5
        for offset in (1, 6):
            assert [int(row[3]) for row in rows[offset : offset + 5]] == [1, 2, 3, 4, 5]

    def test_figdata_bytes_are_stable(self, tmp_path, report):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_figdata_csv(report, a)
        write_figdata_csv(report, b)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# run_comparison against the instance-by-instance loop
# ---------------------------------------------------------------------------

def comparison_oracle(defn, model, log, config: ComparisonConfig) -> ExperimentReport:
    """``run_comparison`` as a loop over instances, seeds and modes: each
    instance is encoded alone, each explanation starts its own generator
    and draws its own variates, and the public, judged
    :func:`conformance_rate` scores the perturbations that ``run_comparison``
    hands straight to the oracle."""
    schema = model.schema
    instances = [
        t for t in log.traces
        if t.label == config.select_label
        and (config.require_activity is None or config.require_activity in t.activities)
    ][: config.n_instances]
    records = []
    for trace in instances:
        vector = encode_trace(schema, trace)
        for seed in config.seeds:
            vanilla, vanilla_set = explain_detailed(
                model, defn, vector, config.explain_config(VANILLA, seed), trace.case_id
            )
            aware, aware_set = explain_detailed(
                model, defn, vector, config.explain_config(PROCESS_AWARE, seed), trace.case_id
            )
            records.append(
                InstanceRun(
                    case_id=trace.case_id,
                    seed=seed,
                    vanilla=vanilla,
                    process_aware=aware,
                    vanilla_conformance=conformance_rate(defn, vanilla_set, schema),
                    process_aware_conformance=conformance_rate(defn, aware_set, schema),
                    top_k_overlap=top_k_overlap(vanilla, aware, config.top_k),
                )
            )
    report_config = config.to_json_dict()
    report_config["selected_cases"] = [t.case_id for t in instances]
    return ExperimentReport(
        report_config, tuple(records), compute_aggregates(records, schema.names)
    )


COMPARISONS = {
    "propagate": dict(strategy=PROPAGATE),
    "reject": dict(strategy=REJECT),
    "collapse": dict(strategy=PROPAGATE, collapse_derived=True),
}

GENERATED = {f"random-{i}": i for i in range(20)} | {
    "rejoining": REJOINING,
    "chain": CHAIN,
    "no_attributes": NO_ATTRIBUTES,
}


def _assert_matches_oracle(defn, model, log, config) -> None:
    """The two reports as written to disk are the same bytes."""
    expected = report_to_json_dict(comparison_oracle(defn, model, log, config))
    actual = report_to_json_dict(run_comparison(defn, model, log, config))
    assert json.dumps(actual, indent=2) == json.dumps(expected, indent=2)


@pytest.mark.parametrize("variant", sorted(COMPARISONS))
def test_loan_comparison_equals_the_loop(variant, loan, loan_model, model_log):
    config = ComparisonConfig(
        n_instances=6, seeds=(0, 1, 2), require_activity="skilled_agent_review",
        n_samples=300, **COMPARISONS[variant],
    )
    _assert_matches_oracle(loan, loan_model, model_log, config)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_comparison_equals_the_loop(name):
    defn = GENERATED[name]
    if isinstance(defn, int):
        defn = random_process(np.random.default_rng(6100 + defn), defn)
    schema = build_schema(defn)
    log = generate_log(defn, SimulationConfig(n_cases=300, seed=7, label_noise=0.2))
    model = train(log, schema)
    for settings in COMPARISONS.values():
        # A low flip rate keeps enough reject candidates conformant.
        config = ComparisonConfig(
            n_instances=5, seeds=(0, 1, 2), select_label=log.traces[0].label,
            n_samples=300, flip_p=0.02, top_k=min(2, schema.arity), **settings,
        )
        _assert_matches_oracle(defn, model, log, config)


@pytest.mark.parametrize("variant", sorted(COMPARISONS))
def test_a_record_does_not_depend_on_the_other_instances(
    variant, loan, loan_model, model_log
):
    config = ComparisonConfig(
        n_instances=20, seeds=(0, 1, 2), require_activity="skilled_agent_review",
        n_samples=300, **COMPARISONS[variant],
    )
    report = run_comparison(loan, loan_model, model_log, config)
    records = report_to_json_dict(report)["records"]
    assert len(records) == 60
    position = {t.case_id: i for i, t in enumerate(model_log.traces)}
    for j in (0, 7, 19):
        # A log that starts at the j-th selected case selects it first.
        start = position[report.config["selected_cases"][j]]
        alone = run_comparison(
            loan, loan_model,
            EventLog.from_records(model_log.process_name, model_log.traces[start:]),
            replace(config, n_instances=1),
        )
        assert json.dumps(report_to_json_dict(alone)["records"]) == json.dumps(
            records[3 * j : 3 * j + 3]
        )


def test_comparison_does_not_keep_sample_sets(loan, loan_model, model_log):
    def peak(n_instances: int) -> int:
        config = ComparisonConfig(
            n_instances=n_instances, seeds=(0,), require_activity="skilled_agent_review",
            n_samples=2000,
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_comparison(loan, loan_model, model_log, config)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    two, twenty = peak(2), peak(20)
    # Each sample set holds 2001 rows of 5 features, predictions and kernel
    # weights, about 0.11 MB: keeping all 40 would add 4 MB to a peak of
    # about 0.5 MB.
    assert twenty < 1.5 * two, (two, twenty)
