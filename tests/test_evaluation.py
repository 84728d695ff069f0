"""Conformance rates, explanation overlap, and the comparison experiment."""

import csv
import json

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
    VANILLA,
    ExplainConfig,
    explain,
    explain_detailed,
)
from procex.process_model import parse_process

SKILLED_VEC = np.array([580.0, 300000.0, 1.0, 0.0, 1.0])

SMALL = ComparisonConfig(
    n_instances=4,
    seeds=(0, 1),
    select_label="NEGATIVE",
    require_activity="skilled_agent_review",
    n_samples=300,
)


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

    def test_single_vector_is_accepted(self, loan, loan_schema):
        assert conformance_rate(loan, SKILLED_VEC, loan_schema) == 1.0

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
        with pytest.raises(SchemaMismatchError, match="indicator keys"):
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
        config = ComparisonConfig(require_activity="escalate", n_samples=50)
        with pytest.raises(NoMatchingInstancesError):
            run_comparison(loan, loan_model, model_log, config)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ComparisonConfig(n_instances=0)
        with pytest.raises(ConfigError):
            ComparisonConfig(seeds=())
        # The explainer settings are checked when the config is built.
        with pytest.raises(ConfigError, match="ridge"):
            ComparisonConfig(ridge=float("nan"))
        with pytest.raises(ConfigError, match="spread"):
            ComparisonConfig(spread=-1.0)


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
