"""Logistic predictor: optimization, metrics, and model files."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from procex.errors import (
    ConfigError,
    DivergedError,
    EmptyLogError,
    SchemaMismatchError,
    SingleClassLogError,
)
from procex.features import build_schema, encode_log
from procex.predictor import (
    TrainConfig,
    _average_ranks,
    evaluate,
    labels_to_targets,
    load_model,
    loss_and_gradient,
    model_to_json_dict,
    predict_proba,
    save_model,
    split_log,
    train,
)
from procex.process_model import NEGATIVE, POSITIVE, parse_process
from procex.simulation import EventLog, Trace

TINY = parse_process(
    "process tiny\nattr a: numeric in [-2, 2]\nstart -> fin\nend fin label POSITIVE\n"
)
TINY_SCHEMA = build_schema(TINY)


def tiny_log(points):
    traces = tuple(
        Trace(f"t{i}", {"a": float(a)}, (), label)
        for i, (a, label) in enumerate(points)
    )
    return EventLog("tiny", traces)


SEPARABLE = tiny_log(
    [(-1.0, POSITIVE), (-0.5, POSITIVE), (0.5, NEGATIVE), (1.0, NEGATIVE)]
)


class TestTraining:
    def test_separable_data_is_fit_perfectly(self):
        model = train(SEPARABLE, TINY_SCHEMA)
        assert model.weights[0] > 0
        metrics = evaluate(model, SEPARABLE)
        assert metrics.accuracy == 1.0
        assert metrics.auc == 1.0

    def test_heavy_regularization_shrinks_weights(self):
        config = TrainConfig(l2=1e4)
        model = train(SEPARABLE, TINY_SCHEMA, config)
        assert abs(model.weights[0]) < 1e-3
        # With the weight gone, the unpenalized bias settles at the base rate.
        probs = predict_proba(model, encode_log(TINY_SCHEMA, SEPARABLE)[0])
        np.testing.assert_allclose(probs, 0.5, atol=0.01)

    def test_loss_is_monotone_under_default_rate(self, model_log, loan_schema):
        model = train(model_log, loan_schema, track_loss=True)
        history = np.array(model.train_meta["loss_history"])
        assert np.all(np.diff(history) <= 1e-12)
        assert model.train_meta["final_loss"] == history[-1]

    def test_training_is_deterministic(self, model_log, loan_schema):
        a = train(model_log, loan_schema)
        b = train(model_log, loan_schema)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.train_meta == b.train_meta

    def test_convergence_metadata(self):
        model = train(SEPARABLE, TINY_SCHEMA, TrainConfig(epochs=5))
        assert model.train_meta["epochs_run"] == 5
        assert model.train_meta["converged"] is False
        converged = train(SEPARABLE, TINY_SCHEMA, TrainConfig(l2=1.0, tol=1e-4))
        assert converged.train_meta["converged"] is True
        assert converged.train_meta["epochs_run"] < 2000

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_loss_raises(self):
        # Log files refuse such values; an in-process log can still hold one.
        log = tiny_log([(-1.0, POSITIVE), (np.inf, NEGATIVE)])
        with pytest.raises(DivergedError, match="non-finite"):
            train(log, TINY_SCHEMA)

    def test_fit_is_optimal_at_the_saved_weights(self, model_log, loan_schema):
        config = TrainConfig()
        model = train(model_log, loan_schema, config)
        assert model.train_meta["converged"] is True
        matrix, labels = encode_log(loan_schema, model_log)
        loss, grad_w, grad_b = loss_and_gradient(
            model.weights, model.bias, model.scaler.apply(matrix),
            labels_to_targets(labels), config.l2,
        )
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) < config.tol
        assert loss == model.train_meta["final_loss"]

    def test_zero_penalty_with_singular_hessian(self, model_log, loan_schema):
        # The constant submit_application column and the two complementary
        # review columns leave the unpenalized Hessian exactly singular.
        model = train(model_log, loan_schema, TrainConfig(l2=0.0))
        assert model.train_meta["converged"] is True
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert model.weights[loan_schema.index("submit_application")] == 0.0

    def test_zero_penalty_on_separable_data(self):
        # No finite minimum exists; the fit stops with finite weights.
        model = train(SEPARABLE, TINY_SCHEMA, TrainConfig(l2=0.0))
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert math.isfinite(model.train_meta["final_loss"])
        assert evaluate(model, SEPARABLE).accuracy == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"l2": -1.0}, {"l2": math.nan}, {"l2": math.inf},
         {"tol": -1e-6}, {"tol": math.nan}, {"epochs": -1}],
    )
    def test_bad_settings_are_refused(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_single_class_log_raises(self):
        log = tiny_log([(0.1, POSITIVE), (0.2, POSITIVE)])
        with pytest.raises(SingleClassLogError):
            train(log, TINY_SCHEMA)

    def test_empty_log_raises(self):
        with pytest.raises(EmptyLogError):
            train(EventLog("tiny", ()), TINY_SCHEMA)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        design = rng.normal(size=(8, 3))
        targets = (rng.random(8) < 0.5).astype(float)
        weights = rng.normal(size=3)
        bias = float(rng.normal())
        l2 = 0.01
        _, grad_w, grad_b = loss_and_gradient(weights, bias, design, targets, l2)

        h = 1e-6
        numeric = np.empty(3)
        for j in range(3):
            bumped = weights.copy()
            bumped[j] += h
            up, _, _ = loss_and_gradient(bumped, bias, design, targets, l2)
            bumped[j] -= 2 * h
            down, _, _ = loss_and_gradient(bumped, bias, design, targets, l2)
            numeric[j] = (up - down) / (2 * h)
        np.testing.assert_allclose(grad_w, numeric, rtol=1e-5, atol=1e-8)

        up, _, _ = loss_and_gradient(weights, bias + h, design, targets, l2)
        down, _, _ = loss_and_gradient(weights, bias - h, design, targets, l2)
        assert abs(grad_b - (up - down) / (2 * h)) < 1e-6

    def test_penalty_excludes_bias(self):
        design = np.zeros((4, 2))
        targets = np.array([0.0, 0.0, 1.0, 1.0])
        loss_small, _, _ = loss_and_gradient(np.zeros(2), 5.0, design, targets, 0.0)
        loss_big, _, _ = loss_and_gradient(np.zeros(2), 5.0, design, targets, 100.0)
        assert loss_small == loss_big

    def test_zero_loss_at_origin_is_log2(self):
        design = np.zeros((4, 2))
        targets = np.array([0.0, 1.0, 0.0, 1.0])
        loss, _, _ = loss_and_gradient(np.zeros(2), 0.0, design, targets, 0.0)
        assert abs(loss - np.log(2.0)) < 1e-12


class TestPrediction:
    def test_targets_encoding(self):
        np.testing.assert_array_equal(
            labels_to_targets((POSITIVE, NEGATIVE, NEGATIVE)), [0.0, 1.0, 1.0]
        )

    def test_single_vector_returns_float(self, loan_model, loan_schema, model_log):
        matrix, _ = encode_log(loan_schema, model_log)
        p = predict_proba(loan_model, matrix[0])
        assert isinstance(p, float)
        assert 0.0 < p < 1.0

    def test_matrix_returns_array(self, loan_model, loan_schema, model_log):
        matrix, _ = encode_log(loan_schema, model_log)
        probs = predict_proba(loan_model, matrix[:10])
        assert probs.shape == (10,)

    def test_wrong_arity_raises(self, loan_model):
        with pytest.raises(SchemaMismatchError):
            predict_proba(loan_model, np.zeros(3))

    def test_skilled_reject_case_scores_high(self, loan_model, loan_schema):
        skilled = np.array([580.0, 300000.0, 1.0, 0.0, 1.0])
        standard = np.array([700.0, 50000.0, 0.0, 1.0, 1.0])
        assert predict_proba(loan_model, skilled) > 0.5
        assert predict_proba(loan_model, standard) < 0.5


class TestEvaluate:
    def test_constant_model_has_half_auc(self):
        balanced = [(-1.0, POSITIVE), (1.0, NEGATIVE)]
        unbalanced = [
            (-1.5, POSITIVE), (-0.5, NEGATIVE), (0.0, POSITIVE), (0.5, POSITIVE),
            (1.0, NEGATIVE), (1.2, POSITIVE), (1.5, POSITIVE), (2.0, NEGATIVE),
        ]
        for points in (balanced, unbalanced):
            log = tiny_log(points)
            model = train(log, TINY_SCHEMA, TrainConfig(epochs=0))
            assert model.weights[0] == 0.0
            metrics = evaluate(model, log)
            assert metrics.auc == 0.5
            # At exactly 0.5 every case is called NEGATIVE.
            n_negative = sum(label == NEGATIVE for _, label in points)
            assert metrics.tp == n_negative and metrics.fp == len(points) - n_negative

    def test_single_class_auc_is_nan(self):
        model = train(SEPARABLE, TINY_SCHEMA, TrainConfig(epochs=1))
        metrics = evaluate(model, tiny_log([(0.0, POSITIVE), (0.1, POSITIVE)]))
        assert np.isnan(metrics.auc)
        assert metrics.to_json_dict()["auc"] is None

    def test_confusion_counts_sum_to_n(self, loan_model, small_log):
        m = evaluate(loan_model, small_log)
        assert m.tp + m.fp + m.tn + m.fn == m.n == len(small_log)


class TestAverageRanks:
    """The AUC's ranks against ``scipy.stats.rankdata``, bit for bit."""

    @staticmethod
    def check(values):
        from scipy.stats import rankdata

        got = _average_ranks(values)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, rankdata(values))

    @pytest.mark.parametrize("seed", range(10))
    def test_untied(self, seed):
        values = np.random.default_rng(seed).normal(size=500)
        assert len(np.unique(values)) == len(values)
        self.check(values)

    @pytest.mark.parametrize("seed", range(10))
    def test_heavy_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        values = np.round(rng.normal(size=int(rng.integers(50, 600))), 1)
        assert len(np.unique(values)) < len(values)
        self.check(values)

    def test_all_equal(self):
        self.check(np.full(37, 0.5))

    def test_single_value(self):
        self.check(np.array([0.25]))


class TestSplit:
    def test_sizes_and_partition(self, small_log):
        train_part, test_part = split_log(small_log, 0.2, seed=42)
        assert len(test_part) == 80 and len(train_part) == 320
        train_ids = {t.case_id for t in train_part.traces}
        test_ids = {t.case_id for t in test_part.traces}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {t.case_id for t in small_log.traces}

    def test_deterministic(self, small_log):
        first = split_log(small_log, 0.2, seed=42)
        second = split_log(small_log, 0.2, seed=42)
        assert first[0].traces == second[0].traces
        assert first[1].traces == second[1].traces

    def test_split_is_recorded_in_provenance(self, small_log):
        train_part, test_part = split_log(small_log, 0.25, seed=7)
        assert train_part.provenance["split"]["part"] == "train"
        assert test_part.provenance["split"]["seed"] == 7

    def test_bad_fraction_rejected(self, small_log):
        with pytest.raises(ValueError):
            split_log(small_log, 1.5)


class TestModelFiles:
    def test_round_trip_preserves_predictions(self, tmp_path, loan_model, loan_schema, model_log):
        path = tmp_path / "model.json"
        save_model(loan_model, path)
        back = load_model(path)
        matrix, _ = encode_log(loan_schema, model_log)
        np.testing.assert_array_equal(
            predict_proba(back, matrix), predict_proba(loan_model, matrix)
        )
        assert back.schema == loan_model.schema

    def test_file_bytes_are_stable(self, tmp_path, loan_model):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(loan_model, a)
        save_model(loan_model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_checks_definition(self, tmp_path, loan_model):
        path = tmp_path / "model.json"
        save_model(loan_model, path)
        with pytest.raises(SchemaMismatchError):
            load_model(path, definition=TINY)

    @pytest.mark.parametrize("field", ["weights", "mean", "std"])
    def test_length_mismatch_is_refused(self, tmp_path, loan_model, field):
        path = tmp_path / "model.json"
        data = model_to_json_dict(loan_model)
        values = data["weights"] if field == "weights" else data["scaler"][field]
        values.pop()
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatchError, match="5 features"):
            load_model(path)

    def test_gradient_descent_model_file_still_loads(self, loan):
        # Written by the gradient-descent trainer (procex train on a 300-case
        # log); its hyperparams still carry a learning_rate.
        path = Path(__file__).parent / "goldens" / "model_gradient_descent.json"
        assert "learning_rate" in json.loads(path.read_text())["hyperparams"]
        model = load_model(path, definition=loan)
        assert model.config == TrainConfig()
        assert 0.5 < predict_proba(model, np.array([580.0, 300000.0, 1.0, 0.0, 1.0]))

    def test_tampered_schema_is_refused(self, tmp_path, loan_model):
        path = tmp_path / "model.json"
        data = model_to_json_dict(loan_model)
        data["schema"]["features"][0]["upper"] = 999.0
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatchError):
            load_model(path)
