"""Logistic predictor: optimization, metrics, and model files."""

import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from procex.errors import (
    ConfigError,
    DivergedError,
    EmptyLogError,
    MalformedModelError,
    SchemaMismatchError,
    SingleClassLogError,
)
from procex.features import FeatureSchema, Scaler, build_schema, encode_log
from procex.predictor import (
    LogisticModel,
    TrainConfig,
    _average_ranks,
    evaluate,
    labels_to_targets,
    load_model,
    loss_and_gradient,
    model_to_json_dict,
    predict_proba,
    predict_proba_standardized,
    save_model,
    split_log,
    train,
)
from procex.process_model import NEGATIVE, POSITIVE, parse_process
from procex.simulation import EventLog, SimulationConfig, Trace, generate_log

from procgen import CHAIN

TINY = parse_process(
    "process tiny\nattr a: numeric in [-2, 2]\nstart -> fin\nend fin label POSITIVE\n"
)
TINY_SCHEMA = build_schema(TINY)


@pytest.fixture(scope="module")
def chain_model():
    schema = build_schema(CHAIN)
    log = generate_log(CHAIN, SimulationConfig(n_cases=300, seed=5, label_noise=0.2))
    return train(log, schema)


def tiny_log(points):
    traces = tuple(
        Trace(f"t{i}", {"a": float(a)}, (), label)
        for i, (a, label) in enumerate(points)
    )
    return EventLog.from_records("tiny", traces)


SEPARABLE = tiny_log(
    [(-1.0, POSITIVE), (-0.5, POSITIVE), (0.5, NEGATIVE), (1.0, NEGATIVE)]
)


def loss_history(log, schema, config, model):
    """The loss after each of ``model``'s Newton steps, from the start: a
    run capped at ``k`` epochs takes the same first ``k`` steps, so its final
    loss is the ``k``-th."""
    return np.array([
        train(log, schema, replace(config, epochs=k)).train_meta["final_loss"]
        for k in range(model.train_meta["epochs_run"] + 1)
    ])


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
        model = train(model_log, loan_schema)
        history = loss_history(model_log, loan_schema, TrainConfig(), model)
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
        # Every log constructor refuses such values; a log built from raw
        # columns can still hold one.
        log = tiny_log([(-1.0, POSITIVE), (0.0, NEGATIVE)])
        log = replace(log, values=np.array([[-1.0], [np.inf]]))
        with pytest.raises(DivergedError, match="non-finite"):
            train(log, TINY_SCHEMA)

    def test_log_value_whose_square_overflows_is_refused(self, loan, loan_schema):
        # 1e308 is finite, so a log may hold it, but its square is not.
        log = generate_log(loan, SimulationConfig(n_cases=300, seed=1))
        case = log.traces[5]
        huge = Trace(
            case.case_id, {**case.attrs, "credit_score": 1e308}, case.activities, case.label
        )
        traces = log.traces[:5] + (huge,) + log.traces[6:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError, match="'credit_score'.* std inf"):
                train(EventLog.from_records(log.process_name, traces), loan_schema)

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

    def test_zero_tolerance_stops_when_the_loss_stops_falling(self, loan, loan_schema):
        # No gradient reaches 0 exactly, so only the strict-decrease rule ends
        # this run before the iteration cap.
        log = generate_log(loan, SimulationConfig(n_cases=10000, seed=42))
        train_part, _ = split_log(log, 0.2, seed=42)
        default = train(train_part, loan_schema)
        exact = train(train_part, loan_schema, TrainConfig(tol=0.0))
        assert len(train_part) == 8000
        assert exact.train_meta["converged"] is False
        assert exact.train_meta["epochs_run"] <= 50
        assert exact.train_meta["final_loss"] <= default.train_meta["final_loss"]
        history = loss_history(train_part, loan_schema, TrainConfig(tol=0.0), exact)
        assert np.all(np.diff(history) < 0)

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
         {"tol": -1e-6}, {"tol": math.nan}, {"epochs": -1}, {"seed": -1}],
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
            train(EventLog.from_records("tiny", ()), TINY_SCHEMA)


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

    @pytest.mark.parametrize("process", ["loan", "chain"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 5001])
    def test_logits_are_summed_feature_by_feature(self, loan_model, chain_model, process, order, n):
        # The same bits as a loop over the features in schema order, on
        # either layout, for a lone row too. CHAIN's 82 columns are far past
        # the 8 terms from which numpy sums a contiguous axis pairwise, and
        # past the width where a BLAS product reorders its sum.
        model = loan_model if process == "loan" else chain_model
        design = np.random.default_rng(n).standard_normal((n, model.schema.arity))
        design = np.asarray(design, order=order)
        logits = np.zeros(n)
        for j in range(model.schema.arity):
            logits += design[:, j] * model.weights[j]
        logits += model.bias
        want = 0.5 * (1.0 + np.tanh(0.5 * logits))
        got = predict_proba_standardized(model, design)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        alone = np.array([predict_proba_standardized(model, row) for row in design[:2]])
        np.testing.assert_array_equal(alone.view(np.int64), want[:2].view(np.int64))

    def test_a_featureless_model_predicts_its_bias(self):
        model = LogisticModel(
            FeatureSchema("bare", ()), Scaler(np.empty(0), np.empty(0)), np.empty(0),
            0.25, TrainConfig(), {},
        )
        want = 0.5 * (1.0 + math.tanh(0.125))
        assert predict_proba(model, np.empty(0)) == want
        np.testing.assert_array_equal(predict_proba(model, np.empty((3, 0))), [want] * 3)


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

    def test_bad_fraction_rejected(self, small_log):
        for fraction in (1.5, 0.0, -0.1, math.nan):
            with pytest.raises(ConfigError, match="test_fraction must lie in"):
                split_log(small_log, fraction)

    def test_negative_seed_rejected(self, small_log):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            split_log(small_log, 0.2, seed=-1)


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

    @pytest.mark.parametrize(
        "change, shown",
        [
            (lambda m: replace(m, bias=math.inf), "model file bias is inf"),
            (lambda m: replace(m, weights=np.r_[m.weights[:1], math.nan, m.weights[2:]]),
             "model file weights of feature 'loan_amount' is nan"),
            (lambda m: replace(m, scaler=Scaler(np.r_[math.inf, m.scaler.mean[1:]], m.scaler.std)),
             "scaler mean of feature 'credit_score' is inf"),
            (lambda m: replace(m, scaler=Scaler(m.scaler.mean, np.r_[m.scaler.std[:4], -1.0])),
             "scaler std of feature 'submit_application' is -1.0"),
        ],
        ids=["inf-bias", "nan-weight", "inf-mean", "negative-std"],
    )
    def test_save_refuses_what_load_would_and_keeps_the_old_file(
        self, tmp_path, loan_model, change, shown
    ):
        path = tmp_path / "model.json"
        save_model(loan_model, path)
        before = path.read_bytes()
        with pytest.raises(MalformedModelError, match=re.escape(shown)):
            save_model(change(loan_model), path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "field, index, literal, shown",
        [
            ("weights", 1, "NaN", "model file weights of feature 'loan_amount' is nan"),
            ("mean", 0, "Infinity", "scaler mean of feature 'credit_score' is inf"),
            ("std", 4, "-Infinity", "scaler std of feature 'submit_application' is -inf"),
            ("std", 2, "-1.5", "scaler std of feature 'skilled_agent_review' is -1.5, "
             "not a finite non-negative number"),
            ("bias", None, "Infinity", "model file bias is inf, not a finite number"),
            # Finite in the file, but it overflows to inf when read.
            ("bias", None, "1e400", "model file bias is inf, not a finite number"),
            # Not numbers at all.
            ("bias", None, '"abc"', 'model file bias is "abc", not a number'),
            ("bias", None, "null", "model file bias is null, not a number"),
            ("bias", None, "[1.5]", "model file bias is [1.5], not a number"),
            ("bias", None, '{"a": 1}', 'model file bias is {"a": 1}, not a number'),
            ("bias", None, "true", "model file bias is true, not a number"),
            # An integer literal too long for a float reads as inf.
            ("bias", None, "1" + "0" * 400, "model file bias is inf, not a finite number"),
            ("weights", None, '"abc"', 'model file weights is "abc", not a list of numbers'),
            ("mean", None, '{"credit_score": 1}', 'model file scaler mean is '
             '{"credit_score": 1}, not a list of numbers'),
            ("std", None, "2.0", "model file scaler std is 2.0, not a list of numbers"),
            ("weights", 1, '"0.5"', "model file weights of feature 'loan_amount' is "
             '"0.5", not a number'),
            ("mean", 0, "null", "model file scaler mean of feature 'credit_score' is "
             "null, not a number"),
            ("std", 3, "[1.0]", "model file scaler std of feature 'standard_review' is "
             "[1.0], not a number"),
            ("std", 4, "-1" + "0" * 400, "model file scaler std of feature "
             "'submit_application' is -inf, not a finite non-negative number"),
        ],
        ids=["nan-weight", "inf-mean", "minus-inf-std", "negative-std", "inf-bias",
             "overflowing-bias",
             "string-bias", "null-bias", "list-bias", "object-bias", "bool-bias",
             "long-int-bias", "string-weights", "object-mean", "number-std",
             "string-weight", "null-mean", "list-std", "long-int-std"],
    )
    def test_non_finite_or_negative_numbers_are_refused(
        self, tmp_path, loan_model, field, index, literal, shown
    ):
        path = tmp_path / "model.json"
        data = model_to_json_dict(loan_model)
        holder = data if field in ("bias", "weights") else data["scaler"]
        if index is None:
            holder[field] = "LITERAL"
        else:
            holder[field][index] = "LITERAL"
        # json.load reads NaN, Infinity and -Infinity, which strict JSON lacks.
        path.write_text(json.dumps(data).replace('"LITERAL"', literal))
        with pytest.raises(MalformedModelError, match=re.escape(shown)):
            load_model(path)
