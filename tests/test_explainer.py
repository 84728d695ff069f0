"""Perturbation sampling, the kernel, the ridge surrogate, explanations."""

import json

import numpy as np
import pytest

from procex.errors import (
    ConfigError,
    InsufficientSamplesError,
    RejectionBudgetExhaustedError,
    SchemaMismatchError,
    SingularSystemError,
)
from procex.explainer import (
    PROCESS_AWARE,
    PROPAGATE,
    REJECT,
    VANILLA,
    ExplainConfig,
    default_kernel_width,
    explain,
    explain_detailed,
    fit_surrogate,
    kernel_weights,
    sample_process_aware,
    sample_vanilla,
)
from procex.features import build_schema, encode_trace, split_vector
from procex.predictor import TrainConfig, predict_proba, train
from procex.process_model import execute_rows, parse_process
from procex.simulation import SimulationConfig, Trace, generate_log, is_conformant

from procgen import NO_ATTRIBUTES

SKILLED_VEC = np.array([580.0, 300000.0, 1.0, 0.0, 1.0])
STANDARD_VEC = np.array([700.0, 50000.0, 0.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def scaler(loan_model):
    return loan_model.scaler


class TestVanillaSampling:
    def test_row_zero_is_the_instance(self, loan_schema, scaler):
        rng = np.random.default_rng(0)
        samples = sample_vanilla(SKILLED_VEC, loan_schema, scaler, 50, 1.0, 0.5, rng)
        assert samples.shape == (51, 5)
        np.testing.assert_array_equal(samples[0], SKILLED_VEC)

    def test_degenerate_config_copies_the_instance(self, loan_schema, scaler):
        rng = np.random.default_rng(0)
        samples = sample_vanilla(SKILLED_VEC, loan_schema, scaler, 20, 0.0, 0.0, rng)
        np.testing.assert_array_equal(samples, np.tile(SKILLED_VEC, (21, 1)))

    def test_numeric_noise_is_clamped_to_bounds(self, loan_schema, scaler):
        edge = np.array([849.0, 499000.0, 0.0, 1.0, 1.0])
        rng = np.random.default_rng(1)
        samples = sample_vanilla(edge, loan_schema, scaler, 500, 3.0, 0.5, rng)
        assert samples[:, 0].max() <= 850.0 and samples[:, 0].min() >= 300.0
        assert samples[:, 1].max() <= 500000.0 and samples[:, 1].min() >= 1000.0

    def test_flip_probability_one_inverts_indicators(self, loan_schema, scaler):
        rng = np.random.default_rng(2)
        samples = sample_vanilla(SKILLED_VEC, loan_schema, scaler, 10, 0.0, 1.0, rng)
        np.testing.assert_array_equal(
            samples[1:, 2:], np.tile([0.0, 1.0, 0.0], (10, 1))
        )

    def test_most_samples_break_conformance(self, loan, loan_schema, scaler):
        rng = np.random.default_rng(7)
        samples = sample_vanilla(SKILLED_VEC, loan_schema, scaler, 1000, 1.0, 0.5, rng)
        ok = 0
        for row in samples[1:]:
            attrs, indicators = split_vector(loan_schema, row)
            ok += is_conformant(loan, attrs, indicators)
        assert ok / 1000 < 0.7


class TestPropagate:
    def test_indicators_follow_the_route_guard(self, loan, loan_schema, scaler):
        rng = np.random.default_rng(3)
        samples = sample_process_aware(
            SKILLED_VEC, loan, loan_schema, scaler, 500, 1.0, PROPAGATE, rng
        )
        credit, amount = samples[1:, 0], samples[1:, 1]
        skilled = (credit < 620) & (amount > 200000)
        np.testing.assert_array_equal(samples[1:, 2], skilled.astype(float))
        np.testing.assert_array_equal(samples[1:, 3], (~skilled).astype(float))
        assert np.all(samples[1:, 4] == 1.0)

    def test_every_sample_is_conformant(self, loan, loan_schema, scaler):
        rng = np.random.default_rng(4)
        samples = sample_process_aware(
            STANDARD_VEC, loan, loan_schema, scaler, 300, 1.0, PROPAGATE, rng
        )
        for row in samples:
            attrs, indicators = split_vector(loan_schema, row)
            assert is_conformant(loan, attrs, indicators)

    def test_zero_spread_reproduces_the_instance_route(self, loan, loan_schema, scaler):
        rng = np.random.default_rng(5)
        samples = sample_process_aware(
            SKILLED_VEC, loan, loan_schema, scaler, 50, 0.0, PROPAGATE, rng
        )
        np.testing.assert_array_equal(samples, np.tile(SKILLED_VEC, (51, 1)))

    def test_choice_gateway_draws_are_positional(self):
        # A choice gateway behind an unreachable branch still consumes its
        # uniform vector, so indicator streams never shift.
        text = (
            "process p\nattr a: numeric in [0, 10]\nstart -> g\n"
            "gateway g { when a < 5 -> x otherwise -> c }\n"
            "activity x -> fin\n"
            "gateway c choice { 0.5 -> y 0.5 -> z }\n"
            "activity y -> fin2\nactivity z -> fin3\n"
            "end fin label POSITIVE\nend fin2 label POSITIVE\nend fin3 label NEGATIVE\n"
        )
        defn = parse_process(text)
        low = {"a": np.full(100, 1.0)}
        high = {"a": np.full(100, 9.0)}
        rngs = np.random.default_rng(8), np.random.default_rng(8)
        a, _ = execute_rows(defn, low, 100, lambda arrived: rngs[0].random(100))
        b, _ = execute_rows(defn, high, 100, lambda arrived: rngs[1].random(100))
        names = defn.activity_names
        assert np.all(a[:, names.index("x")] == 1.0)
        assert np.all(b[:, names.index("x")] == 0.0)
        took_y = b[:, names.index("y")]
        assert 0.3 < took_y.mean() < 0.7
        np.testing.assert_array_equal(took_y + b[:, names.index("z")], 1.0)

    def test_process_without_attributes(self):
        # Rows are counted from the sample count, not from an attribute column.
        schema = build_schema(NO_ATTRIBUTES)
        log = generate_log(NO_ATTRIBUTES, SimulationConfig(n_cases=200, seed=2))
        model = train(log, schema)
        config = ExplainConfig(mode=PROCESS_AWARE, strategy=PROPAGATE, n_samples=300)
        instance = encode_trace(schema, log.traces[0])
        explanation, perturbations = explain_detailed(
            model, NO_ATTRIBUTES, instance, config
        )
        assert perturbations.samples.shape == (301, 3)
        for row in perturbations.samples:
            attrs, indicators = split_vector(schema, row)
            assert is_conformant(NO_ATTRIBUTES, attrs, indicators)
        assert 0.3 < perturbations.samples[:, schema.index("x")].mean() < 0.7
        assert {name for name, _ in explanation.attributions} == set(schema.names)


class TestReject:
    def test_kept_samples_all_conform(self, loan, loan_schema, scaler):
        rng = np.random.default_rng(6)
        samples = sample_process_aware(
            SKILLED_VEC, loan, loan_schema, scaler, 40, 1.0, REJECT, rng
        )
        assert samples.shape == (41, 5)
        for row in samples:
            attrs, indicators = split_vector(loan_schema, row)
            assert is_conformant(loan, attrs, indicators)

    def test_budget_exhaustion_raises(self, loan, loan_schema, scaler):
        # flip_p=1 turns every candidate's submit_application off, which no
        # reachable route allows.
        rng = np.random.default_rng(6)
        with pytest.raises(RejectionBudgetExhaustedError):
            sample_process_aware(
                SKILLED_VEC, loan, loan_schema, scaler, 5, 1.0, REJECT, rng, flip_p=1.0
            )


class TestKernel:
    def test_zero_distance_gives_weight_one(self, loan_schema, scaler):
        w = kernel_weights(SKILLED_VEC, SKILLED_VEC[None, :], scaler, 1.5)
        assert w[0] == 1.0

    def test_weights_decrease_with_distance(self, scaler):
        base = SKILLED_VEC.copy()
        steps = np.array([base + [d, 0, 0, 0, 0] for d in (0.0, 10.0, 40.0, 90.0)])
        w = kernel_weights(base, steps, scaler, 1.5)
        assert np.all(np.diff(w) < 0)

    def test_symmetric_offsets_weigh_equally(self, scaler):
        pair = np.array([SKILLED_VEC + [25, 0, 0, 0, 0], SKILLED_VEC - [25, 0, 0, 0, 0]])
        w = kernel_weights(SKILLED_VEC, pair, scaler, 1.5)
        assert w[0] == pytest.approx(w[1], rel=1e-12)

    def test_default_width(self):
        assert default_kernel_width(4) == 1.5
        assert ExplainConfig().resolved_width(4) == 1.5
        assert ExplainConfig(kernel_width=2.5).resolved_width(4) == 2.5


class TestSurrogate:
    def test_recovers_a_linear_function(self):
        rng = np.random.default_rng(10)
        design = rng.normal(size=(200, 2))
        targets = 2.0 * design[:, 0] - design[:, 1] + 0.5
        coef, intercept, r2 = fit_surrogate(
            design, targets, np.ones(200), ridge=1e-8
        )
        np.testing.assert_allclose(coef, [2.0, -1.0], rtol=1e-2)
        assert intercept == pytest.approx(0.5, rel=1e-2)
        assert r2 > 0.999

    def test_constant_target_gives_zero_fit(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(50, 3))
        coef, intercept, r2 = fit_surrogate(
            design, np.full(50, 0.25), np.ones(50), ridge=1.0
        )
        np.testing.assert_allclose(coef, 0.0, atol=1e-9)
        assert intercept == pytest.approx(0.25, abs=1e-9)
        assert r2 == 0.0

    def test_duplicate_columns_share_the_weight(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=100)
        design = np.column_stack([x, x])
        targets = 2.0 * x
        coef, _, _ = fit_surrogate(design, targets, np.ones(100), ridge=0.1)
        assert coef[0] == pytest.approx(coef[1], rel=1e-9)
        assert coef[0] == pytest.approx(1.0, abs=0.01)

    def test_duplicate_columns_without_ridge_are_singular(self):
        # Integer-valued columns keep the gram matrix exactly rank-deficient.
        x = np.arange(30, dtype=float)
        design = np.column_stack([x, x])
        with pytest.raises(SingularSystemError):
            fit_surrogate(design, x, np.ones(30), ridge=0.0)

    def test_too_few_weighted_samples(self):
        design = np.eye(4)[:, :3]
        weights = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(InsufficientSamplesError):
            fit_surrogate(design, np.zeros(4), weights, ridge=1.0)

    def test_solution_is_homogeneous_in_weights_and_ridge(self):
        rng = np.random.default_rng(14)
        design = rng.normal(size=(80, 3))
        targets = rng.normal(size=80)
        weights = rng.uniform(0.1, 1.0, size=80)
        a = fit_surrogate(design, targets, weights, ridge=0.5)
        b = fit_surrogate(design, targets, 7.0 * weights, ridge=7.0 * 0.5)
        np.testing.assert_allclose(a[0], b[0], rtol=1e-10)
        assert a[1] == pytest.approx(b[1], rel=1e-10)
        assert a[2] == pytest.approx(b[2], rel=1e-10)

    def test_weights_localize_the_fit(self):
        # Two populations with different slopes; weighting one away recovers
        # the other's slope.
        x = np.concatenate([np.linspace(0, 1, 50), np.linspace(10, 11, 50)])
        y = np.concatenate([2.0 * x[:50], -3.0 * x[50:]])
        weights = np.concatenate([np.ones(50), np.full(50, 1e-12)])
        coef, _, _ = fit_surrogate(x[:, None], y, weights, ridge=1e-10)
        assert coef[0] == pytest.approx(2.0, rel=1e-3)


class TestExplainConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            ExplainConfig(mode="fancy")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ExplainConfig(strategy="oracle")

    def test_collapse_requires_process_aware(self):
        with pytest.raises(ConfigError):
            ExplainConfig(mode=VANILLA, collapse_derived=True)
        ExplainConfig(mode=PROCESS_AWARE, collapse_derived=True)

    def test_rejects_bad_numbers(self):
        with pytest.raises(ConfigError):
            ExplainConfig(n_samples=0)
        with pytest.raises(ConfigError):
            ExplainConfig(spread=-1.0)
        with pytest.raises(ConfigError):
            ExplainConfig(flip_p=1.5)
        with pytest.raises(ConfigError):
            ExplainConfig(kernel_width=0.0)
        with pytest.raises(ConfigError):
            ExplainConfig(ridge=-0.1)

    @pytest.mark.parametrize("name", ["spread", "ridge"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_numbers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a finite"):
            ExplainConfig(**{name: value})


class TestExplain:
    CFG = dict(n_samples=800, seed=0)

    def test_vanilla_ranks_route_indicators_first(self, loan_model, loan):
        exp = explain(
            loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, **self.CFG)
        )
        assert set(exp.top_features(2)) == {"skilled_agent_review", "standard_review"}
        assert exp.fidelity_r2 > 0.5
        assert exp.prediction == pytest.approx(
            predict_proba(loan_model, SKILLED_VEC), abs=1e-12
        )

    def test_propagate_weights_are_antisymmetric(self, loan_model, loan):
        exp = explain(
            loan_model,
            loan,
            SKILLED_VEC,
            ExplainConfig(mode=PROCESS_AWARE, strategy=PROPAGATE, **self.CFG),
        )
        assert set(exp.top_features(2)) == {"skilled_agent_review", "standard_review"}
        total = exp.weight_of("skilled_agent_review") + exp.weight_of("standard_review")
        assert abs(total) < 1e-8
        assert exp.weight_of("submit_application") == 0.0

    def test_collapse_zeroes_the_indicator_block(self, loan_model, loan):
        exp = explain(
            loan_model,
            loan,
            SKILLED_VEC,
            ExplainConfig(
                mode=PROCESS_AWARE, strategy=PROPAGATE, collapse_derived=True, **self.CFG
            ),
        )
        for name in ("skilled_agent_review", "standard_review", "submit_application"):
            assert exp.weight_of(name) == 0.0
        assert exp.top_features(1)[0] in ("credit_score", "loan_amount")
        assert abs(exp.weight_of(exp.top_features(1)[0])) > 0.0

    def test_attribution_order_is_by_weight_then_name(self, loan_model, loan):
        exp = explain(
            loan_model, loan, STANDARD_VEC, ExplainConfig(mode=VANILLA, **self.CFG)
        )
        mags = [abs(w) for _, w in exp.attributions]
        assert mags == sorted(mags, reverse=True)
        assert [n for n, _ in exp.attributions_raw] == [n for n, _ in exp.attributions]

    def test_raw_weights_divide_by_training_std(self, loan_model, loan):
        exp = explain(
            loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, **self.CFG)
        )
        scale = dict(zip(loan_model.schema.names, loan_model.scaler.scale))
        raw = dict(exp.attributions_raw)
        for name, weight in exp.attributions:
            assert raw[name] == pytest.approx(weight / scale[name], rel=1e-12, abs=1e-15)

    def test_zero_model_yields_zero_explanation(self, loan, loan_schema, model_log):
        flat = train(model_log, loan_schema, TrainConfig(epochs=0))
        exp = explain(flat, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, **self.CFG))
        assert all(abs(w) < 1e-12 for _, w in exp.attributions)
        assert exp.fidelity_r2 == 0.0
        assert exp.intercept == pytest.approx(0.5, abs=1e-9)

    def test_same_config_is_bit_reproducible(self, loan_model, loan):
        cfg = ExplainConfig(mode=PROCESS_AWARE, strategy=PROPAGATE, **self.CFG)
        a = explain(loan_model, loan, SKILLED_VEC, cfg, instance_id="x")
        b = explain(loan_model, loan, SKILLED_VEC, cfg, instance_id="x")
        assert a == b
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_definition_text_order_does_not_matter(self, loan_model, loan):
        reordered = parse_process(
            "process loan_approval\n"
            "attr loan_amount: numeric in [1000, 500000]\n"
            "attr credit_score: numeric in [300, 850]\n"
            "start -> submit_application\n"
            "activity submit_application -> route\n"
            "gateway route { when credit_score < 620 && loan_amount > 200000"
            " -> skilled_agent_review otherwise -> standard_review }\n"
            "activity skilled_agent_review -> skilled_outcome\n"
            "activity standard_review -> standard_outcome\n"
            "gateway skilled_outcome choice { 0.85 -> reject 0.15 -> approve }\n"
            "gateway standard_outcome choice { 0.10 -> reject 0.90 -> approve }\n"
            "end approve label POSITIVE\nend reject label NEGATIVE\n"
        )
        cfg = ExplainConfig(mode=VANILLA, **self.CFG)
        assert explain(loan_model, reordered, SKILLED_VEC, cfg) == explain(
            loan_model, loan, SKILLED_VEC, cfg
        )

    def test_detailed_returns_the_perturbations(self, loan_model, loan):
        cfg = ExplainConfig(mode=VANILLA, **self.CFG)
        exp, pert = explain_detailed(loan_model, loan, SKILLED_VEC, cfg)
        assert pert.samples.shape == (cfg.n_samples + 1, 5)
        assert pert.kernel_weights[0] == 1.0
        assert pert.predictions.shape == (cfg.n_samples + 1,)
        assert pert.predictions[0] == exp.prediction

    def test_json_payload_shape(self, loan_model, loan):
        exp = explain(
            loan_model,
            loan,
            SKILLED_VEC,
            ExplainConfig(mode=VANILLA, **self.CFG),
            instance_id="c000099",
        )
        payload = exp.to_json_dict()
        assert list(payload) == [
            "mode",
            "instance_id",
            "prediction",
            "attributions",
            "attributions_raw",
            "intercept",
            "fidelity_r2",
            "config",
        ]
        assert payload["instance_id"] == "c000099"
        assert payload["config"]["n_samples"] == 800
        assert {"feature", "weight"} == set(payload["attributions"][0])

    def test_rank_helpers(self, loan_model, loan):
        exp = explain(
            loan_model, loan, SKILLED_VEC, ExplainConfig(mode=VANILLA, **self.CFG)
        )
        top = exp.top_features(1)[0]
        assert exp.rank_of(top) == 1
        with pytest.raises(SchemaMismatchError):
            exp.rank_of("income")

    def test_wrong_instance_shape(self, loan_model, loan):
        with pytest.raises(SchemaMismatchError):
            explain(loan_model, loan, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_instance(self, loan_model, loan, value):
        instance = SKILLED_VEC.copy()
        instance[0] = value
        with pytest.raises(SchemaMismatchError, match="credit_score"):
            explain(loan_model, loan, instance)

    def test_model_definition_mismatch(self, loan_model):
        other = parse_process(
            "process tiny\nattr a: numeric in [-2, 2]\nstart -> fin\n"
            "end fin label POSITIVE\n"
        )
        with pytest.raises(SchemaMismatchError):
            explain(loan_model, other, SKILLED_VEC)

    def test_instance_from_trace_encoding(self, loan_model, loan, loan_schema):
        trace = Trace(
            "t",
            {"credit_score": 580.0, "loan_amount": 300000.0},
            ("submit_application", "skilled_agent_review"),
            "NEGATIVE",
        )
        vec = encode_trace(loan_schema, trace)
        exp = explain(loan_model, loan, vec, ExplainConfig(mode=VANILLA, **self.CFG))
        assert exp.prediction > 0.5


def test_build_schema_matches_model_schema(loan, loan_model):
    assert build_schema(loan).schema_hash == loan_model.schema.schema_hash
