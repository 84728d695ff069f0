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
    _kernel,
    explain,
    explain_detailed,
    fit_surrogate,
    kernel_weights,
    sample_process_aware,
    sample_vanilla,
)
from procex.features import (
    build_schema,
    encode_log,
    encode_trace,
    scaler_from_matrix,
    split_vector,
)
from procex.predictor import TrainConfig, predict_proba, train
from procex.process_model import (
    Activity,
    ChoiceGateway,
    EndNode,
    XorGateway,
    execute_rows,
    parse_process,
)
from procex.simulation import SimulationConfig, Trace, generate_log, is_conformant

from procgen import CHAIN, NO_ATTRIBUTES, REJOINING, _xor_target

# The choice gateway ``c`` is behind the xor's ``otherwise``: rows with
# ``a < 5`` never reach it.
UNREACHABLE_CHOICE = parse_process(
    "process p\nattr a: numeric in [0, 10]\nstart -> g\n"
    "gateway g { when a < 5 -> x otherwise -> c }\n"
    "activity x -> fin\n"
    "gateway c choice { 0.5 -> y 0.5 -> z }\n"
    "activity y -> fin2\nactivity z -> fin3\n"
    "end fin label POSITIVE\nend fin2 label POSITIVE\nend fin3 label NEGATIVE\n"
)

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

    def test_draws_follow_the_documented_order(self, loan_schema, scaler):
        # One normal matrix, then one uniform matrix, rebuilt from the seed.
        rng = np.random.default_rng(9)
        noise = rng.standard_normal((400, 2)) * (1.5 * scaler.std[:2])
        flips = rng.random((400, 3)) < 0.3
        attrs = np.clip(SKILLED_VEC[:2] + noise, [300.0, 1000.0], [850.0, 500000.0])
        expected = np.vstack([SKILLED_VEC, np.hstack([attrs, np.abs(SKILLED_VEC[2:] - flips)])])
        samples = sample_vanilla(
            SKILLED_VEC, loan_schema, scaler, 400, 1.5, 0.3, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(samples, expected)

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

    def test_draws_follow_the_documented_order(self):
        # One normal matrix, then the executor's uniform vector for each of
        # the three choice gateways in topological order, rebuilt from the seed.
        schema = build_schema(REJOINING)
        log = generate_log(REJOINING, SimulationConfig(n_cases=300, seed=3))
        scaler = train(log, schema).scaler
        instance = encode_trace(schema, log.traces[0])
        m, n = len(schema.numeric_indices), 400
        numeric = schema.features[:m]
        lower = [-np.inf if f.lower is None else f.lower for f in numeric]
        upper = [np.inf if f.upper is None else f.upper for f in numeric]
        rng = np.random.default_rng(9)
        noise = rng.standard_normal((n, m)) * (1.5 * scaler.std[:m])
        attrs = np.clip(instance[:m] + noise, lower, upper)
        indicators, _ = execute_rows(
            REJOINING, dict(zip(schema.names, attrs.T)), n, lambda arrived: rng.random(n)
        )
        expected = np.vstack([instance, np.hstack([attrs, indicators])])
        samples = sample_process_aware(
            instance, REJOINING, schema, scaler, n, 1.5, PROPAGATE, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(samples, expected)

    @pytest.mark.parametrize("process, seed", [("loan", 0), ("loan", 7), ("rejoining", 3)])
    def test_both_modes_of_one_seed_share_their_attribute_rows(
        self, loan, loan_model, rejected_skilled, process, seed
    ):
        # Both draw standard_normal((n, m)) first from default_rng(seed), so
        # evaluate compares the modes on the same attribute samples.
        if process == "loan":
            defn, model = loan, loan_model
            instance = encode_trace(model.schema, rejected_skilled[0])
        else:
            defn = REJOINING
            log = generate_log(REJOINING, SimulationConfig(n_cases=300, seed=3))
            model = train(log, build_schema(REJOINING))
            instance = encode_trace(model.schema, log.traces[0])
        m = len(model.schema.numeric_indices)
        vanilla = explain_detailed(model, defn, instance, ExplainConfig(seed=seed))[1]
        aware = explain_detailed(
            model, defn, instance, ExplainConfig(mode=PROCESS_AWARE, seed=seed)
        )[1]
        np.testing.assert_array_equal(vanilla.samples[:, :m], aware.samples[:, :m])
        assert not np.array_equal(vanilla.samples[:, m:], aware.samples[:, m:])

    def test_choice_gateway_draws_are_positional(self):
        # A choice gateway behind an unreachable branch still consumes its
        # uniform vector, so indicator streams never shift.
        defn = UNREACHABLE_CHOICE
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

    @pytest.mark.parametrize("defn, columns", [
        (UNREACHABLE_CHOICE, {"a": np.full(50, 1.0)}),
        (UNREACHABLE_CHOICE, {"a": np.full(50, 9.0)}),
        (UNREACHABLE_CHOICE, {"a": np.linspace(0.0, 10.0, 50)}),
        (REJOINING, {"a": np.full(50, 1.0), "b": np.full(50, 5.0)}),
        (REJOINING, {"a": np.full(50, 8.0), "b": np.full(50, 9.5)}),
        (REJOINING, {"a": np.linspace(0.0, 10.0, 50), "b": np.linspace(10.0, 0.0, 50)}),
    ], ids=["low", "high", "mixed", "rejoining-fast", "rejoining-audit", "rejoining-mixed"])
    def test_every_choice_gateway_is_drawn_with_its_arrivals(self, defn, columns):
        # The executor's draw contract, against one walk per row over the
        # same uniforms: one draw per choice gateway in topological order,
        # each given a length-n boolean mask of the rows that arrived (all
        # False where none did); zero indicator rows and all-False end
        # masks for the nodes no row reaches. Every case but the mixed ones
        # leaves some gateway, activity or end unreached.
        n = 50
        choices = [name for name in defn._topological_order
                   if isinstance(defn.node(name), ChoiceGateway)]
        uniforms = np.random.default_rng(4).random((len(choices), n))
        masks = []

        def draw(arrived):
            masks.append(arrived.copy())
            return uniforms[len(masks) - 1]

        indicators, ends = execute_rows(defn, columns, n, draw)
        visited = np.zeros((n, len(defn.nodes)), dtype=bool)
        index = {node.name: j for j, node in enumerate(defn.nodes)}
        for row in range(n):
            assign = {name: float(column[row]) for name, column in columns.items()}
            node = defn.node(defn.start)
            while True:
                visited[row, index[node.name]] = True
                if isinstance(node, EndNode):
                    break
                if isinstance(node, Activity):
                    target = node.successor
                elif isinstance(node, XorGateway):
                    target = _xor_target(node, assign)
                else:
                    u = uniforms[choices.index(node.name), row]
                    cumulative = 0.0
                    target = node.branches[-1].target
                    for branch in node.branches:
                        cumulative += branch.probability
                        if u < cumulative:
                            target = branch.target
                            break
                node = defn.node(target)
        assert len(masks) == len(choices)
        for mask, name in zip(masks, choices):
            assert mask.dtype == bool and mask.shape == (n,)
            np.testing.assert_array_equal(mask, visited[:, index[name]])
        np.testing.assert_array_equal(
            indicators, visited[:, [index[name] for name in defn.activity_names]]
        )
        assert list(ends) == [end.name for end in defn.end_nodes]
        for end in defn.end_nodes:
            np.testing.assert_array_equal(ends[end.name], visited[:, index[end.name]])

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

    @pytest.mark.parametrize("process", ["loan", "chain"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 600])
    def test_distance_is_summed_feature_by_feature(self, loan, process, order, n):
        # The same bits as a loop over the features in schema order, on
        # either layout and for a lone sample. CHAIN's 82 columns are far
        # past the 8 terms from which numpy sums a contiguous axis pairwise.
        defn = loan if process == "loan" else CHAIN
        schema = build_schema(defn)
        matrix, _ = encode_log(schema, generate_log(defn, SimulationConfig(n_cases=300, seed=5)))
        scaler = scaler_from_matrix(matrix)
        samples = sample_vanilla(matrix[0], schema, scaler, n, 1.0, 0.5, np.random.default_rng(2))
        standardized = np.asarray(scaler.apply(samples), order=order)
        center = standardized[0]
        want = np.zeros(n + 1)
        for j in range(schema.arity):
            want += (standardized[:, j] - center[j]) ** 2
        want = np.exp(-want / (1.5 * 1.5))
        got = _kernel(center, standardized, 1.5)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        lone = _kernel(center, standardized[1:2], 1.5)
        np.testing.assert_array_equal(lone.view(np.int64), want[1:2].view(np.int64))

    def test_default_width(self):
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
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            ExplainConfig(seed=-1)

    @pytest.mark.parametrize("name", ["spread", "ridge", "kernel_width"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_numbers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a finite"):
            ExplainConfig(**{name: value})

    def test_rejects_a_width_whose_square_underflows(self):
        with pytest.raises(ConfigError, match="its square underflows to 0"):
            ExplainConfig(kernel_width=1e-200)
        assert ExplainConfig(kernel_width=1e-160).kernel_width == 1e-160


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

    # A string makes a string array; a complex one would lose its imaginary
    # part to a float conversion.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "x", 1 + 2j])
    def test_non_finite_instance(self, loan_model, loan, value):
        instance = np.array([value, *SKILLED_VEC[1:]])
        with pytest.raises(SchemaMismatchError, match="credit_score"):
            explain(loan_model, loan, instance)

    def test_instance_past_the_float_range(self, loan_model, loan):
        with pytest.raises(SchemaMismatchError, match="past the float range"):
            explain(loan_model, loan, [10**400, *SKILLED_VEC[1:]])

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
