"""Explanation bits: pinned payload digests, and no fork between
``explain_detailed`` and the public steps it is made of.

The digests pin the exact bytes of in-process explanation payloads and of
one ``run_comparison`` report on the README tour's model (seed-42 log, CLI
training defaults), and of ``REJOINING``'s payloads in every mode, so a
change to how samples are laid out, standardized, weighted or fitted cannot
move a last bit unnoticed.

The composition test rebuilds each explanation from ``sample_vanilla`` /
``sample_process_aware``, ``predict_proba``, ``kernel_weights`` and
``fit_surrogate``, as ``bench/replay.py`` does to time the steps, and
requires every array to agree bit for bit with ``explain_detailed``. The
last tests check that ``predict_proba`` ignores the memory layout of its
input, and that a process without features fails before any sampling.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from procex.errors import NoFeaturesError
from procex.evaluation import ComparisonConfig, run_comparison, write_report_json
from procex.explainer import (
    PROCESS_AWARE,
    PROPAGATE,
    REJECT,
    VANILLA,
    ExplainConfig,
    explain,
    explain_detailed,
    fit_surrogate,
    kernel_weights,
    sample_process_aware,
    sample_vanilla,
)
from procex.features import build_schema, encode_trace
from procex.predictor import predict_proba, train
from procex.process_model import node_successors, parse_process
from procex.simulation import SimulationConfig, generate_log

from procgen import CHAIN, NO_FEATURES_ERROR, NO_FEATURES_SOURCE, REJOINING, random_process

CONFIGS = {
    "vanilla": dict(mode=VANILLA),
    "propagate": dict(mode=PROCESS_AWARE, strategy=PROPAGATE),
    "collapse": dict(mode=PROCESS_AWARE, strategy=PROPAGATE, collapse_derived=True),
    "reject": dict(mode=PROCESS_AWARE, strategy=REJECT),
}

PAYLOAD_DIGESTS = {
    "vanilla": "1bda130f992a8cab0ab5706637f4f9e818a54c1dd92614d6a0f5ed8f23f38339",
    "propagate": "61e145b551c8dfc0a2406b8811899efd09e01cc0e69ee8d98be221e8e9249d70",
    "collapse": "28509fcd886b96141c9ea3c3647febc78a7bb97842437dc00e6d81769d979c40",
    "reject": "30bef6bafe33e3465ddc776cc167de8b7ea577da734f9bcb559de8f8a29c5532",
}

# ``REJOINING``'s payloads (branches that rejoin across gateways, nested
# choices), computed under a one-thread BLAS.
REJOINING_DIGESTS = {
    "collapse": "28d7d0d872cc0a07393d1856108e9d348409a764f1cf85a73954b6fc200f8728",
    "propagate": "0863ed2a0ba7101b9219fd91f8a1191d02f14679b9d7c36af11a6ecc41c14460",
    "reject": "373fc7a3bff7c0b926828ea30e2d3bb2c717b9fcb67e63e8700cdfe6a9fc7f48",
    "vanilla": "8f0ae1d869c8b544c8d28aa1bb06527a230a6818036d4b758bc37b3e5661ec80",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _bits(array: np.ndarray) -> bytes:
    """Values and shape, whatever the memory layout."""
    array = np.asarray(array)
    return repr(array.shape).encode() + np.ascontiguousarray(array).tobytes()


@pytest.fixture(scope="module")
def seed42_instances(loan_schema, seed42_log):
    """Two rejected skilled-review cases and one standard-review case."""
    skilled = [
        t for t in seed42_log.traces
        if t.label == "NEGATIVE" and "skilled_agent_review" in t.activities
    ]
    standard = [t for t in seed42_log.traces if "standard_review" in t.activities]
    return [
        (t.case_id, encode_trace(loan_schema, t))
        for t in (skilled[0], skilled[1], standard[0])
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_explanation_payload_bytes_are_pinned(name, loan, seed42_model, seed42_instances):
    payloads = [
        explain(
            seed42_model, loan, vector,
            ExplainConfig(seed=seed, **CONFIGS[name]), instance_id=case_id,
        ).to_json_dict()
        for case_id, vector in seed42_instances
        for seed in (0, 7)
    ]
    data = json.dumps(payloads, sort_keys=True).encode()
    assert _digest(data) == PAYLOAD_DIGESTS[name]


def test_comparison_report_bytes_are_pinned(loan, seed42_model, seed42_log, tmp_path):
    # The README's `procex evaluate` run; its report file starts 9f91d366.
    config = ComparisonConfig(
        n_instances=20, seeds=(0, 1, 2, 3, 4), require_activity="skilled_agent_review"
    )
    path = tmp_path / "report.json"
    write_report_json(run_comparison(loan, seed42_model, seed42_log, config), path)
    assert _digest(path.read_bytes()) == (
        "9f91d366a86105b3561fbb6ca5811e44be43b117d6712722e6a73cfddca9f2fa"
    )


def test_rejoining_payload_bytes_are_pinned(fresh_python):
    """One new interpreter with ``OPENBLAS_NUM_THREADS=1`` computes the
    payloads, so the digests do not depend on the host's core count. The
    instances took the fast lane, the nested choice and the audit branch."""
    source = f"""
import os
os.environ.pop("OMP_NUM_THREADS", None)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import hashlib, json, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from procgen import REJOINING
from procex.explainer import ExplainConfig, explain
from procex.features import build_schema, encode_trace
from procex.predictor import train
from procex.simulation import SimulationConfig, generate_log

schema = build_schema(REJOINING)
log = generate_log(REJOINING, SimulationConfig(n_cases=400, seed=5, label_noise=0.2))
model = train(log, schema)
traces = [next(t for t in log.traces if a in t.activities) for a in ("fast", "deep", "audit")]
digests = {{}}
for name, settings in {CONFIGS!r}.items():
    payloads = [
        explain(
            model, REJOINING, encode_trace(schema, t),
            ExplainConfig(seed=seed, n_samples=1000, flip_p=0.05, **settings),
            instance_id=t.case_id,
        ).to_json_dict()
        for t in traces
        for seed in (0, 7)
    ]
    digests[name] = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
print(json.dumps(digests))
"""
    assert json.loads(fresh_python(source)) == REJOINING_DIGESTS


# ---------------------------------------------------------------------------
# No fork: explain_detailed is the composition of its public steps
# ---------------------------------------------------------------------------

def _composed(model, defn, instance, config):
    """``explain_detailed`` rebuilt from the public steps, as
    ``bench/replay.py`` does: samples, predictions, kernel weights, and the
    surrogate's ``(coefficients, intercept, fidelity)``."""
    schema, scaler = model.schema, model.scaler
    rng = np.random.default_rng(config.seed)
    if config.mode == VANILLA:
        samples = sample_vanilla(
            instance, schema, scaler, config.n_samples, config.spread, config.flip_p, rng
        )
    else:
        samples = sample_process_aware(
            instance, defn, schema, scaler, config.n_samples, config.spread,
            config.strategy, rng, flip_p=config.flip_p,
        )
    predictions = np.atleast_1d(predict_proba(model, samples))
    weights = kernel_weights(instance, samples, scaler, config.resolved_width(schema.arity))
    if config.collapse_derived:
        columns = schema.numeric_indices
    else:
        columns = np.arange(schema.arity)
    fit = fit_surrogate(scaler.apply(samples)[:, columns], predictions, weights, config.ridge)
    return samples, predictions, weights, columns, fit


def _assert_no_fork(model, defn, instance, config):
    explanation, perturbations = explain_detailed(model, defn, instance, config)
    samples, predictions, weights, columns, (coef, intercept, fidelity) = _composed(
        model, defn, instance, config
    )
    assert _bits(perturbations.samples) == _bits(samples)
    assert _bits(perturbations.predictions) == _bits(predictions)
    assert _bits(perturbations.kernel_weights) == _bits(weights)
    attributed = dict(explanation.attributions)
    names = model.schema.names
    assert _bits([attributed[names[i]] for i in columns]) == _bits(coef)
    assert _bits(explanation.intercept) == _bits(intercept)
    assert _bits(explanation.fidelity_r2) == _bits(fidelity)
    assert _bits(explanation.prediction) == _bits(predictions[0])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_loan_explanation_is_its_public_steps(name, loan, seed42_model, seed42_instances):
    for seed, (_, vector) in enumerate(seed42_instances):
        _assert_no_fork(seed42_model, loan, vector, ExplainConfig(seed=seed, **CONFIGS[name]))


def _rejoins(defn) -> bool:
    targets = [t for node in defn.nodes for t in node_successors(node)]
    return len(targets) != len(set(targets))


def test_random_explanations_are_their_public_steps():
    # CHAIN adds a schema wide enough (72 features) for numpy to sum a row
    # pairwise rather than in order.
    defns = [random_process(np.random.default_rng(4400 + i), i) for i in range(20)]
    kinds = {"diamond": 0, "no attributes": 0, "no features": 0, "8+ features": 0}
    for index, defn in enumerate(defns + [REJOINING, CHAIN]):
        schema = build_schema(defn)
        log = generate_log(defn, SimulationConfig(n_cases=300, seed=index, label_noise=0.2))
        model = train(log, schema)
        instance = encode_trace(schema, log.traces[0])
        kinds["diamond"] += _rejoins(defn)
        kinds["no attributes"] += not defn.attributes
        kinds["8+ features"] += schema.arity >= 8
        if schema.arity == 0:
            kinds["no features"] += 1
            with pytest.raises(NoFeaturesError):
                explain_detailed(model, defn, instance)
            continue
        for name, settings in CONFIGS.items():
            # A low flip rate keeps enough reject candidates conformant.
            config = ExplainConfig(seed=index, n_samples=400, flip_p=0.02, **settings)
            _assert_no_fork(model, defn, instance, config)
    assert kinds["diamond"] and kinds["no attributes"] and kinds["no features"], kinds
    assert kinds["8+ features"], kinds


def test_predict_proba_bits_do_not_depend_on_layout(seed42_model, loan, seed42_instances):
    _, vector = seed42_instances[0]
    _, perturbations = explain_detailed(seed42_model, loan, vector)
    rows = np.ascontiguousarray(perturbations.samples)
    expected = _bits(predict_proba(seed42_model, rows))
    for layout in (
        perturbations.samples,
        np.asfortranarray(rows),
        np.repeat(rows, 2, axis=0)[::2],
        np.hstack([rows, rows])[:, : rows.shape[1]],
    ):
        assert _bits(predict_proba(seed42_model, layout)) == expected
    assert _bits(perturbations.predictions) == expected


# ---------------------------------------------------------------------------
# A process without features
# ---------------------------------------------------------------------------

def test_featureless_process_fails_before_sampling(recwarn):
    defn = parse_process(NO_FEATURES_SOURCE)
    schema = build_schema(defn)
    model = train(generate_log(defn, SimulationConfig(n_cases=50, seed=1)), schema)
    for settings in CONFIGS.values():
        with pytest.raises(NoFeaturesError) as caught:
            explain(model, defn, np.empty(0), ExplainConfig(**settings))
        assert f"{type(caught.value).__name__}: {caught.value}" == NO_FEATURES_ERROR
    assert not recwarn.list
