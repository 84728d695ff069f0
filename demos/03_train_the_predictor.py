"""
Training the outcome predictor
==============================

Fit the logistic model on a simulated log, evaluate it on held-out cases,
and look at what it learned.
"""

import tempfile
from pathlib import Path

from procex import load_fixture
from procex.features import build_schema
from procex.predictor import (
    TrainConfig,
    evaluate,
    load_model,
    predict_proba,
    save_model,
    split_log,
    train,
)
from procex.simulation import SimulationConfig, generate_log

loan = load_fixture()
schema = build_schema(loan)

log = generate_log(loan, SimulationConfig(n_cases=10000, seed=42))
train_log, test_log = split_log(log, test_fraction=0.2, seed=42)

# Damped Newton steps from zero weights; features are standardized with
# training statistics, the bias stays unpenalized.
model = train(train_log, schema, TrainConfig())
meta = model.train_meta
print(f"epochs run: {meta['epochs_run']}, converged: {meta['converged']}")
print(f"final loss: {meta['final_loss']:.4f}")

metrics = evaluate(model, test_log)
print(f"held-out accuracy: {metrics.accuracy:.4f}, AUC: {metrics.auc:.4f}")
print(f"confusion: tp={metrics.tp} fp={metrics.fp} tn={metrics.tn} fn={metrics.fn}")

# The standardized weights tell the story: the two route indicators carry
# almost all the signal, with nearly opposite weights, because the route
# decides which outcome gateway a case reaches.
print("weights (standardized units):")
for name, weight in zip(schema.names, model.weights):
    print(f"  {name:<22} {weight:+.4f}")

# Predictions for the two archetypal applications.
import numpy as np

skilled_case = np.array([580.0, 300000.0, 1.0, 0.0, 1.0])
standard_case = np.array([700.0, 50000.0, 0.0, 1.0, 1.0])
print(f"P(reject | skilled route case):  {predict_proba(model, skilled_case):.3f}")
print(f"P(reject | standard route case): {predict_proba(model, standard_case):.3f}")

# Models serialize to a single JSON file that embeds the schema (with a
# hash), the scaler, and the training record.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    reloaded = load_model(path, definition=loan)
    print("reload preserves predictions:",
          predict_proba(reloaded, skilled_case) == predict_proba(model, skilled_case))
