"""Binary outcome predictor: L2-regularized logistic regression.

The model predicts the probability of the NEGATIVE outcome (a rejection),
which is encoded as target 1. Training is deterministic full-batch gradient
descent from zero-initialized weights over standardized features, so a given
(log, hyperparameters) pair always yields byte-identical model files.
``expit`` is imported where it is used, so importing this module loads no
scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (
    DivergedError,
    EmptyLogError,
    SchemaMismatchError,
    SingleClassLogError,
)
from .features import (
    FeatureSchema,
    Scaler,
    build_schema,
    encode_log,
    fit_scaler,
)
from .process_model import NEGATIVE, ProcessDefinition
from .simulation import EventLog

__all__ = [
    "TrainConfig",
    "LogisticModel",
    "EvalMetrics",
    "loss_and_gradient",
    "train",
    "predict_proba",
    "evaluate",
    "split_log",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    l2: float = 1e-3
    epochs: int = 2000
    tol: float = 1e-6
    seed: int = 42

    def to_json_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "epochs": self.epochs,
            "tol": self.tol,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TrainConfig":
        return TrainConfig(
            learning_rate=data["learning_rate"],
            l2=data["l2"],
            epochs=data["epochs"],
            tol=data["tol"],
            seed=data["seed"],
        )


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Trained weights plus everything needed to reproduce and apply them."""

    schema: FeatureSchema
    scaler: Scaler
    weights: np.ndarray
    bias: float
    config: TrainConfig
    train_meta: dict = field(default_factory=dict)


def labels_to_targets(labels: tuple[str, ...]) -> np.ndarray:
    """NEGATIVE (reject) is the class the model predicts, encoded as 1."""
    return np.array([1.0 if label == NEGATIVE else 0.0 for label in labels])


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    design: np.ndarray,
    targets: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with an L2 penalty on the weights (not the bias).

    Returns ``(loss, d_loss/d_weights, d_loss/d_bias)``. The loss uses
    ``logaddexp`` so large logits cannot overflow.
    """
    logits = design @ weights + bias
    n = len(targets)
    loss = float(
        np.mean(np.logaddexp(0.0, logits) - targets * logits)
        + 0.5 * l2 * float(weights @ weights)
    )
    from scipy.special import expit

    residual = expit(logits) - targets
    grad_w = design.T @ residual / n + l2 * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def train(
    log: EventLog,
    schema: FeatureSchema,
    config: TrainConfig = TrainConfig(),
    track_loss: bool = False,
) -> LogisticModel:
    """Fit the predictor by full-batch gradient descent.

    Stops at the epoch limit or as soon as the gradient's max norm drops
    below ``config.tol``. Raises ``EmptyLogError``, ``SingleClassLogError``,
    or ``DivergedError`` (non-finite loss).
    """
    matrix, labels = encode_log(schema, log)
    targets = labels_to_targets(labels)
    if len(set(labels)) < 2:
        raise SingleClassLogError(
            f"training needs both outcome labels, got only {labels[0]!r}"
        )
    scaler = fit_scaler(schema, log)
    design = scaler.apply(matrix)

    weights = np.zeros(schema.arity)
    bias = 0.0
    history: list[float] = []
    epochs_run = 0
    converged = False
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_gradient(
            weights, bias, design, targets, config.l2
        )
        if not math.isfinite(loss):
            raise DivergedError(f"loss became non-finite at epoch {epoch}")
        if track_loss:
            history.append(loss)
        grad_norm = max(float(np.max(np.abs(grad_w))), abs(grad_b))
        if grad_norm < config.tol:
            converged = True
            break
        weights = weights - config.learning_rate * grad_w
        bias = bias - config.learning_rate * grad_b
        epochs_run = epoch + 1

    final_loss, _, _ = loss_and_gradient(weights, bias, design, targets, config.l2)
    if not math.isfinite(final_loss):
        raise DivergedError("loss became non-finite after the final step")
    if track_loss:
        history.append(final_loss)
    train_meta: dict[str, Any] = {
        "n_cases": len(log.traces),
        "epochs_run": epochs_run,
        "converged": converged,
        "final_loss": final_loss,
    }
    if track_loss:
        train_meta["loss_history"] = history
    return LogisticModel(
        schema=schema,
        scaler=scaler,
        weights=weights,
        bias=bias,
        config=config,
        train_meta=train_meta,
    )


def predict_proba(model: LogisticModel, vectors: np.ndarray) -> np.ndarray | float:
    """Probability of the NEGATIVE outcome for raw (unstandardized) vectors.

    Accepts a single vector (returns a float) or a matrix of row vectors
    (returns an array).
    """
    vectors = np.asarray(vectors, dtype=float)
    single = vectors.ndim == 1
    if vectors.shape[-1] != model.schema.arity:
        raise SchemaMismatchError(
            f"vector arity {vectors.shape[-1]} does not match "
            f"schema arity {model.schema.arity}"
        )
    from scipy.special import expit

    design = model.scaler.apply(vectors)
    probs = expit(design @ model.weights + model.bias)
    return float(probs) if single else probs


@dataclass(frozen=True)
class EvalMetrics:
    n: int
    accuracy: float
    tp: int
    fp: int
    tn: int
    fn: int
    auc: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "auc": None if math.isnan(self.auc) else self.auc,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
        }


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of finite ``values``, ties sharing their mean rank.

    Equal to ``scipy.stats.rankdata(values)``, whose import alone costs more
    than a second of start-up.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def evaluate(model: LogisticModel, log: EventLog) -> EvalMetrics:
    """Accuracy at threshold 0.5, confusion counts, and rank-statistic AUC.

    The NEGATIVE (reject) outcome is the positive class of the confusion
    counts. AUC is NaN when the log holds a single class.
    """
    matrix, labels = encode_log(model.schema, log)
    targets = labels_to_targets(labels)
    scores = np.atleast_1d(predict_proba(model, matrix))
    predicted = (scores >= 0.5).astype(float)

    tp = int(np.sum((predicted == 1) & (targets == 1)))
    fp = int(np.sum((predicted == 1) & (targets == 0)))
    tn = int(np.sum((predicted == 0) & (targets == 0)))
    fn = int(np.sum((predicted == 0) & (targets == 1)))
    accuracy = float((tp + tn) / len(targets))

    n_pos = int(targets.sum())
    n_neg = len(targets) - n_pos
    if n_pos == 0 or n_neg == 0:
        auc = math.nan
    else:
        ranks = _average_ranks(scores)
        auc = float(
            (ranks[targets == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        )
    return EvalMetrics(
        n=len(targets), accuracy=accuracy, tp=tp, fp=fp, tn=tn, fn=fn, auc=auc
    )


def split_log(
    log: EventLog, test_fraction: float = 0.2, seed: int = 42
) -> tuple[EventLog, EventLog]:
    """Shuffle case indices with the seed and split; order inside each part
    follows the original log."""
    if not log.traces:
        raise EmptyLogError("cannot split an empty event log")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(log.traces)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])

    def subset(indices: np.ndarray, part: str) -> EventLog:
        return EventLog(
            process_name=log.process_name,
            traces=tuple(log.traces[i] for i in indices),
            provenance={
                **dict(log.provenance),
                "split": {"part": part, "test_fraction": test_fraction, "seed": seed},
            },
        )

    return subset(train_idx, "train"), subset(test_idx, "test")


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def model_to_json_dict(model: LogisticModel) -> dict:
    return {
        "schema": model.schema.to_json_dict(),
        "scaler": model.scaler.to_json_dict(),
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
        "hyperparams": model.config.to_json_dict(),
        "train_meta": model.train_meta,
    }


def save_model(model: LogisticModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_json_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(
    path: str | Path, definition: ProcessDefinition | None = None
) -> LogisticModel:
    """Read a model file; with a definition given, refuse schema mismatches."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    schema = FeatureSchema.from_json_dict(data["schema"])
    stored_hash = data["schema"].get("hash")
    if stored_hash is not None and stored_hash != schema.schema_hash:
        raise SchemaMismatchError(
            f"model file schema hash {stored_hash} does not match its own "
            f"feature list ({schema.schema_hash}); file corrupted?"
        )
    if definition is not None:
        expected = build_schema(definition)
        if expected.schema_hash != schema.schema_hash:
            raise SchemaMismatchError(
                f"model was trained for schema {schema.schema_hash} "
                f"but the supplied definition implies {expected.schema_hash}"
            )
    scaler = Scaler.from_json_dict(data["scaler"])
    weights = np.asarray(data["weights"], dtype=float)
    for what, values in (
        ("weights", weights), ("scaler mean", scaler.mean), ("scaler std", scaler.std)
    ):
        if values.shape != (schema.arity,):
            raise SchemaMismatchError(
                f"model file {what} have shape {values.shape} but its schema has "
                f"{schema.arity} features"
            )
    return LogisticModel(
        schema=schema,
        scaler=scaler,
        weights=weights,
        bias=float(data["bias"]),
        config=TrainConfig.from_json_dict(data["hyperparams"]),
        train_meta=data.get("train_meta", {}),
    )
