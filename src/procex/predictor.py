"""Binary outcome predictor: L2-regularized logistic regression.

The model predicts the probability of the NEGATIVE outcome (a rejection),
which is encoded as target 1. Training minimizes the penalized mean logistic
loss exactly, by damped Newton steps from zero-initialized weights over
standardized features, so a given (log, hyperparameters) pair always yields
byte-identical model files. Only numpy is used.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (
    ConfigError,
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
    scaler_from_matrix,
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
    "predict_proba_standardized",
    "evaluate",
    "split_log",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class TrainConfig:
    """``epochs`` caps the Newton iterations; training stops earlier once the
    gradient's max norm falls below ``tol``."""

    l2: float = 1e-3
    epochs: int = 2000
    tol: float = 1e-6
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("l2", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{name} must be a finite non-negative number, got {value}"
                )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")

    def to_json_dict(self) -> dict:
        return {
            "l2": self.l2,
            "epochs": self.epochs,
            "tol": self.tol,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TrainConfig":
        # Files written by the gradient-descent trainer also carry a
        # ``learning_rate``; it no longer means anything and is not read.
        return TrainConfig(
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


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    """Logistic function via ``tanh``, which saturates instead of
    overflowing, so every finite logit is safe."""
    return 0.5 * (1.0 + np.tanh(0.5 * logits))


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
    residual = _sigmoid(logits) - targets
    grad_w = design.T @ residual / n + l2 * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


_MAX_HALVINGS = 50


def train(
    log: EventLog,
    schema: FeatureSchema,
    config: TrainConfig = TrainConfig(),
    track_loss: bool = False,
) -> LogisticModel:
    """Fit the predictor by damped Newton steps on the penalized loss.

    Each step solves the Hessian system for weights and bias together, taking
    the minimum-norm solution, so a constant or duplicated feature at
    ``l2 = 0`` (a singular Hessian) still gets a step; the step is halved
    until it strictly lowers the loss. Stops after ``config.epochs`` steps,
    as soon as the gradient's max norm drops below ``config.tol``, or when
    no halving lowers the loss (``converged`` then stays false). Raises ``EmptyLogError``, ``SingleClassLogError``, or
    ``DivergedError`` (non-finite loss).
    """
    matrix, labels = encode_log(schema, log)
    targets = labels_to_targets(labels)
    if len(set(labels)) < 2:
        raise SingleClassLogError(
            f"training needs both outcome labels, got only {labels[0]!r}"
        )
    scaler = scaler_from_matrix(matrix)
    design = scaler.apply(matrix)
    n, k = design.shape
    # The bias is the last parameter, and the only unpenalized one.
    augmented = np.hstack([design, np.ones((n, 1))])
    penalty = np.diag(np.r_[np.full(k, config.l2), 0.0])

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad_w, grad_b = loss_and_gradient(
            params[:k], params[k], design, targets, config.l2
        )
        return loss, np.r_[grad_w, grad_b]

    params = np.zeros(k + 1)
    loss, grad = objective(params)
    if not math.isfinite(loss):
        # Accepted steps never raise the loss, so only the start can fail.
        raise DivergedError("loss is non-finite at the zero-weight start")
    history = [loss]
    epochs_run = 0
    converged = float(np.max(np.abs(grad))) < config.tol
    while not converged and epochs_run < config.epochs:
        probs = _sigmoid(augmented @ params)
        hessian = (augmented.T * (probs * (1.0 - probs))) @ augmented / n + penalty
        step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        rate = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = params - rate * step
            candidate_loss, candidate_grad = objective(candidate)
            if candidate_loss < loss:
                break
            rate /= 2
        else:
            break  # no halving lowers the loss: the fit is as close as it gets
        params, loss, grad = candidate, candidate_loss, candidate_grad
        history.append(loss)
        epochs_run += 1
        converged = float(np.max(np.abs(grad))) < config.tol

    train_meta: dict[str, Any] = {
        "n_cases": len(log.traces),
        "epochs_run": epochs_run,
        "converged": converged,
        "final_loss": loss,
    }
    if track_loss:
        train_meta["loss_history"] = history
    return LogisticModel(
        schema=schema,
        scaler=scaler,
        weights=params[:k],
        bias=float(params[k]),
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
    probs = predict_proba_standardized(model, model.scaler.apply(vectors))
    return float(probs) if single else probs


def predict_proba_standardized(model: LogisticModel, design: np.ndarray) -> np.ndarray:
    """:func:`predict_proba` for vectors already standardized by the model's
    scaler. The product runs on a C-order copy, so the result has the same
    bits whatever the memory layout of ``design``."""
    return _sigmoid(np.ascontiguousarray(design) @ model.weights + model.bias)


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
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
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
