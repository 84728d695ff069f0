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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .errors import (
    ConfigError,
    DivergedError,
    EmptyLogError,
    MalformedModelError,
    SchemaMismatchError,
    SingleClassLogError,
    _integer,
    _not_utf8,
    _real,
    _utf8,
)
from .features import (
    FeatureSchema,
    Scaler,
    encode_log,
    scaler_from_matrix,
)
from .jsontext import _write_json
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
    "TEST_FRACTION",
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
        _real("l2", self.l2)
        _integer("epochs", self.epochs)
        _real("tol", self.tol)
        _integer("seed", self.seed)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Trained weights plus everything needed to reproduce and apply them."""

    schema: FeatureSchema
    scaler: Scaler
    weights: np.ndarray
    bias: float
    config: TrainConfig
    train_meta: dict


def labels_to_targets(labels: tuple[str, ...]) -> np.ndarray:
    """NEGATIVE (reject) is the class the model predicts, encoded as 1."""
    return np.array([1.0 if label == NEGATIVE else 0.0 for label in labels])


def _sigmoid(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function via ``tanh``, which saturates instead of
    overflowing, so every finite logit is safe. It is
    ``0.5 * (1.0 + np.tanh(0.5 * logits))`` in one array, ``out`` when given
    (which may be ``logits``)."""
    out = np.multiply(logits, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


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
) -> LogisticModel:
    """Fit the predictor by damped Newton steps on the penalized loss.

    Each step solves the Hessian system for weights and bias together, taking
    the minimum-norm solution, so a constant or duplicated feature at
    ``l2 = 0`` (a singular Hessian) still gets a step; the step is halved
    until it strictly lowers the loss. Stops after ``config.epochs`` steps,
    as soon as the gradient's max norm drops below ``config.tol``, or when
    no halving lowers the loss (``converged`` then stays false). Raises
    ``EmptyLogError``, ``SingleClassLogError``, or ``DivergedError`` (a
    feature's mean or std over the log is not finite, or the loss is not).
    """
    matrix, labels = encode_log(schema, log)
    targets = labels_to_targets(labels)
    if len(set(labels)) < 2:
        raise SingleClassLogError(
            f"training needs both outcome labels, got only {labels[0]!r}"
        )
    scaler = scaler_from_matrix(matrix)
    finite = np.isfinite(scaler.mean) & np.isfinite(scaler.std)
    if not finite.all():
        j = int(np.argmin(finite))
        mean, std = float(scaler.mean[j]), float(scaler.std[j])
        raise DivergedError(
            f"feature {schema.names[j]!r} has non-finite scaling statistics "
            f"over the training log (mean {mean!r}, std {std!r})"
        )
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
        epochs_run += 1
        converged = float(np.max(np.abs(grad))) < config.tol

    train_meta: dict[str, Any] = {
        "n_cases": len(log),
        "epochs_run": epochs_run,
        "converged": converged,
        "final_loss": loss,
    }
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
    (returns an array), judged by the model's schema.
    """
    vectors = model.schema.check_rows(vectors, (1, 2))
    probs = predict_proba_standardized(model, model.scaler.apply(vectors))
    return float(probs) if vectors.ndim == 1 else probs


def predict_proba_standardized(model: LogisticModel, design: np.ndarray) -> np.ndarray:
    """:func:`predict_proba` for vectors already standardized by the model's
    scaler. The product runs on a C-order copy, so the result has the same
    bits whatever the memory layout of ``design``."""
    logits = np.asarray(np.ascontiguousarray(design) @ model.weights)
    logits += model.bias
    return _sigmoid(logits, out=logits)[()]  # one vector: a scalar, as before


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


def _in_open_unit(fraction: float) -> bool:
    return 0.0 < fraction < 1.0


TEST_FRACTION = 0.2
"""The held-out share of a log when none is given; ``procex train`` echoes
it as its ``split``."""


def split_log(
    log: EventLog, test_fraction: float = TEST_FRACTION, seed: int = TrainConfig.seed
) -> tuple[EventLog, EventLog]:
    """Shuffle case indices with the seed and split into (train, test) logs
    under the same process name; order inside each part follows the
    original log. The parts do not record the split."""
    if not len(log):
        raise EmptyLogError("cannot split an empty event log")
    _real("test_fraction", test_fraction, _in_open_unit, "lie in (0, 1)")
    _integer("seed", seed)
    n = len(log)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    return log.take(np.sort(perm[n_test:])), log.take(np.sort(perm[:n_test]))


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
    """Write ``model`` as strict JSON. What :func:`load_model` would refuse,
    such as a non-finite weight, raises ``MalformedModelError`` first."""
    data = model_to_json_dict(model)
    _model_from_json(data)
    _write_json(data, path)


def _model_json(
    value: object, what: str, kind: type | tuple = dict, noun: str = "an object",
    keys: Iterable[str] = (),
) -> Any:
    """``value`` if it has JSON type ``kind`` (a ``dict`` is an object) and
    holds each of ``keys``; otherwise ``MalformedModelError`` names ``what``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedModelError(f"{what} is {json.dumps(value)}, not {noun}")
    for key in keys:
        if key not in value:
            raise MalformedModelError(f"{what} has no {key!r}")
    return value


def _model_number(value: object, what: str, non_negative: bool = False) -> float:
    """``value`` as a float if it is a finite JSON number (not negative, if
    so asked); otherwise ``MalformedModelError`` names ``what``."""
    _model_json(value, f"model file {what}", (int, float), "a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number) or (non_negative and number < 0):
        kind = "finite non-negative" if non_negative else "finite"
        raise MalformedModelError(f"model file {what} is {number!r}, not a {kind} number")
    return number


def load_model(
    path: str | Path, definition: ProcessDefinition | None = None
) -> LogisticModel:
    """Read a model file; with a definition given, refuse schema mismatches.
    A file that is not JSON, a missing field, a field of the wrong JSON
    type, a weight, bias or scaler statistic that is not a finite number, a
    negative scaler std, a hyperparameter :class:`TrainConfig` refuses or a
    byte that is not UTF-8 raises ``MalformedModelError``."""
    with _utf8(path, _not_utf8(MalformedModelError)), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past int's digit limit
        raise MalformedModelError(f"model file is not JSON ({exc})") from None
    return _model_from_json(data, definition)


def _model_from_json(
    data: object, definition: ProcessDefinition | None = None
) -> LogisticModel:
    data = _model_json(
        data, "model file", keys=("schema", "scaler", "weights", "bias", "hyperparams")
    )
    stored = _model_json(data["schema"], "model file schema", keys=("process", "features"))
    features = _model_json(stored["features"], "model file schema features", list, "a list")
    for i, feature in enumerate(features):
        _model_json(
            feature, f"model file schema feature {i}", keys=("name", "kind", "lower", "upper")
        )
    schema = FeatureSchema.from_json_dict(stored)
    stored_hash = stored.get("hash")
    if stored_hash is not None and stored_hash != schema.schema_hash:
        raise SchemaMismatchError(
            f"model file schema hash {stored_hash} does not match its own "
            f"feature list ({schema.schema_hash}); file corrupted?"
        )
    if definition is not None:
        schema.check_definition(definition)
    scaler = _model_json(data["scaler"], "model file scaler", keys=("mean", "std"))
    vectors = {
        "weights": data["weights"],
        "scaler mean": scaler["mean"],
        "scaler std": scaler["std"],
    }
    for what, values in vectors.items():
        _model_json(values, f"model file {what}", list, "a list of numbers")
        if len(values) != schema.arity:
            raise SchemaMismatchError(
                f"model file {what} have shape ({len(values)},) but its schema has "
                f"{schema.arity} features"
            )
        for name, value in zip(schema.names, values):
            _model_number(value, f"{what} of feature {name!r}", what == "scaler std")
    # Files written by the gradient-descent trainer also carry a
    # ``learning_rate``; it no longer means anything and is not read.
    names = [f.name for f in fields(TrainConfig)]
    hyperparams = _model_json(data["hyperparams"], "model file hyperparams", keys=names)
    try:
        config = TrainConfig(**{name: hyperparams[name] for name in names})
    except ConfigError as exc:
        raise MalformedModelError(f"model file hyperparams: {exc}") from None
    return LogisticModel(
        schema=schema,
        scaler=Scaler.from_json_dict(scaler),
        weights=np.asarray(data["weights"], dtype=float),
        bias=_model_number(data["bias"], "bias"),
        config=config,
        train_meta=data.get("train_meta", {}),
    )
