"""Local surrogate explanations: vanilla and process-aware perturbation LIME.

Both modes share the same skeleton: sample feature vectors around the
instance, query the black-box predictor on each, weight samples by an
exponential kernel on standardized distance, and fit a weighted ridge
surrogate whose coefficients become the attributions. They differ only in how
samples are produced:

* vanilla ignores the process: numeric features get Gaussian noise, activity
  indicators are flipped independently, so many samples describe executions
  the process can never produce;
* process-aware keeps every sample conformant, either by perturbing only the
  attributes and re-deriving the indicators through actual process execution
  (``propagate``, the default) or by filtering vanilla candidates through the
  conformance oracle (``reject``).

RNG draw order is part of the reproducibility contract. Vanilla: one normal
matrix for numeric noise, then one uniform matrix for indicator flips.
Propagate: one normal matrix, then the simulator's executor
:func:`~procex.process_model.execute_rows` reads one uniform vector per choice
gateway in topological order (drawn whether or not any sample reaches it).
Reject: vanilla-shaped batches of size n until enough samples are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamplesError,
    RejectionBudgetExhaustedError,
    SchemaMismatchError,
    SingularSystemError,
)
from .features import FeatureSchema, Scaler, build_schema, split_columns
from .predictor import LogisticModel, predict_proba
from .process_model import ProcessDefinition, conformant_rows, execute_rows

__all__ = [
    "VANILLA",
    "PROCESS_AWARE",
    "PROPAGATE",
    "REJECT",
    "ExplainConfig",
    "PerturbationSet",
    "Explanation",
    "default_kernel_width",
    "sample_vanilla",
    "sample_process_aware",
    "kernel_weights",
    "fit_surrogate",
    "explain",
    "explain_detailed",
]

VANILLA = "vanilla"
PROCESS_AWARE = "process_aware"
PROPAGATE = "propagate"
REJECT = "reject"

REJECT_BUDGET_FACTOR = 100


def default_kernel_width(arity: int) -> float:
    return 0.75 * math.sqrt(arity)


@dataclass(frozen=True)
class ExplainConfig:
    """Everything that parameterizes one explanation run."""

    mode: str = VANILLA
    strategy: str = PROPAGATE
    n_samples: int = 5000
    spread: float = 1.0
    flip_p: float = 0.5
    kernel_width: float | None = None
    ridge: float = 1.0
    seed: int = 0
    collapse_derived: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (VANILLA, PROCESS_AWARE):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.strategy not in (PROPAGATE, REJECT):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be at least 1, got {self.n_samples}")
        for name in ("spread", "ridge"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{name} must be a finite non-negative number, got {value}"
                )
        if not 0.0 <= self.flip_p <= 1.0:
            raise ConfigError(f"flip_p must lie in [0, 1], got {self.flip_p}")
        if self.kernel_width is not None and not self.kernel_width > 0:
            raise ConfigError(f"kernel_width must be positive, got {self.kernel_width}")
        if self.collapse_derived and self.mode != PROCESS_AWARE:
            raise ConfigError("collapse_derived applies to process_aware mode only")

    def resolved_width(self, arity: int) -> float:
        if self.kernel_width is not None:
            return self.kernel_width
        return default_kernel_width(arity)

    def to_json_dict(self, arity: int | None = None) -> dict:
        width = self.kernel_width
        if width is None and arity is not None:
            width = self.resolved_width(arity)
        return {
            "mode": self.mode,
            "strategy": self.strategy if self.mode == PROCESS_AWARE else None,
            "n_samples": self.n_samples,
            "spread": self.spread,
            "flip_p": self.flip_p,
            "kernel_width": width,
            "ridge": self.ridge,
            "seed": self.seed,
            "collapse_derived": self.collapse_derived,
        }


@dataclass(frozen=True, eq=False)
class PerturbationSet:
    """Samples (row 0 is the instance itself), predictions, kernel weights."""

    instance: np.ndarray
    samples: np.ndarray
    predictions: np.ndarray
    kernel_weights: np.ndarray
    mode: str
    strategy: str | None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _numeric_noise(
    instance: np.ndarray,
    schema: FeatureSchema,
    scaler: Scaler,
    n: int,
    spread: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Gaussian perturbations of the numeric block, clamped to bounds."""
    idx = schema.numeric_indices
    center = instance[idx]
    sigma = spread * scaler.std[idx]
    values = rng.standard_normal((n, len(idx))) * sigma + center
    lower = np.array(
        [-np.inf if f.lower is None else f.lower
         for f in schema.features if f.kind == "numeric"]
    )
    upper = np.array(
        [np.inf if f.upper is None else f.upper
         for f in schema.features if f.kind == "numeric"]
    )
    return np.clip(values, lower, upper)


def sample_vanilla(
    instance: np.ndarray,
    schema: FeatureSchema,
    scaler: Scaler,
    n: int,
    spread: float,
    flip_p: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Process-blind sampling; returns ``n + 1`` rows, the instance first."""
    instance = np.asarray(instance, dtype=float)
    num_idx = schema.numeric_indices
    bin_idx = schema.binary_indices
    numeric = _numeric_noise(instance, schema, scaler, n, spread, rng)
    flips = rng.random((n, len(bin_idx))) < flip_p
    indicators = np.abs(instance[bin_idx] - flips)
    out = np.tile(instance, (n + 1, 1))
    out[1:, num_idx] = numeric
    out[1:, bin_idx] = indicators
    return out


def sample_process_aware(
    instance: np.ndarray,
    defn: ProcessDefinition,
    schema: FeatureSchema,
    scaler: Scaler,
    n: int,
    spread: float,
    strategy: str,
    rng: np.random.Generator,
    flip_p: float = 0.5,
) -> np.ndarray:
    """Conformance-preserving sampling; returns ``n + 1`` rows, instance first.

    ``propagate`` perturbs only the attributes and derives the indicators by
    running the process on them; ``reject`` draws vanilla candidates and keeps
    conformant ones, giving up after ``100 * n`` attempts.
    """
    instance = np.asarray(instance, dtype=float)
    num_idx = schema.numeric_indices
    bin_idx = schema.binary_indices
    if strategy == PROPAGATE:
        numeric = _numeric_noise(instance, schema, scaler, n, spread, rng)
        numeric_names = [f.name for f in schema.features if f.kind == "numeric"]
        columns = {name: numeric[:, j] for j, name in enumerate(numeric_names)}
        indicators, _ = execute_rows(defn, columns, n, lambda arrived: rng.random(n))
        out = np.tile(instance, (n + 1, 1))
        out[1:, num_idx] = numeric
        out[1:, bin_idx] = indicators
        return out
    if strategy == REJECT:
        kept = [instance[None, :]]
        n_kept = 0
        attempts = 0
        budget = REJECT_BUDGET_FACTOR * n
        while n_kept < n and attempts < budget:
            batch = sample_vanilla(instance, schema, scaler, n, spread, flip_p, rng)[1:]
            attempts += n
            columns, indicators = split_columns(schema, batch, defn.activity_names)
            accepted = batch[conformant_rows(defn, columns, indicators)][: n - n_kept]
            kept.append(accepted)
            n_kept += len(accepted)
        if n_kept < n:
            raise RejectionBudgetExhaustedError(
                f"kept only {n_kept} of {n} samples after {attempts} attempts"
            )
        return np.vstack(kept)
    raise ConfigError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Kernel and surrogate
# ---------------------------------------------------------------------------

def kernel_weights(
    instance: np.ndarray,
    samples: np.ndarray,
    scaler: Scaler,
    width: float,
) -> np.ndarray:
    """Exponential kernel ``exp(-d^2 / width^2)`` on standardized distance."""
    delta = scaler.apply(samples) - scaler.apply(np.asarray(instance, dtype=float))
    sq_dist = np.sum(delta * delta, axis=1)
    return np.exp(-sq_dist / (width * width))


def fit_surrogate(
    design: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    ridge: float,
) -> tuple[np.ndarray, float, float]:
    """Weighted ridge fit via the normal equations (intercept unpenalized).

    ``design`` holds standardized sample rows without an intercept column.
    Returns ``(coefficients, intercept, fidelity_r2)`` where fidelity is the
    weighted R² of the fit, defined as 0 for a zero-variance target.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, k = design.shape
    if int(np.count_nonzero(weights > 0)) < k + 1:
        raise InsufficientSamplesError(
            f"need at least {k + 1} positively weighted samples, "
            f"got {int(np.count_nonzero(weights > 0))}"
        )
    augmented = np.hstack([np.ones((n, 1)), design])
    weighted = augmented * weights[:, None]
    gram = augmented.T @ weighted
    gram[1:, 1:] += ridge * np.eye(k)
    rhs = weighted.T @ targets
    try:
        np.linalg.cholesky(gram)  # succeeds only if gram is positive definite
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "normal equations are singular; the design is rank-deficient "
            "and ridge is 0"
        ) from None
    beta = np.linalg.solve(gram, rhs)
    fitted = augmented @ beta
    total_weight = weights.sum()
    target_mean = float(weights @ targets) / total_weight
    ss_tot = float(weights @ (targets - target_mean) ** 2)
    ss_res = float(weights @ (targets - fitted) ** 2)
    if ss_tot < 1e-24:
        fidelity = 0.0
    else:
        fidelity = 1.0 - ss_res / ss_tot
    return beta[1:], float(beta[0]), fidelity


# ---------------------------------------------------------------------------
# Explanation assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Explanation:
    """Ranked attributions for one instance under one sampling mode.

    ``attributions`` are standardized-unit surrogate coefficients (the
    bar-chart values); ``attributions_raw`` divides each by the feature's
    training std, giving per-raw-unit slopes. Ordering is by descending
    absolute standardized weight, ties broken by feature name.
    """

    mode: str
    strategy: str | None
    instance_id: str
    prediction: float
    attributions: tuple[tuple[str, float], ...]
    attributions_raw: tuple[tuple[str, float], ...]
    intercept: float
    fidelity_r2: float
    n_samples: int
    seed: int
    kernel_width: float
    config: tuple[tuple[str, object], ...]

    @cached_property
    def _ranks(self) -> dict[str, int]:
        return {name: i + 1 for i, (name, _) in enumerate(self.attributions)}

    def rank_of(self, feature: str) -> int:
        """1-based position of a feature in the attribution ordering."""
        try:
            return self._ranks[feature]
        except KeyError:
            raise SchemaMismatchError(f"no attribution for feature {feature!r}") from None

    def top_features(self, k: int) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributions[:k])

    def weight_of(self, feature: str) -> float:
        return self.attributions[self.rank_of(feature) - 1][1]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "instance_id": self.instance_id,
            "prediction": self.prediction,
            "attributions": [
                {"feature": name, "weight": weight}
                for name, weight in self.attributions
            ],
            "attributions_raw": [
                {"feature": name, "weight": weight}
                for name, weight in self.attributions_raw
            ],
            "intercept": self.intercept,
            "fidelity_r2": self.fidelity_r2,
            "config": dict(self.config),
        }


def _check_definition(model: LogisticModel, defn: ProcessDefinition) -> None:
    expected = build_schema(defn)
    if expected.schema_hash != model.schema.schema_hash:
        raise SchemaMismatchError(
            f"model schema {model.schema.schema_hash} does not match the "
            f"definition's schema {expected.schema_hash}"
        )


def explain_detailed(
    model: LogisticModel,
    defn: ProcessDefinition,
    instance: np.ndarray,
    config: ExplainConfig = ExplainConfig(),
    instance_id: str = "",
) -> tuple[Explanation, PerturbationSet]:
    """Run the full pipeline and keep the perturbation set for inspection."""
    _check_definition(model, defn)
    instance = np.asarray(instance, dtype=float)
    schema = model.schema
    if instance.shape != (schema.arity,):
        raise SchemaMismatchError(
            f"instance shape {instance.shape} does not fit schema arity {schema.arity}"
        )
    if not np.isfinite(instance).all():
        bad = [schema.names[i] for i in np.flatnonzero(~np.isfinite(instance))]
        raise SchemaMismatchError(f"instance has non-finite value(s) for {bad}")
    scaler = model.scaler
    rng = np.random.default_rng(config.seed)
    if config.mode == VANILLA:
        samples = sample_vanilla(
            instance, schema, scaler,
            config.n_samples, config.spread, config.flip_p, rng,
        )
        strategy = None
    else:
        samples = sample_process_aware(
            instance, defn, schema, scaler,
            config.n_samples, config.spread, config.strategy, rng,
            flip_p=config.flip_p,
        )
        strategy = config.strategy
    predictions = np.atleast_1d(predict_proba(model, samples))
    width = config.resolved_width(schema.arity)
    weights = kernel_weights(instance, samples, scaler, width)

    if config.collapse_derived:
        columns = schema.numeric_indices
    else:
        columns = np.arange(schema.arity)
    design = scaler.apply(samples)[:, columns]
    coef, intercept, fidelity = fit_surrogate(
        design, predictions, weights, config.ridge
    )

    std_weights = np.zeros(schema.arity)
    std_weights[columns] = coef
    raw_weights = std_weights / scaler.scale
    order = sorted(
        range(schema.arity),
        key=lambda i: (-abs(std_weights[i]), schema.names[i]),
    )
    explanation = Explanation(
        mode=config.mode,
        strategy=strategy,
        instance_id=instance_id,
        prediction=float(predictions[0]),
        attributions=tuple(
            (schema.names[i], float(std_weights[i])) for i in order
        ),
        attributions_raw=tuple(
            (schema.names[i], float(raw_weights[i])) for i in order
        ),
        intercept=intercept,
        fidelity_r2=fidelity,
        n_samples=config.n_samples,
        seed=config.seed,
        kernel_width=width,
        config=tuple(sorted(config.to_json_dict(schema.arity).items())),
    )
    perturbations = PerturbationSet(
        instance=instance,
        samples=samples,
        predictions=predictions,
        kernel_weights=weights,
        mode=config.mode,
        strategy=strategy,
    )
    return explanation, perturbations


def explain(
    model: LogisticModel,
    defn: ProcessDefinition,
    instance: np.ndarray,
    config: ExplainConfig = ExplainConfig(),
    instance_id: str = "",
) -> Explanation:
    """Explain one prediction; see :func:`explain_detailed` for the samples."""
    explanation, _ = explain_detailed(model, defn, instance, config, instance_id)
    return explanation
