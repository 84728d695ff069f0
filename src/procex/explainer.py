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

Memory layout. One explanation writes its ``n + 1`` samples into one
feature-major ``(k, n + 1)`` block, column 0 the instance; noise, clamping,
flips and the executor's indicator rows go straight into its rows, so every
step runs a whole feature at a time. The samplers return the block's
transposed view: ``(n + 1, k)`` like any sample matrix, but Fortran-ordered.
The block is standardized once, into a buffer that also holds the
surrogate's intercept column; the predictions, the kernel distances and the
surrogate design all read that one standardization. The public steps
(:func:`kernel_weights`, :func:`fit_surrogate`,
:func:`~procex.predictor.predict_proba`) standardize for themselves and then
run the same helpers, so composing them gives the same bits as
:func:`explain_detailed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamplesError,
    NoFeaturesError,
    RejectionBudgetExhaustedError,
    SchemaMismatchError,
    SingularSystemError,
)
from .features import FeatureSchema, Scaler, build_schema, split_columns
from .predictor import LogisticModel, predict_proba_standardized
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
    """Samples (row 0 is the instance itself), predictions, kernel weights.

    ``samples`` has shape ``(n + 1, k)`` but is the transposed view of the
    feature-major sample block, so it may be Fortran-ordered; use
    ``np.ascontiguousarray`` where row-major memory matters.
    """

    instance: np.ndarray
    samples: np.ndarray
    predictions: np.ndarray
    kernel_weights: np.ndarray
    mode: str
    strategy: str | None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _sample_block(instance: np.ndarray, n: int) -> np.ndarray:
    """Feature-major ``(k, n + 1)`` block for ``n`` samples; column 0 holds
    the instance, the samplers write the other columns in place."""
    block = np.empty((len(instance), n + 1))
    block[:, 0] = instance
    return block


def _numeric_noise(
    block: np.ndarray,
    schema: FeatureSchema,
    scaler: Scaler,
    spread: float,
    rng: np.random.Generator,
) -> None:
    """Gaussian perturbations of the numeric rows, clamped to bounds.

    The numeric features lead the schema, so their rows lead the block.
    """
    numeric = schema.features[: len(schema.numeric_indices)]
    m, n = len(numeric), block.shape[1] - 1
    rows = block[:m, 1:]
    sigma = spread * scaler.std[:m]
    lower = np.array([-np.inf if f.lower is None else f.lower for f in numeric])
    upper = np.array([np.inf if f.upper is None else f.upper for f in numeric])
    np.multiply(rng.standard_normal((n, m)).T, sigma[:, None], out=rows)
    rows += block[:m, :1]
    np.clip(rows, lower[:, None], upper[:, None], out=rows)


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
    block = _sample_block(np.asarray(instance, dtype=float), n)
    m = len(schema.numeric_indices)
    _numeric_noise(block, schema, scaler, spread, rng)
    rows = block[m:, 1:]
    np.less(rng.random((n, schema.arity - m)).T, flip_p, out=rows)  # 1.0: flip
    np.subtract(block[m:, :1], rows, out=rows)
    np.abs(rows, out=rows)
    return block.T


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
    m = len(schema.numeric_indices)
    block = _sample_block(instance, n)
    if strategy == PROPAGATE:
        _numeric_noise(block, schema, scaler, spread, rng)
        columns = {schema.names[i]: block[i, 1:] for i in range(m)}
        execute_rows(defn, columns, n, lambda arrived: rng.random(n), out=block[m:, 1:])
        return block.T
    if strategy == REJECT:
        n_kept = 0
        attempts = 0
        budget = REJECT_BUDGET_FACTOR * n
        while n_kept < n and attempts < budget:
            batch = sample_vanilla(instance, schema, scaler, n, spread, flip_p, rng)[1:]
            attempts += n
            columns, indicators = split_columns(schema, batch, defn.activity_names)
            accepted = batch[conformant_rows(defn, columns, indicators)][: n - n_kept]
            block[:, 1 + n_kept : 1 + n_kept + len(accepted)] = accepted.T
            n_kept += len(accepted)
        if n_kept < n:
            raise RejectionBudgetExhaustedError(
                f"kept only {n_kept} of {n} samples after {attempts} attempts"
            )
        return block.T
    raise ConfigError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Standardization, kernel and surrogate
# ---------------------------------------------------------------------------

def _standardize(scaler: Scaler, samples: np.ndarray) -> np.ndarray:
    """The samples standardized once, after a column of ones: the
    ``(n + 1, k + 1)`` view of one feature-major buffer. Column 0 is the
    surrogate's intercept; columns ``1..k`` feed the predictor, the kernel
    and the surrogate design."""
    buffer = np.empty((samples.shape[1] + 1, len(samples)))
    buffer[0] = 1.0
    scaler.apply(samples, out=buffer[1:].T)
    return buffer.T


def _kernel(center: np.ndarray, standardized: np.ndarray, width: float) -> np.ndarray:
    """:func:`kernel_weights` on standardized rows and instance.

    The squared distance is summed feature by feature in schema order, so it
    has the same bits whatever the layout of ``standardized``.
    """
    sq_dist = np.zeros(len(standardized))
    delta = np.empty(len(standardized))
    for j, value in enumerate(center):
        np.subtract(standardized[:, j], value, out=delta)
        delta *= delta
        sq_dist += delta
    return np.exp(-sq_dist / (width * width))


def kernel_weights(
    instance: np.ndarray,
    samples: np.ndarray,
    scaler: Scaler,
    width: float,
) -> np.ndarray:
    """Exponential kernel ``exp(-d^2 / width^2)`` on standardized distance."""
    return _kernel(scaler.apply(instance), scaler.apply(samples), width)


def _fit(
    augmented: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    ridge: float,
) -> tuple[np.ndarray, float, float]:
    """:func:`fit_surrogate` on a feature-major (Fortran-order) design whose
    column 0 is the intercept's column of ones."""
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    k = augmented.shape[1] - 1
    if int(np.count_nonzero(weights > 0)) < k + 1:
        raise InsufficientSamplesError(
            f"need at least {k + 1} positively weighted samples, "
            f"got {int(np.count_nonzero(weights > 0))}"
        )
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
    n, k = design.shape
    # Feature-major like the design explain_detailed fits, for the same bits.
    augmented = np.empty((k + 1, n)).T
    augmented[:, 0] = 1.0
    augmented[:, 1:] = design
    return _fit(augmented, targets, weights, ridge)


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
    if schema.arity == 0:
        raise NoFeaturesError(
            f"process {defn.name!r} has neither attributes nor activities, "
            f"so there are no features to attribute"
        )
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
    augmented = _standardize(scaler, samples)
    standardized = augmented[:, 1:]
    predictions = predict_proba_standardized(model, standardized)
    width = config.resolved_width(schema.arity)
    weights = _kernel(standardized[0], standardized, width)

    if config.collapse_derived:
        columns = schema.numeric_indices
    else:
        columns = np.arange(schema.arity)
    # Numeric features lead the schema, so either column set is a prefix.
    coef, intercept, fidelity = _fit(
        augmented[:, : len(columns) + 1], predictions, weights, config.ridge
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
