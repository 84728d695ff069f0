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

RNG draw order is part of the reproducibility contract. Every explanation
seeds a generator with its config's seed. Vanilla: one normal matrix for
numeric noise, then one uniform matrix for indicator flips. Propagate: one
normal matrix, then the simulator's executor
:func:`~procex.process_model.execute_rows` reads one uniform vector per choice
gateway in topological order (drawn whether or not any sample reaches it).
Reject: vanilla-shaped batches of size n until enough samples are kept.
Vanilla and propagate draw the same first matrix, ``standard_normal((n, m))``
for ``m`` attributes, so for one seed and instance their attribute rows are
bit-identical and only the indicator columns differ:
:func:`~procex.evaluation.run_comparison` compares the modes on the same
attribute samples.
One dispatch, :func:`_sampler`, picks the strategy for :func:`explain`,
:func:`~procex.evaluation.run_comparison` and the public samplers alike.
Vanilla and propagate draws do not depend on the instance, so one builder,
:func:`_sample_builder`, draws a sample set's variates once and builds any
instance's samples from them: for one instance, or in ``run_comparison``
for every instance of a seed, holding one seed's two draw sets at a time.
Reject's later batches depend on what an instance accepts, so reject draws
per instance.

Memory layout. One explanation writes its ``n + 1`` samples into one
feature-major ``(k, n + 1)`` block, column 0 the instance; noise, clamping,
flips and the executor's indicator rows go straight into its rows, so every
step runs a whole feature at a time. The samplers return the block's
transposed view: ``(n + 1, k)`` like any sample matrix, but Fortran-ordered.
The block is standardized once, into a buffer that also holds the
surrogate's intercept column; the predictions, the kernel distances and the
surrogate design all read that one standardization, with no copy. The
predictor and the kernel share one summation rule,
:func:`~procex.predictor._feature_sums`: the per-feature terms (each weight
times its standardized row; each squared difference from the instance) go
into a C-order ``(k, n + 1)`` scratch block, and one ``np.add.reduce`` over
its rows, which numpy adds one row after another, sums them feature by
feature in schema order: the bits of a loop over the features, whatever the
layout and without BLAS. So an explanation's prediction has the bits of
:func:`~procex.predictor.predict_proba` on the instance alone. The kernel
then divides its sums in place by ``-(width * width)`` (IEEE division is
sign-symmetric, so these are the bits of negating them first) and
exponentiates them in place. The public steps
(:func:`sample_vanilla`, :func:`sample_process_aware`, :func:`kernel_weights`,
:func:`fit_surrogate`, :func:`~procex.predictor.predict_proba`) standardize
for themselves and then run the same helpers, so composing them gives the
same bits as :func:`explain_detailed`. Each judges its settings by an
:class:`ExplainConfig` and its rows by the schema's
:meth:`~procex.features.FeatureSchema.check_rows`, as :func:`explain`
does, so a step refuses what ``explain`` refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    InsufficientSamplesError,
    NoFeaturesError,
    RejectionBudgetExhaustedError,
    SchemaMismatchError,
    SingularSystemError,
    _integer,
    _real,
)
from .features import NUMERIC, Feature, FeatureSchema, Scaler, split_columns
from .predictor import LogisticModel, _feature_sums, predict_proba_standardized
from .process_model import ProcessDefinition, conformant_rows, execute_rows

__all__ = [
    "VANILLA",
    "PROCESS_AWARE",
    "PROPAGATE",
    "REJECT",
    "ExplainConfig",
    "PerturbationSet",
    "Explanation",
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


def _finite_positive(number: float) -> bool:
    return math.isfinite(number) and number > 0


def _in_unit(p: float) -> bool:
    return 0.0 <= p <= 1.0


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
        _integer("n_samples", self.n_samples, 1, "be at least 1")
        _real("spread", self.spread)
        _real("flip_p", self.flip_p, _in_unit, "lie in [0, 1]")
        width = self.kernel_width
        if width is not None:  # the kernel divides by its square
            _real("kernel_width", width, _finite_positive, "be a finite positive number")
            if width * width == 0:
                raise ConfigError(f"kernel_width {width} is too small: its square underflows to 0")
        _real("ridge", self.ridge)
        _integer("seed", self.seed)
        if type(self.collapse_derived) is not bool:
            shown = repr(self.collapse_derived)
            raise ConfigError(f"collapse_derived must be True or False, got {shown}")
        if self.collapse_derived and self.mode != PROCESS_AWARE:
            raise ConfigError("collapse_derived applies to process_aware mode only")

    def resolved_width(self, arity: int) -> float:
        if self.kernel_width is not None:
            return self.kernel_width
        return 0.75 * math.sqrt(arity)

    def to_json_dict(self, arity: int) -> dict:
        """The settings as an explanation records them, the kernel width
        resolved for ``arity`` features."""
        data = dict(vars(self))  # the fields: the class caches nothing on itself
        if self.mode != PROCESS_AWARE:
            data["strategy"] = None
        data["kernel_width"] = self.resolved_width(arity)
        return data


@dataclass(frozen=True, eq=False)
class PerturbationSet:
    """Samples (row 0 is the instance itself), predictions, kernel weights;
    the mode and strategy that made them are on the :class:`Explanation`.

    ``samples`` has shape ``(n + 1, k)`` but is the transposed view of the
    feature-major sample block, so it may be Fortran-ordered; use
    ``np.ascontiguousarray`` where row-major memory matters.
    """

    samples: np.ndarray
    predictions: np.ndarray
    kernel_weights: np.ndarray


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _sample_block(instance: np.ndarray, n: int) -> np.ndarray:
    """Feature-major ``(k, n + 1)`` block for ``n`` samples; column 0 holds
    the instance, the samplers write the other columns in place."""
    block = np.empty((len(instance), n + 1))
    block[:, 0] = instance
    return block


def _sample_builder(
    schema: FeatureSchema,
    scaler: Scaler,
    config: ExplainConfig,
    defn: ProcessDefinition | None,
    rng: np.random.Generator,
) -> Callable[[np.ndarray], np.ndarray]:
    """Draw one sample set's variates for ``config``'s ``n_samples``,
    ``spread`` and ``flip_p`` once, in the documented order: vanilla's if
    ``defn`` is None, else propagate's for ``defn``. Returns the function
    that builds any instance's samples from them, the instance first. The
    numeric features lead the schema, so their rows lead the block."""
    n, flip_p = config.n_samples, config.flip_p
    m = len(schema.numeric_indices)
    normals = rng.standard_normal((n, m)).T
    lower, upper = schema.numeric_bounds
    if defn is None:
        uniforms = rng.random((n, schema.arity - m)).T
    else:
        uniforms = [rng.random(n) for _ in defn.choice_gateways]

    def build(instance: np.ndarray) -> np.ndarray:
        block = _sample_block(instance, n)
        rows = block[:m, 1:]
        with np.errstate(over="ignore"):  # an infinite sigma or sample clamps to a bound
            sigma = config.spread * scaler.std[:m, None]
            np.multiply(normals, sigma, out=rows)
            rows += block[:m, :1]
        rows.clip(lower, upper, out=rows)
        indicators = block[m:, 1:]
        if defn is None:
            np.less(uniforms, flip_p, out=indicators)  # 1.0: flip
            np.subtract(block[m:, :1], indicators, out=indicators)
            np.abs(indicators, out=indicators)
        else:
            columns = {schema.names[i]: block[i, 1:] for i in range(m)}
            draws = iter(uniforms)
            execute_rows(defn, columns, n, lambda arrived: next(draws), out=indicators)
        return block.T

    return build


def _sampler(
    defn: ProcessDefinition | None,
    schema: FeatureSchema,
    scaler: Scaler,
    config: ExplainConfig,
    rng: np.random.Generator | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """The samples of ``config`` for any checked instance, ``n + 1`` rows,
    the instance first: the one place that picks the strategy (``defn`` is
    read in process-aware mode only). ``propagate`` perturbs only the
    attributes and runs the process on them for the indicators; ``reject``
    keeps the conformant rows of vanilla batches, giving up after
    ``100 * n`` attempts. The draws come from ``rng`` if given, else from a
    generator seeded with ``config.seed``: once per sample set for vanilla
    and propagate, once per instance for reject, whose later draws depend
    on what the instance accepts."""
    if config.mode == VANILLA or config.strategy == PROPAGATE:
        propagate = defn if config.mode == PROCESS_AWARE else None
        draws = np.random.default_rng(config.seed) if rng is None else rng
        return _sample_builder(schema, scaler, config, propagate, draws)
    n = config.n_samples

    def reject(instance: np.ndarray) -> np.ndarray:
        draws = np.random.default_rng(config.seed) if rng is None else rng
        block = _sample_block(instance, n)
        n_kept = attempts = 0
        while n_kept < n and attempts < REJECT_BUDGET_FACTOR * n:
            batch = _sample_builder(schema, scaler, config, None, draws)(instance)[1:]
            attempts += n
            columns, indicators = split_columns(schema, batch)
            accepted = batch[conformant_rows(defn, columns, indicators)][: n - n_kept]
            block[:, 1 + n_kept : 1 + n_kept + len(accepted)] = accepted.T
            n_kept += len(accepted)
        if n_kept < n:
            raise RejectionBudgetExhaustedError(
                f"kept only {n_kept} of {n} samples after {attempts} attempts"
            )
        return block.T

    return reject


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
    config = ExplainConfig(n_samples=n, spread=spread, flip_p=flip_p)
    return _sampler(None, schema, scaler, config, rng)(_checked_instance(schema, instance))


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
    """Conformance-preserving sampling by ``strategy`` (see :func:`_sampler`);
    returns ``n + 1`` rows, the instance first."""
    config = ExplainConfig(PROCESS_AWARE, strategy, n_samples=n, spread=spread, flip_p=flip_p)
    schema.check_definition(defn)
    return _sampler(defn, schema, scaler, config, rng)(_checked_instance(schema, instance))


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
    """:func:`kernel_weights` on standardized rows and instance. The squared
    differences are summed feature by feature, as the predictor sums its
    logits (:func:`~procex.predictor._feature_sums`), so the distance has
    the same bits whatever the layout of ``standardized``."""

    def squares(delta: np.ndarray) -> None:
        np.subtract(standardized.T, center[:, None], out=delta)
        np.multiply(delta, delta, out=delta)

    sq_dist = _feature_sums(squares, len(center), len(standardized))
    # -(d / w^2) and d / -(w^2) have the same bits: IEEE division is sign-symmetric.
    with np.errstate(over="ignore"):  # a distance past the float range weighs 0
        np.divide(sq_dist, -(width * width), out=sq_dist)
    return np.exp(sq_dist, out=sq_dist)


@lru_cache(maxsize=16)
def _column_schema(k: int) -> FeatureSchema:
    """The judge of the rows of the steps that take no schema: ``k`` columns."""
    return FeatureSchema("", tuple(Feature(f"column {j}", NUMERIC) for j in range(k)))


def kernel_weights(
    instance: np.ndarray,
    samples: np.ndarray,
    scaler: Scaler,
    width: float,
) -> np.ndarray:
    """Exponential kernel ``exp(-d^2 / width^2)`` on standardized distance;
    a width :class:`ExplainConfig` refuses is refused with ``ConfigError``."""
    width = ExplainConfig(kernel_width=width).kernel_width
    judge = _column_schema(len(scaler.mean))
    instance, samples = judge.check_rows(instance, (1,)), judge.check_rows(samples)
    return _kernel(scaler.apply(instance), scaler.apply(samples), width)


def _fit(
    augmented: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    ridge: float,
) -> tuple[np.ndarray, float, float]:
    """:func:`fit_surrogate` on a feature-major (Fortran-order) design whose
    column 0 is the intercept's column of ones, and float arrays of targets
    and weights."""
    k = augmented.shape[1] - 1
    n_positive = int(np.count_nonzero(weights > 0))
    if n_positive < k + 1:
        raise InsufficientSamplesError(
            f"need at least {k + 1} positively weighted samples, got {n_positive}"
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
    deviation = targets - target_mean
    deviation *= deviation
    ss_tot = float(weights @ deviation)
    residual = np.subtract(targets, fitted, out=fitted)
    residual *= residual
    ss_res = float(weights @ residual)
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
    weighted R² of the fit, defined as 0 for a zero-variance target. A
    ``ridge`` :class:`ExplainConfig` refuses is refused with ``ConfigError``,
    targets or weights not one per design row with ``SchemaMismatchError``.
    """
    ridge = ExplainConfig(ridge=ridge).ridge
    try:  # the design's own width; a scalar or a ragged list, refused below, has none
        width = np.shape(design)[-1] if np.ndim(design) else 0
    except ValueError:
        width = 0
    design = _column_schema(width).check_rows(design)
    n, k = design.shape
    targets, weights = np.asarray(targets, dtype=float), np.asarray(weights, dtype=float)
    if targets.shape != (n,) or weights.shape != (n,):
        raise SchemaMismatchError(
            f"a design of {n} rows needs {n} targets and weights, "
            f"got shapes {targets.shape} and {weights.shape}"
        )
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
    ``prediction`` is row 0 of the batch prediction over the samples; the
    predictor sums each row feature by feature, so it has the bits of
    ``predict_proba(model, instance)``.
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


def _explain(
    model: LogisticModel,
    samples: np.ndarray,
    config: ExplainConfig,
    instance_id: str,
) -> tuple[Explanation, PerturbationSet]:
    """Predict, weight and fit one instance's samples (row 0 the instance)."""
    schema = model.schema
    scaler = model.scaler
    strategy = None if config.mode == VANILLA else config.strategy
    augmented = _standardize(scaler, samples)
    standardized = augmented[:, 1:]
    predictions = predict_proba_standardized(model, standardized)
    width = config.resolved_width(schema.arity)
    weights = _kernel(standardized[0], standardized, width)

    # Numeric features lead the schema, so the fitted columns are a prefix.
    m = len(schema.numeric_indices) if config.collapse_derived else schema.arity
    coef, intercept, fidelity = _fit(augmented[:, : m + 1], predictions, weights, config.ridge)

    std_weights = np.zeros(schema.arity)
    std_weights[:m] = coef
    raw_weights = (std_weights / scaler.scale).tolist()
    std_weights = std_weights.tolist()
    names = schema.names
    order = sorted(range(schema.arity), key=lambda i: (-abs(std_weights[i]), names[i]))
    explanation = Explanation(
        mode=config.mode,
        strategy=strategy,
        instance_id=instance_id,
        prediction=float(predictions[0]),
        attributions=tuple((names[i], std_weights[i]) for i in order),
        attributions_raw=tuple((names[i], raw_weights[i]) for i in order),
        intercept=intercept,
        fidelity_r2=fidelity,
        n_samples=config.n_samples,
        seed=config.seed,
        kernel_width=width,
        config=tuple(sorted(config.to_json_dict(schema.arity).items())),
    )
    return explanation, PerturbationSet(samples, predictions, weights)


def _checked_instance(schema: FeatureSchema, instance: np.ndarray) -> np.ndarray:
    """The instance judged by the schema, which must have features to attribute."""
    instance = schema.check_rows(instance, (1,))
    if schema.arity == 0:
        raise NoFeaturesError(
            f"process {schema.process_name!r} has neither attributes nor activities, "
            f"so there are no features to attribute"
        )
    return instance


def explain_detailed(
    model: LogisticModel,
    defn: ProcessDefinition,
    instance: np.ndarray,
    config: ExplainConfig = ExplainConfig(),
    instance_id: str = "",
) -> tuple[Explanation, PerturbationSet]:
    """Run the full pipeline and keep the perturbation set for inspection."""
    model.schema.check_definition(defn)
    instance = _checked_instance(model.schema, instance)
    samples = _sampler(defn, model.schema, model.scaler, config)(instance)
    return _explain(model, samples, config, instance_id)


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
