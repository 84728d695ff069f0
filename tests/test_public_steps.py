"""Every public explainer step refuses what ``explain`` refuses, with the
same error, and every public step that takes feature rows has them judged
by the schema's one judge, :meth:`FeatureSchema.check_rows`.

The first walk goes over ``explainer.__all__``: each callable with a
parameter that carries an :class:`ExplainConfig` setting gets every value
the config refuses for that setting, and must raise the config's
``ConfigError`` with its message. The samplers also get the instances
``explain`` refuses, and must raise ``explain``'s error with its message; so
must the process-aware sampler given a definition of another schema. The
second walk goes over the ``__all__`` of the modules that handle feature
rows: each callable with a parameter that takes rows gets malformed rows
and must raise the judge's ``SchemaMismatchError``. The suite turns numpy's
RuntimeWarnings into failures, so each refusal must come before any
arithmetic.
"""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

from procex import evaluation, explainer, features, predictor
from procex.errors import ConfigError, NoFeaturesError, SchemaMismatchError
from procex.explainer import PROPAGATE, ExplainConfig, PerturbationSet, explain
from procex.features import build_schema, scaler_from_matrix
from procex.predictor import train
from procex.process_model import parse_process
from procex.simulation import SimulationConfig, generate_log

from procgen import NO_FEATURES_SOURCE, REJOINING

# A public step's parameter name and the ExplainConfig setting it carries.
SETTINGS = {
    "n": "n_samples",
    "spread": "spread",
    "flip_p": "flip_p",
    "strategy": "strategy",
    "width": "kernel_width",
    "ridge": "ridge",
}

REFUSED = {
    "n_samples": [0, -5, 2.5, np.int64(5)],
    "spread": [-1.0],
    "flip_p": [2.0],
    "strategy": ["sideways"],
    "kernel_width": [0.0, -1.5, math.nan, math.inf, 1e-200],
    "ridge": [-1.0, math.nan, math.inf],
}

INSTANCE = np.array([580.0, 300000.0, 1.0, 0.0, 1.0])
REFUSED_INSTANCES = {
    "short": INSTANCE[:3],
    "nan": np.array([np.nan, 300000.0, 1.0, 0.0, 1.0]),
}


def _parameters(name: str, module=explainer) -> list[str]:
    return list(inspect.signature(getattr(module, name)).parameters)


STEPS = [
    name for name in explainer.__all__
    if inspect.isfunction(getattr(explainer, name)) and set(_parameters(name)) & set(SETTINGS)
]
SAMPLERS = ["sample_vanilla", "sample_process_aware"]

CASES = [
    pytest.param(step, parameter, value, id=f"{step}-{parameter}-{value!r}")
    for step in STEPS
    for parameter in _parameters(step)
    if parameter in SETTINGS
    for value in REFUSED[SETTINGS[parameter]]
]


@pytest.fixture(scope="module")
def arguments(loan, loan_schema, loan_model):
    """A fresh set of valid arguments, by parameter name, for any step."""
    design = np.random.default_rng(0).standard_normal((20, 2))

    def fresh(**changed):
        valid = {
            "instance": INSTANCE,
            "defn": loan,
            "schema": loan_schema,
            "scaler": loan_model.scaler,
            "n": 20,
            "spread": 1.0,
            "flip_p": 0.5,
            "strategy": PROPAGATE,
            "rng": np.random.default_rng(0),
            "samples": np.vstack([INSTANCE, INSTANCE + [10.0, 0.0, 0.0, 0.0, 0.0]]),
            "width": 1.5,
            "design": design,
            "targets": design @ [1.0, -1.0],
            "weights": np.ones(len(design)),
            "ridge": 1.0,
            "model": loan_model,
            "config": ExplainConfig(n_samples=20),
            "instance_id": "",
            "vector": INSTANCE,
            "matrix": np.vstack([INSTANCE, INSTANCE]),
            "vectors": INSTANCE,
        }
        return {**valid, **changed}

    return fresh


def _call(step: str, arguments: dict, module=explainer):
    names = _parameters(step, module)
    return getattr(module, step)(**{name: arguments[name] for name in names})


def test_the_walk_finds_every_step_with_a_setting():
    assert STEPS == SAMPLERS + ["kernel_weights", "fit_surrogate"]


@pytest.mark.parametrize("step", STEPS)
def test_valid_arguments_run(arguments, step):
    _call(step, arguments())


@pytest.mark.parametrize("step,parameter,value", CASES)
def test_a_step_refuses_what_the_config_refuses(arguments, step, parameter, value):
    with pytest.raises(ConfigError) as want:
        ExplainConfig(**{SETTINGS[parameter]: value})
    with pytest.raises(ConfigError) as got:
        _call(step, arguments(**{parameter: value}))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("step", SAMPLERS)
@pytest.mark.parametrize("which", REFUSED_INSTANCES)
def test_a_sampler_refuses_the_instance_explain_refuses(
    loan, loan_model, arguments, step, which
):
    instance = REFUSED_INSTANCES[which]
    with pytest.raises(SchemaMismatchError) as want:
        explain(loan_model, loan, instance)
    with pytest.raises(SchemaMismatchError) as got:
        _call(step, arguments(instance=instance))
    assert str(got.value) == str(want.value)


def test_the_process_aware_sampler_refuses_a_definition_of_another_schema(
    loan_model, arguments
):
    with pytest.raises(SchemaMismatchError) as want:
        explain(loan_model, REJOINING, INSTANCE)
    with pytest.raises(SchemaMismatchError) as got:
        _call("sample_process_aware", arguments(defn=REJOINING))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("step", SAMPLERS)
def test_a_sampler_refuses_a_featureless_schema(arguments, step):
    defn = parse_process(NO_FEATURES_SOURCE)
    schema = build_schema(defn)
    model = train(generate_log(defn, SimulationConfig(n_cases=50, seed=1)), schema)
    with pytest.raises(NoFeaturesError) as want:
        explain(model, defn, np.empty(0))
    with pytest.raises(NoFeaturesError) as got:
        _call(step, arguments(
            instance=np.empty(0), defn=defn, schema=schema,
            scaler=scaler_from_matrix(np.empty((1, 0))),
        ))
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Feature rows
# ---------------------------------------------------------------------------

# A public step's parameter that takes feature rows, and the dimensions it takes.
ROWS = {
    "instance": (1,),
    "vector": (1,),
    "vectors": (1, 2),
    "matrix": (2,),
    "samples": (2,),
    "design": (2,),
}
# Steps whose rows come from the encoder or are already standardized: the
# training matrix `train` has encoded and checked, and the explainer's own
# standardized samples, whose predictor judges only their shape (an O(1)
# check; a finite scan would add a pass over every sample set).
UNJUDGED = ["scaler_from_matrix", "loss_and_gradient", "predict_proba_standardized"]
# Steps with no schema; their judge names the features by column.
SCHEMALESS = ["kernel_weights", "fit_surrogate"]

ROW_STEPS = [
    (module, name, parameter)
    for module in (features, predictor, explainer, evaluation)
    for name in module.__all__
    if inspect.isfunction(getattr(module, name)) and name not in UNJUDGED
    for parameter in _parameters(name, module)
    if parameter in ROWS
]

ROW_MODULES = {step: module for module, step, _ in ROW_STEPS}

ATTRIBUTE, INDICATOR = 0, 3  # credit_score and standard_review


def _with(cell: int, value) -> list:
    row = INSTANCE.tolist()
    row[cell] = value
    return row


RAGGED = [INSTANCE.tolist(), INSTANCE.tolist()[:4]]  # numpy refuses its shape

# Each malformed row: the row, and the problem and features the judge
# names (None: the shape is refused). numpy reads a string or complex cell
# into an array of strings or complex numbers, so every feature is named.
MALFORMED = {
    "0-d": (3.0, None),
    "3-d": (np.tile(INSTANCE, (2, 2, 1)), None),
    "wrong-width": (INSTANCE[:3], None),
    "ragged": (RAGGED, None),
    "string": (_with(ATTRIBUTE, "x"), ("non-real value(s)", range(5))),
    "complex": (_with(ATTRIBUTE, 1 + 2j), ("non-real value(s)", range(5))),
    "integer-10**400": (
        _with(ATTRIBUTE, 10**400), ("integer(s) past the float range", [ATTRIBUTE])
    ),
    **{
        f"{value}-in-{where}": (_with(cell, value), ("non-finite value(s)", [cell]))
        for value in (math.nan, math.inf, -math.inf)
        for where, cell in (("attribute", ATTRIBUTE), ("indicator", INDICATOR))
    },
}


FORMS = {1: "vector", 2: "matrix"}


def _rows(row, form: str):
    """``row`` as a step's argument: a vector, or row 1 of a matrix (or of a
    perturbation set's samples) after a valid row 0; a 0-d, 3-d or ragged
    value as it is. numpy reads an integer past the float range into an
    object array."""
    if row is not RAGGED and np.ndim(row) == 1:
        valid = INSTANCE.tolist()[: len(row)]
        row = np.array(list(row) if form == "vector" else [valid, list(row)])
    return PerturbationSet(row, np.zeros(2), np.ones(2)) if form == "PerturbationSet" else row


WALK = [
    pytest.param(module, step, parameter, form, which, id=f"{step}-{parameter}-{form}-{which}")
    for module, step, parameter in ROW_STEPS
    for form in [FORMS[n] for n in ROWS[parameter]]
    + (["PerturbationSet"] if step == "conformance_rate" else [])
    for which in MALFORMED
    if not (step == "fit_surrogate" and which == "wrong-width")  # it fits any width
]


def test_the_walk_finds_every_step_that_takes_feature_rows():
    assert [(step, parameter) for _, step, parameter in ROW_STEPS] == [
        ("split_vector", "vector"),
        ("split_columns", "matrix"),
        ("predict_proba", "vectors"),
        ("sample_vanilla", "instance"),
        ("sample_process_aware", "instance"),
        ("kernel_weights", "instance"),
        ("kernel_weights", "samples"),
        ("fit_surrogate", "design"),
        ("explain", "instance"),
        ("explain_detailed", "instance"),
        ("conformance_rate", "samples"),
    ]


@pytest.mark.parametrize("step", ROW_MODULES)
def test_valid_rows_run(arguments, step):
    _call(step, arguments(), ROW_MODULES[step])


@pytest.mark.parametrize("module,step,parameter,form,which", WALK)
def test_a_step_has_its_rows_judged(
    loan_schema, arguments, module, step, parameter, form, which
):
    row, named = MALFORMED[which]
    value = _rows(row, form)
    if named is None:
        nouns = " or ".join(FORMS[n] for n in ROWS[parameter])
        rows = getattr(value, "samples", value)
        shape = "ragged shape" if row is RAGGED else f"shape {np.shape(rows)}"
        want = re.escape(f"{nouns} of {shape} does not fit schema arity ") + r"\d+"
    else:
        problem, cells = named
        names = [f"column {j}" for j in range(5)] if step in SCHEMALESS else loan_schema.names
        first = 0 if len(cells) == 5 else 1  # a string makes the valid row 0 strings too
        noun, at = ("vector", "") if form == "vector" else ("matrix", f", first in row {first}")
        want = re.escape(f"{noun} has {problem} for {[names[j] for j in cells]}{at}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaMismatchError) as got:
            _call(step, arguments(**{parameter: value}), module)
    assert re.fullmatch(want, str(got.value)), str(got.value)


@pytest.mark.parametrize("form", FORMS.values())
@pytest.mark.parametrize("which", [which for which, (_, named) in MALFORMED.items() if not named])
def test_the_standardized_predictor_judges_the_shape_alone(loan_model, form, which):
    value = _rows(MALFORMED[which][0], form)
    with pytest.raises(SchemaMismatchError) as want:
        predictor.predict_proba(loan_model, value)
    with pytest.raises(SchemaMismatchError) as got:
        predictor.predict_proba_standardized(loan_model, value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("changed,message", [
    ({"instance": INSTANCE[:3]}, "vector of shape (3,) does not fit schema arity 5"),
    ({"samples": np.zeros((2, 4))}, "matrix of shape (2, 4) does not fit schema arity 5"),
], ids=["short-instance", "narrow-samples"])
def test_the_kernel_takes_rows_as_wide_as_the_scaler(arguments, changed, message):
    with pytest.raises(SchemaMismatchError) as got:
        _call("kernel_weights", arguments(**changed))
    assert str(got.value) == message


@pytest.mark.parametrize("changed,message", [
    ({"design": np.zeros(20)}, "matrix of shape (20,) does not fit schema arity 20"),
    ({"targets": np.zeros(19)},
     "a design of 20 rows needs 20 targets and weights, got shapes (19,) and (20,)"),
    ({"weights": np.ones((20, 1))},
     "a design of 20 rows needs 20 targets and weights, got shapes (20,) and (20, 1)"),
], ids=["1-d-design", "short-targets", "2-d-weights"])
def test_the_surrogate_takes_one_target_and_weight_per_design_row(arguments, changed, message):
    with pytest.raises(SchemaMismatchError) as got:
        _call("fit_surrogate", arguments(**changed))
    assert str(got.value) == message
