"""Every public explainer step refuses what ``explain`` refuses, with the
same error.

The test walks ``explainer.__all__``: each callable with a parameter that
carries an :class:`ExplainConfig` setting gets every value the config
refuses for that setting, and must raise the config's ``ConfigError`` with
its message. The samplers also get the instances ``explain`` refuses, and
must raise ``explain``'s error with its message; so must the process-aware
sampler given a definition of another schema. The suite turns numpy's
RuntimeWarnings into failures, so each refusal must come before any
arithmetic.
"""

import inspect
import math

import numpy as np
import pytest

from procex import explainer
from procex.errors import ConfigError, NoFeaturesError, SchemaMismatchError
from procex.explainer import PROPAGATE, ExplainConfig, explain
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


def _parameters(name: str) -> list[str]:
    return list(inspect.signature(getattr(explainer, name)).parameters)


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
        }
        return {**valid, **changed}

    return fresh


def _call(step: str, arguments: dict):
    names = _parameters(step)
    return getattr(explainer, step)(**{name: arguments[name] for name in names})


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
