"""Every setting of every config refuses a value of the wrong kind.

The test walks ``dataclasses.fields()`` of the four configs, so a setting
added later is checked without being listed here. Each field is given each
wrong-kind value that its annotation rules out, and must raise
``ConfigError``: never a bare ``TypeError`` at construction, and never a
value accepted here that a later step (training, the JSON writers) fails on.
"""

import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from procex.errors import ConfigError
from procex.evaluation import ComparisonConfig
from procex.explainer import PROCESS_AWARE, ExplainConfig
from procex.predictor import TrainConfig, split_log
from procex.simulation import SimulationConfig, generate_log

# The other settings of each construction; process-aware mode, so that a
# truthy collapse_derived is not refused for the mode alone.
REQUIRED = {SimulationConfig: {"n_cases": 1}, ExplainConfig: {"mode": PROCESS_AWARE}}


def _wrong_kinds(annotation: str) -> list:
    """Values whose kind the annotation (a string, under postponed
    evaluation) rules out."""
    values = [object()]
    if "str" not in annotation:
        values.append("1")
    if "None" not in annotation:
        values.append(None)
    if annotation == "int":
        values += [True, 2.5, np.int64(2)]
    if annotation.startswith("float"):
        values += [True, 10**400]
    if annotation == "bool":
        values += [1, np.bool_(True)]
    return values


def _label(value: object) -> str:
    shown = repr(value)
    return shown if len(shown) < 20 and " at 0x" not in shown else type(value).__name__


CASES = [
    pytest.param(config, field.name, value, id=f"{config.__name__}.{field.name}-{_label(value)}")
    for config in (SimulationConfig, TrainConfig, ExplainConfig, ComparisonConfig)
    for field in fields(config)
    for value in _wrong_kinds(field.type)
]


@pytest.mark.parametrize("config,name,value", CASES)
def test_every_setting_refuses_a_wrong_kind(config, name, value):
    with pytest.raises(ConfigError):
        config(**{**REQUIRED.get(config, {}), name: value})


def test_every_setting_is_walked():
    walked = {(config, name) for config, name, _ in (case.values for case in CASES)}
    for config in (SimulationConfig, TrainConfig, ExplainConfig, ComparisonConfig):
        assert {(config, f.name) for f in fields(config)} <= walked


@pytest.mark.parametrize("build,message", [
    (lambda: SimulationConfig(n_cases=2.5), "n_cases must be an integer, got 2.5"),
    (lambda: SimulationConfig(n_cases=1, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: ExplainConfig(spread="1"), "spread must be a number, got '1'"),
    (lambda: ExplainConfig(flip_p=None), "flip_p must be a number, got None"),
    (lambda: ExplainConfig(kernel_width="x"), "kernel_width must be a number, got 'x'"),
    (lambda: ExplainConfig(mode=PROCESS_AWARE, collapse_derived="yes"),
     "collapse_derived must be True or False, got 'yes'"),
    (lambda: TrainConfig(l2="x"), "l2 must be a number, got 'x'"),
    (lambda: TrainConfig(epochs=2.5), "epochs must be an integer, got 2.5"),
    (lambda: TrainConfig(tol=10**400),
     "tol must be a finite non-negative number, got an integer past the float range"),
    (lambda: ComparisonConfig(seeds="01"), "seeds must be a tuple or list, got '01'"),
    (lambda: ComparisonConfig(seeds=(True,)), "seed must be an integer, got True"),
    (lambda: ComparisonConfig(seeds=(np.int64(0),)),
     f"seed must be an integer, got {np.int64(0)!r}"),
    (lambda: ComparisonConfig(collapse_derived="yes"),
     "collapse_derived must be True or False, got 'yes'"),
    (lambda: SimulationConfig(n_cases=-10**5000),
     "n_cases must be non-negative, got an integer too long to print"),
    (lambda: ExplainConfig(n_samples=-10**5000),
     "n_samples must be at least 1, got an integer too long to print"),
    (lambda: ComparisonConfig(seeds=(-10**5000,)),
     "seed must be non-negative, got an integer too long to print"),
], ids=["n_cases-float", "seed-float", "spread-str", "flip_p-None", "kernel_width-str",
        "collapse-str", "l2-str", "epochs-float", "tol-huge-int", "seeds-str", "seeds-bool",
        "seeds-int64", "comparison-collapse-str", "n_cases-past-digit-limit",
        "n_samples-past-digit-limit", "seeds-past-digit-limit"])
def test_named_leaks_are_config_errors(build, message):
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == message


# Every seed setting, at a value one digit past what the writers can print,
# and the JSON dict it would be written from.
PAST_DIGIT_LIMIT = 10 ** sys.get_int_max_str_digits()
SEEDS = {
    "ExplainConfig": (lambda seed: ExplainConfig(seed=seed), lambda c: c.to_json_dict(5)),
    "SimulationConfig": (lambda seed: SimulationConfig(n_cases=1, seed=seed),
                         lambda c: c.to_json_dict()),
    "TrainConfig": (lambda seed: TrainConfig(seed=seed), lambda c: c.to_json_dict()),
    "ComparisonConfig": (lambda seed: ComparisonConfig(seeds=(seed,)),
                         lambda c: c.to_json_dict()),
}


@pytest.mark.parametrize("config", sorted(SEEDS))
def test_seeds_refuse_what_the_writers_cannot_print(config):
    build, to_json = SEEDS[config]
    with pytest.raises(ConfigError) as exc:
        build(PAST_DIGIT_LIMIT)
    assert str(exc.value) == (
        f"seed must have at most {sys.get_int_max_str_digits()} digits, "
        "got an integer too long to print"
    )
    largest = PAST_DIGIT_LIMIT - 1  # as many digits as the limit allows
    assert str(largest) in json.dumps(to_json(build(largest)))


@pytest.fixture(scope="module")
def tiny_log(loan):
    return generate_log(loan, SimulationConfig(n_cases=10))


@pytest.mark.parametrize("kwargs,message", [
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"test_fraction": "0.2"}, "test_fraction must be a number, got '0.2'"),
    ({"test_fraction": 10**400},
     "test_fraction must lie in (0, 1), got an integer past the float range"),
])
def test_split_log_refuses_a_wrong_kind(tiny_log, kwargs, message):
    with pytest.raises(ConfigError) as exc:
        split_log(tiny_log, **kwargs)
    assert str(exc.value) == message
