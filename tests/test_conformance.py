"""The batch conformance oracle against its one-row wrappers, against an
independent path enumerator, and the reject sampler against a row-by-row
filter."""

import itertools

import numpy as np
import pytest

from procex.explainer import REJECT, sample_process_aware, sample_vanilla
from procex.features import (
    build_schema,
    encode_log,
    encode_trace,
    scaler_from_matrix,
    split_columns,
    split_vector,
)
from procex.process_model import (
    conformant_rows,
    eval_guard_batch,
    execute_rows,
    parse_process,
    reachable_indicators,
)
from procex.simulation import SimulationConfig, generate_log, is_conformant

from procgen import (
    CHAIN,
    NO_ATTRIBUTES,
    NO_FEATURES_SOURCE,
    REJOINING,
    long_chain,
    path_indicators,
    random_process,
)


def vanilla_rows(defn, n, flip_p, seed):
    """Vanilla perturbations of a simulated case: a mix of conformant and
    non-conformant rows."""
    schema = build_schema(defn)
    log = generate_log(defn, SimulationConfig(n_cases=200, seed=seed))
    scaler = scaler_from_matrix(encode_log(schema, log)[0])
    instance = encode_trace(schema, log.traces[0])
    if n == 0 or schema.arity == 0:
        # The instance alone, or zero-width rows: inputs the sampler refuses.
        return schema, np.tile(instance, (n + 1, 1))
    rng = np.random.default_rng(seed)
    return schema, sample_vanilla(instance, schema, scaler, n, 1.0, flip_p, rng)


def check_agreement(defn, n, flip_p, seed=0):
    """Batch oracle, one-row wrappers and path enumeration agree on every
    row; returns the batch verdicts."""
    schema, rows = vanilla_rows(defn, n, flip_p, seed)
    columns, indicators = split_columns(schema, rows)
    verdicts = conformant_rows(defn, columns, indicators)
    assert verdicts.shape == (len(rows),)
    for row, verdict in zip(rows, verdicts):
        attrs, indicator_map = split_vector(schema, row)
        vector = tuple(indicator_map[name] for name in defn.activity_names)
        paths = path_indicators(defn, attrs)
        assert reachable_indicators(defn, attrs) == paths
        assert is_conformant(defn, attrs, indicator_map) == (vector in paths)
        assert bool(verdict) == (vector in paths)
    return verdicts


def test_loan_rows_agree(loan):
    verdicts = check_agreement(loan, 600, 0.5)
    assert verdicts.any() and not verdicts.all()
    for samples in (0, 1):
        check_agreement(loan, samples, 0.5)


def test_loan_zero_rows_give_zero_verdicts(loan):
    columns = {name: np.empty(0) for name in loan.attribute_names}
    indicators = np.empty((0, len(loan.activity_names)))
    verdicts = conformant_rows(loan, columns, indicators)
    assert verdicts.shape == (0,) and verdicts.dtype == bool


def test_random_process_rows_agree():
    verdicts = []
    for i in range(25):
        defn = random_process(np.random.default_rng(500 + i), i)
        for samples in (150, 2):
            verdicts.append(check_agreement(defn, samples, 0.2, i))
    verdicts = np.concatenate(verdicts)
    assert verdicts.any() and not verdicts.all()


def test_rejoining_dag_rows_agree():
    verdicts = check_agreement(REJOINING, 600, 0.2)
    assert verdicts.any() and not verdicts.all()
    verdicts = check_agreement(REJOINING, 100, 0.2)
    assert verdicts.any() and not verdicts.all()


@pytest.mark.parametrize("which", ["loan", "rejoining", "chain"])
def test_batch_verdicts_match_one_row_calls(loan, which):
    defn = {"loan": loan, "rejoining": REJOINING, "chain": CHAIN}[which]
    schema, rows = vanilla_rows(defn, 200, 0.01 if which == "chain" else 0.3, 3)
    columns, indicators = split_columns(schema, rows)
    one_row = [
        conformant_rows(
            defn, {k: c[i : i + 1] for k, c in columns.items()}, indicators[i : i + 1]
        )[0]
        for i in range(len(rows))
    ]
    verdicts = conformant_rows(defn, columns, indicators)
    assert verdicts.tolist() == one_row
    assert verdicts.any() and not verdicts.all()


def test_chain_beyond_64_activities_rows_agree():
    assert len(CHAIN.activity_names) > 64
    verdicts = check_agreement(CHAIN, 400, 0.01)
    assert verdicts.any() and not verdicts.all()


def test_chain_key_tells_apart_rows_differing_past_column_63():
    names = CHAIN.activity_names
    paths = sorted(path_indicators(CHAIN, {"x": 0.2}))
    rows = []
    for vector in paths:
        for j in (0, 63, 64, len(names) - 1):
            flipped = list(vector)
            flipped[j] = 1 - flipped[j]
            rows.extend([vector, tuple(flipped)])
    columns = {"x": np.full(len(rows), 0.2)}
    verdicts = conformant_rows(CHAIN, columns, np.array(rows))
    np.testing.assert_array_equal(verdicts, [row in paths for row in rows])


def test_chain_past_the_recursion_limit_agrees():
    # 1501 activities, nearly all in one sequence: deeper than Python's
    # recursion limit.
    deep = long_chain(arm=5, tail=1490)
    assert len(deep.activity_names) == 1501
    for x in (0.2, 0.8):
        paths = path_indicators(deep, {"x": x})
        assert reachable_indicators(deep, {"x": x}) == paths
        rows = np.array(sorted(paths))
        assert conformant_rows(deep, {"x": np.full(len(rows), x)}, rows).all()


@pytest.mark.parametrize("tail", [243, 244, 1490])
def test_chains_either_side_of_the_uint8_width_agree(tail):
    # Counts are 1 plus the present activities on a path: 254 activities
    # keep them in uint8, 255 and 1501 widen them.
    chain = long_chain(arm=5, tail=tail)
    names = chain.activity_names
    assert len(names) == {243: 254, 244: 255, 1490: 1501}[tail]
    for x in (0.2, 0.8):
        paths = path_indicators(chain, {"x": x})
        rows = []
        for vector in sorted(paths):
            for j in (0, 253, 254, len(names) - 1):
                if j < len(names):
                    flipped = list(vector)
                    flipped[j] = 1 - flipped[j]
                    rows.extend([vector, tuple(flipped)])
        verdicts = conformant_rows(chain, {"x": np.full(len(rows), x)}, np.array(rows))
        np.testing.assert_array_equal(verdicts, [row in paths for row in rows])
        assert verdicts.any() and not verdicts.all()


def test_indicator_dtype_and_layout_give_the_same_verdicts(loan):
    _, samples = vanilla_rows(loan, 600, 0.5, 1)
    m = len(loan.attribute_names)
    columns = {name: samples[1:, i] for i, name in enumerate(loan.attribute_names)}
    # The indicator block of a sample set, as the comparison passes it: a
    # Fortran-ordered float view.
    view = samples[1:, m:]
    assert view.strides[0] == view.itemsize and not view.flags.c_contiguous
    want = conformant_rows(loan, columns, np.ascontiguousarray(view, dtype=np.int8))
    assert want.any() and not want.all()
    for indicators in (view, view.astype(bool), np.ascontiguousarray(view), 2 * view):
        np.testing.assert_array_equal(conformant_rows(loan, columns, indicators), want)


def test_executor_routes_each_row_to_its_first_matching_branch():
    columns = {
        "a": np.array([1.0, 4.0, 4.0, 7.0, 7.0, 7.0]),
        "b": np.array([9.5, 6.0, 9.0, 9.0, 9.5, 1.0]),
    }
    triage = REJOINING.xor_gateways[0]
    # Rows 0 and 2 satisfy more than one of triage's ``when`` guards.
    holds = [eval_guard_batch(branch.guard, columns) for branch in triage.branches]
    assert np.sum(holds, axis=0).tolist() == [3, 1, 2, 1, 1, 0]
    # (triage branch, recheck branch) per row, ``otherwise`` numbered
    # len(branches); recheck routes only the rows triage sends to audit.
    expected = [(0, None), (1, None), (1, None), (2, 1), (2, 0), (3, None)]
    triage_to = ["fast", "review", "audit", "review"]
    # Every draw is 1.0, so each choice gateway takes its last branch: review
    # goes straight to merge, and so does every other path.
    indicators, _ = execute_rows(REJOINING, columns, 6, lambda arrived: np.ones(6))
    for row, (t, r) in zip(indicators, expected):
        visited = {"intake", triage_to[t], "merge"} | ({"escalate"} if r == 0 else set())
        assert {a for a, hit in zip(REJOINING.activity_names, row) if hit} == visited


# Attribute points for the exhaustive check: one per loan route; for
# REJOINING, each triage branch and, under audit, both recheck branches.
# NO_FEATURES has no activity, so its indicator matrix is (n, 0).
EXHAUSTIVE_POINTS = {
    "loan": [
        {"credit_score": 500.0, "loan_amount": 300000.0},
        {"credit_score": 700.0, "loan_amount": 300000.0},
    ],
    "rejoining": [
        {"a": 1.0, "b": 9.5},
        {"a": 4.0, "b": 6.0},
        {"a": 7.0, "b": 9.5},
        {"a": 7.0, "b": 9.0},
        {"a": 7.0, "b": 1.0},
    ],
    "no_attributes": [{}],
    "no_features": [{}, {}, {}],
}


@pytest.mark.parametrize("which", sorted(EXHAUSTIVE_POINTS))
def test_every_indicator_row_agrees_with_path_enumeration(loan, which):
    defn = {
        "loan": loan,
        "rejoining": REJOINING,
        "no_attributes": NO_ATTRIBUTES,
        "no_features": parse_process(NO_FEATURES_SOURCE),
    }[which]
    points = EXHAUSTIVE_POINTS[which]
    names = defn.activity_names
    every_row = np.array(
        list(itertools.product((0, 1), repeat=len(names))), dtype=np.int8
    ).reshape(2 ** len(names), len(names))
    indicators = np.tile(every_row, (len(points), 1))
    columns = {
        name: np.repeat([point[name] for point in points], len(every_row))
        for name in defn.attribute_names
    }
    verdicts = conformant_rows(defn, columns, indicators)
    want = []
    for point in points:
        paths = path_indicators(defn, point)
        assert reachable_indicators(defn, point) == paths
        want.extend(tuple(row) in paths for row in every_row.tolist())
    assert verdicts.tolist() == want
    if which == "no_features":
        assert indicators.shape == (3, 0) and verdicts.all()
    else:
        assert verdicts.any() and not verdicts.all()


def reference_reject(instance, defn, schema, scaler, n, rng, flip_p):
    """Rejection sampling filtered one row at a time with ``is_conformant``."""
    kept = []
    attempts = 0
    while len(kept) < n and attempts < 100 * n:
        batch = sample_vanilla(instance, schema, scaler, n, 1.0, flip_p, rng)[1:]
        attempts += n
        for row in batch:
            attrs, indicators = split_vector(schema, row)
            if is_conformant(defn, attrs, indicators):
                kept.append(row)
                if len(kept) == n:
                    break
    return np.vstack([instance[None, :], np.array(kept)])


@pytest.mark.parametrize("which", ["loan", "rejoining"])
@pytest.mark.parametrize("seed", [0, 7])
def test_reject_matches_row_by_row_filter(loan, which, seed):
    defn = loan if which == "loan" else REJOINING
    schema = build_schema(defn)
    log = generate_log(defn, SimulationConfig(n_cases=300, seed=seed))
    scaler = scaler_from_matrix(encode_log(schema, log)[0])
    instance = encode_trace(schema, log.traces[seed])
    got = sample_process_aware(
        instance, defn, schema, scaler, 300, 1.0, REJECT,
        np.random.default_rng(seed), flip_p=0.5,
    )
    want = reference_reject(
        instance, defn, schema, scaler, 300, np.random.default_rng(seed), 0.5
    )
    assert got.tobytes() == want.tobytes()
