"""Feature schema, trace encoding, and standardization."""

import numpy as np
import pytest

from procex.errors import EmptyLogError, SchemaMismatchError
from procex.features import (
    BINARY,
    NUMERIC,
    FeatureSchema,
    Scaler,
    build_schema,
    encode_log,
    encode_trace,
    fit_scaler,
    scaler_from_matrix,
    split_vector,
)
from procex.process_model import parse_process
from procex.simulation import EventLog, SimulationConfig, Trace, generate_log

SKILLED_TRACE = Trace(
    case_id="t1",
    attrs={"credit_score": 580.0, "loan_amount": 300000.0},
    activities=("submit_application", "skilled_agent_review"),
    label="NEGATIVE",
)
STANDARD_TRACE = Trace(
    case_id="t2",
    attrs={"credit_score": 700.0, "loan_amount": 50000.0},
    activities=("submit_application", "standard_review"),
    label="POSITIVE",
)


class TestSchema:
    def test_loan_feature_order(self, loan_schema):
        assert loan_schema.names == (
            "credit_score",
            "loan_amount",
            "skilled_agent_review",
            "standard_review",
            "submit_application",
        )
        kinds = [f.kind for f in loan_schema.features]
        assert kinds == [NUMERIC, NUMERIC, BINARY, BINARY, BINARY]
        assert loan_schema.arity == 5

    def test_numeric_features_carry_bounds(self, loan_schema):
        credit = loan_schema.features[0]
        assert (credit.lower, credit.upper) == (300.0, 850.0)
        assert loan_schema.features[2].lower is None

    def test_declaration_order_does_not_matter(self, loan):
        swapped = parse_process(
            "process loan_approval\n"
            "attr loan_amount: numeric in [1000, 500000]\n"
            "attr credit_score: numeric in [300, 850]\n"
            "start -> submit_application\n"
            "activity submit_application -> route\n"
            "gateway route { when credit_score < 620 && loan_amount > 200000"
            " -> skilled_agent_review otherwise -> standard_review }\n"
            "activity skilled_agent_review -> skilled_outcome\n"
            "activity standard_review -> standard_outcome\n"
            "gateway skilled_outcome choice { 0.85 -> reject 0.15 -> approve }\n"
            "gateway standard_outcome choice { 0.10 -> reject 0.90 -> approve }\n"
            "end approve label POSITIVE\nend reject label NEGATIVE\n"
        )
        assert build_schema(swapped) == build_schema(loan)
        assert build_schema(swapped).schema_hash == build_schema(loan).schema_hash

    def test_index_lookup(self, loan_schema):
        assert loan_schema.index("credit_score") == 0
        assert loan_schema.index("submit_application") == 4
        with pytest.raises(SchemaMismatchError):
            loan_schema.index("income")

    def test_numeric_and_binary_index_blocks(self, loan_schema):
        assert list(loan_schema.numeric_indices) == [0, 1]
        assert list(loan_schema.binary_indices) == [2, 3, 4]

    def test_hash_changes_with_bounds(self, loan_schema):
        features = list(loan_schema.features)
        features[0] = type(features[0])("credit_score", NUMERIC, 300.0, 900.0)
        other = FeatureSchema(loan_schema.process_name, tuple(features))
        assert other.schema_hash != loan_schema.schema_hash

    def test_hash_changes_with_process_name(self, loan_schema):
        other = FeatureSchema("another", loan_schema.features)
        assert other.schema_hash != loan_schema.schema_hash

    def test_json_round_trip(self, loan_schema):
        payload = loan_schema.to_json_dict()
        assert payload["hash"] == loan_schema.schema_hash
        assert FeatureSchema.from_json_dict(payload) == loan_schema

    @pytest.mark.parametrize("order", [[2, 0, 1, 3, 4], [0, 2, 1, 3, 4]])
    def test_binary_before_numeric_is_refused(self, loan_schema, order):
        # The samplers rely on the numeric rows leading the sample block.
        payload = loan_schema.to_json_dict()
        payload["features"] = [payload["features"][i] for i in order]
        with pytest.raises(SchemaMismatchError, match="numeric ones, then binary"):
            FeatureSchema.from_json_dict(payload)

    def test_unknown_kind_is_refused(self, loan_schema):
        payload = loan_schema.to_json_dict()
        payload["features"][0]["kind"] = "categorical"
        with pytest.raises(SchemaMismatchError, match="categorical"):
            FeatureSchema.from_json_dict(payload)


class TestEncoding:
    def test_skilled_trace(self, loan_schema):
        vec = encode_trace(loan_schema, SKILLED_TRACE)
        assert vec.tolist() == [580.0, 300000.0, 1.0, 0.0, 1.0]

    def test_standard_trace(self, loan_schema):
        vec = encode_trace(loan_schema, STANDARD_TRACE)
        assert vec.tolist() == [700.0, 50000.0, 0.0, 1.0, 1.0]

    def test_empty_activity_trace(self, loan_schema):
        bare = Trace("t", SKILLED_TRACE.attrs, (), "POSITIVE")
        assert encode_trace(loan_schema, bare).tolist()[2:] == [0.0, 0.0, 0.0]

    def test_missing_attribute_raises(self, loan_schema):
        bad = Trace("t", {"credit_score": 580.0}, (), "POSITIVE")
        with pytest.raises(SchemaMismatchError):
            encode_trace(loan_schema, bad)

    def test_unknown_activity_raises(self, loan_schema):
        bad = Trace("t", SKILLED_TRACE.attrs, ("submit_application", "escalate"), "POSITIVE")
        with pytest.raises(SchemaMismatchError):
            encode_trace(loan_schema, bad)

    def test_encode_log_shapes(self, loan_schema, small_log):
        matrix, labels = encode_log(loan_schema, small_log)
        assert matrix.shape == (len(small_log), loan_schema.arity)
        assert len(labels) == len(small_log)
        assert matrix.dtype == np.float64

    def test_encode_log_rows_match_encode_trace(self, loan_schema, small_log):
        matrix, _ = encode_log(loan_schema, small_log)
        np.testing.assert_array_equal(
            matrix[7], encode_trace(loan_schema, small_log.traces[7])
        )

    def test_empty_log_raises(self, loan_schema):
        with pytest.raises(EmptyLogError):
            encode_log(loan_schema, EventLog("loan_approval", ()))

    def test_split_vector_round_trip(self, loan_schema):
        vec = encode_trace(loan_schema, SKILLED_TRACE)
        attrs, indicators = split_vector(loan_schema, vec)
        assert attrs == {"credit_score": 580.0, "loan_amount": 300000.0}
        assert indicators == {
            "skilled_agent_review": 1,
            "standard_review": 0,
            "submit_application": 1,
        }


class TestScaler:
    def test_hand_computed_stats(self):
        scaler = scaler_from_matrix(np.array([[0.0], [2.0]]))
        assert scaler.mean.tolist() == [1.0]
        assert scaler.std.tolist() == [1.0]
        assert scaler.apply(np.array([2.0])).tolist() == [1.0]

    def test_constant_column_maps_to_zero(self):
        matrix = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        scaler = scaler_from_matrix(matrix)
        standardized = scaler.apply(matrix)
        assert np.all(standardized[:, 0] == 0.0)

    def test_rows_without_columns_fit(self):
        # A process with neither attributes nor activities has no features.
        scaler = scaler_from_matrix(np.empty((5, 0)))
        assert scaler.mean.shape == scaler.std.shape == (0,)
        with pytest.raises(EmptyLogError):
            scaler_from_matrix(np.empty((0, 3)))

    def test_apply_then_invert_is_identity(self, loan_schema, small_log):
        matrix, _ = encode_log(loan_schema, small_log)
        scaler = scaler_from_matrix(matrix)
        rng = np.random.default_rng(12)
        for _ in range(100):
            vec = rng.uniform(-2, 2, size=loan_schema.arity)
            back = scaler.apply(scaler.invert(vec))
            np.testing.assert_allclose(back, vec, atol=1e-9)

    def test_standardized_log_has_unit_moments(self, loan_schema, small_log):
        matrix, _ = encode_log(loan_schema, small_log)
        standardized = scaler_from_matrix(matrix).apply(matrix)
        np.testing.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
        # submit_application is constant, so its std stays 0.
        np.testing.assert_allclose(standardized.std(axis=0)[:4], 1.0, atol=1e-9)
        assert standardized.std(axis=0)[4] == 0.0

    def test_fit_scaler_matches_matrix_path(self, loan_schema, small_log):
        matrix, _ = encode_log(loan_schema, small_log)
        direct = scaler_from_matrix(matrix)
        fitted = fit_scaler(loan_schema, small_log)
        np.testing.assert_array_equal(fitted.mean, direct.mean)
        np.testing.assert_array_equal(fitted.std, direct.std)

    def test_json_round_trip(self, loan_schema, small_log):
        scaler = fit_scaler(loan_schema, small_log)
        back = Scaler.from_json_dict(scaler.to_json_dict())
        np.testing.assert_array_equal(back.mean, scaler.mean)
        np.testing.assert_array_equal(back.std, scaler.std)


def test_encoded_simulation_is_consistent(loan, loan_schema):
    # A round trip through encode/split preserves exactly what the
    # conformance oracle needs.
    from procex.simulation import is_conformant

    log = generate_log(loan, SimulationConfig(n_cases=50, seed=9))
    matrix, _ = encode_log(loan_schema, log)
    for row in matrix:
        attrs, indicators = split_vector(loan_schema, row)
        assert is_conformant(loan, attrs, indicators)
