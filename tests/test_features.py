"""Feature schema, trace encoding, and standardization."""

import numpy as np
import pytest

from procex.errors import EmptyLogError, SchemaMismatchError
from procex.features import (
    BINARY,
    NUMERIC,
    Feature,
    FeatureSchema,
    Scaler,
    build_schema,
    encode_log,
    encode_trace,
    scaler_from_matrix,
    split_columns,
    split_vector,
)
from procex.process_model import parse_process, serialize_process
from procex.simulation import EventLog, SimulationConfig, Trace, generate_log, import_log_csv

from procgen import random_process

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


def reference_rows(schema: FeatureSchema, log: EventLog) -> list[list[float]]:
    """The design matrix built one trace and one cell at a time."""
    rows = []
    for trace in log.traces:
        row = [float(trace.attrs[f.name]) if f.kind == NUMERIC else 0.0 for f in schema.features]
        for activity in trace.activities:
            row[schema.names.index(activity)] = 1.0
        rows.append(row)
    return rows


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


# The loan fixture and 50 random definitions. The random ones share one
# process name and draw their names from one pool, so that pairs of them
# often differ only in a bound, an attribute or an activity.
@pytest.fixture(scope="module")
def definitions(loan):
    return [loan] + [random_process(np.random.default_rng(5100 + i)) for i in range(50)]


def _near_misses(schema: FeatureSchema) -> list[FeatureSchema]:
    """The schema itself, read back from JSON, and schemas that differ from
    it in one thing: the process name, the last feature dropped, the first
    feature's upper bound, or bounds on the last indicator."""
    features = list(schema.features)
    m = len(schema.numeric_indices)
    variants = [
        schema,
        FeatureSchema.from_json_dict(schema.to_json_dict()),
        FeatureSchema("another", schema.features),
    ]
    if features:
        variants.append(FeatureSchema(schema.process_name, tuple(features[:-1])))
    if m:
        first = features[0]
        bumped = Feature(first.name, NUMERIC, first.lower, first.upper + 1.0)
        variants.append(FeatureSchema(schema.process_name, (bumped, *features[1:])))
    if m < len(features):
        bounded = Feature(features[-1].name, BINARY, 0.0, 1.0)
        variants.append(FeatureSchema(schema.process_name, (*features[:-1], bounded)))
    return variants


def test_check_definition_passes_exactly_on_an_equal_schema(definitions):
    implied = [build_schema(defn) for defn in definitions]
    accepted = 0
    for schema in [v for s in implied for v in _near_misses(s)]:
        for defn, expected in zip(definitions, implied):
            try:
                schema.check_definition(defn)
            except SchemaMismatchError as exc:
                assert expected != schema
                assert str(exc) == (
                    f"model was trained for schema {schema.schema_hash} "
                    f"but the supplied definition implies {expected.schema_hash}"
                )
            else:
                assert expected == schema
                accepted += 1
    assert accepted >= 2 * len(definitions)  # each schema and its JSON copy


def test_check_definition_keeps_no_memory_of_what_it_accepted(definitions):
    for defn, neighbour in zip(definitions, definitions[1:] + definitions[:1]):
        schema = build_schema(defn)
        schema.check_definition(defn)
        with pytest.raises(SchemaMismatchError):
            schema.check_definition(neighbour)
        schema.check_definition(parse_process(serialize_process(defn)))


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

    def test_encode_log_matches_reference_on_simulated_logs(self, loan_schema, small_log):
        assert encode_log(loan_schema, small_log)[0].tolist() == reference_rows(
            loan_schema, small_log
        )
        for i in range(10):
            defn = random_process(np.random.default_rng(300 + i), i)
            schema = build_schema(defn)
            log = generate_log(defn, SimulationConfig(n_cases=80, seed=i))
            assert encode_log(schema, log)[0].tolist() == reference_rows(schema, log)

    def test_encode_log_matches_reference_on_imported_logs(self, tmp_path, loan_schema):
        # Activities repeat, come out of path order, or are missing.
        path = tmp_path / "events.csv"
        path.write_text(
            "case_id,credit_score,loan_amount,activity,label\n"
            "c1,580,300000,skilled_agent_review,NEGATIVE\n"
            "c1,580,300000,submit_application,NEGATIVE\n"
            "c2,700,50000,submit_application,POSITIVE\n"
            "c2,700,50000,standard_review,POSITIVE\n"
            "c2,700,50000,standard_review,POSITIVE\n"
            "c3,610,1000,submit_application,POSITIVE\n"
            "c1,580,300000,skilled_agent_review,NEGATIVE\n"
            "c4,650,2000,standard_review,NEGATIVE\n"
        )
        log = import_log_csv(path, ["credit_score", "loan_amount"])
        matrix, labels = encode_log(loan_schema, log)
        assert matrix.tolist() == reference_rows(loan_schema, log)
        assert labels == ("NEGATIVE", "POSITIVE", "POSITIVE", "NEGATIVE")
        for row, trace in zip(matrix, log.traces):
            np.testing.assert_array_equal(encode_trace(loan_schema, trace), row)

    def test_first_bad_trace_is_named(self, loan_schema):
        lacking = Trace("t2", {"credit_score": 580.0}, (), "POSITIVE")
        unknown = Trace("t3", SKILLED_TRACE.attrs, ("escalate",), "POSITIVE")
        both = Trace("t4", {"loan_amount": 1.0}, ("escalate",), "POSITIVE")
        cases = [
            ((lacking, unknown), "trace 't2' lacks attribute 'loan_amount'"),
            ((unknown, lacking), "trace 't3' contains unknown activity 'escalate'"),
            ((both, unknown), "trace 't4' lacks attribute 'credit_score'"),
        ]
        for bad, message in cases:
            log = EventLog.from_records("loan_approval", (SKILLED_TRACE, *bad, STANDARD_TRACE))
            with pytest.raises(SchemaMismatchError) as exc:
                encode_log(loan_schema, log)
            assert str(exc.value) == message
            with pytest.raises(SchemaMismatchError) as exc:
                encode_trace(loan_schema, bad[0])
            assert str(exc.value) == message

    def test_empty_log_raises(self, loan_schema):
        with pytest.raises(EmptyLogError):
            encode_log(loan_schema, EventLog.from_records("loan_approval", ()))

    def test_split_vector_round_trip(self, loan_schema):
        vec = encode_trace(loan_schema, SKILLED_TRACE)
        attrs, indicators = split_vector(loan_schema, vec)
        assert attrs == {"credit_score": 580.0, "loan_amount": 300000.0}
        assert indicators == {
            "skilled_agent_review": 1,
            "standard_review": 0,
            "submit_application": 1,
        }

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_split_vector_refuses_a_non_finite_indicator(self, loan_schema, value):
        vec = encode_trace(loan_schema, SKILLED_TRACE)
        vec[loan_schema.index("standard_review")] = value
        with pytest.raises(SchemaMismatchError, match="non-finite"):
            split_vector(loan_schema, vec)

    def test_split_vector_is_a_row_of_split_columns(self, loan_schema):
        vec = encode_trace(loan_schema, SKILLED_TRACE)
        vec[loan_schema.index("skilled_agent_review")] = 2.0
        columns, indicators = split_columns(loan_schema, vec[None, :])
        attrs, indicator_map = split_vector(loan_schema, vec)
        assert attrs == {name: column[0] for name, column in columns.items()}
        assert list(indicator_map.values()) == indicators[0].tolist() == [1, 0, 1]
        assert {type(v) for v in indicator_map.values()} == {int}

    CELLS = [0.5, -0.5, 0.49999999999999994, -0.49999999999999994, 1.5, -1.5, 2.5, -0.0,
             5e-324, 1e308, -1e308, 0.5000000000000001, 1.0, 0.0, -1.0]

    def test_indicator_cells_round_to_nearest(self, loan_schema):
        activities = loan_schema.names[2:]
        matrix = np.zeros((len(self.CELLS), loan_schema.arity))
        for j in range(len(activities)):
            matrix[:, 2 + j] = np.roll(self.CELLS, j)
        block = matrix[:, 2:]
        _, indicators = split_columns(loan_schema, matrix)
        assert indicators.dtype == np.int8
        np.testing.assert_array_equal(indicators, (np.rint(block) != 0).astype(np.int8))

    def test_a_non_finite_indicator_is_named(self, loan_schema):
        matrix = np.zeros((3, loan_schema.arity))
        matrix[1, loan_schema.index("standard_review")] = -np.inf
        with pytest.raises(SchemaMismatchError) as exc:
            split_columns(loan_schema, matrix)
        assert str(exc.value) == (
            "matrix has non-finite value(s) for ['standard_review'], first in row 1"
        )


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

    def test_standardized_log_has_unit_moments(self, loan_schema, small_log):
        matrix, _ = encode_log(loan_schema, small_log)
        standardized = scaler_from_matrix(matrix).apply(matrix)
        np.testing.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
        # submit_application is constant, so its std stays 0.
        np.testing.assert_allclose(standardized.std(axis=0)[:4], 1.0, atol=1e-9)
        assert standardized.std(axis=0)[4] == 0.0

    def test_json_round_trip(self, loan_schema, small_log):
        scaler = scaler_from_matrix(encode_log(loan_schema, small_log)[0])
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
