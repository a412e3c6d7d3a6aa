"""Tests for the AQL aggregation language."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import AqlEvaluationError, AqlSyntaxError
from repro.astrolabe.aql import (
    AqlProgram,
    compile_predicate,
    evaluate,
    parse,
    parse_expression,
)

ROWS = [
    {"load": 0.5, "nmembers": 3, "subs": 0b1010, "name": "a",
     "contacts": ("a", "b"), "loads": (0.5, 0.9)},
    {"load": 0.2, "nmembers": 2, "subs": 0b0110, "name": "b",
     "contacts": ("c",), "loads": (0.2,)},
    {"load": 0.9, "nmembers": 5, "subs": 0b0001, "name": "c",
     "contacts": ("d", "e"), "loads": (0.9, 0.1)},
]


class TestParsing:
    def test_simple_select(self):
        query = parse("SELECT MIN(load) AS minload")
        assert query.items[0].alias == "minload"
        assert query.where is None

    def test_keywords_case_insensitive(self):
        parse("select min(load) as x where load > 0")

    def test_multiple_items(self):
        query = parse("SELECT MIN(load) AS a, MAX(load) AS b")
        assert len(query.items) == 2

    def test_default_alias_from_function(self):
        query = parse("SELECT COUNT(*)")
        assert query.items[0].alias == "count"

    def test_duplicate_alias_rejected(self):
        with pytest.raises(AqlSyntaxError):
            parse("SELECT MIN(load) AS x, MAX(load) AS x")

    def test_missing_select_rejected(self):
        with pytest.raises(AqlSyntaxError):
            parse("MIN(load)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(AqlSyntaxError):
            parse("SELECT MIN(load) AS x extra")

    def test_unbalanced_parens(self):
        with pytest.raises(AqlSyntaxError):
            parse("SELECT MIN(load AS x")

    def test_bad_character(self):
        with pytest.raises(AqlSyntaxError):
            parse("SELECT MIN(load) AS x @")

    def test_string_literal_with_escape(self):
        query = parse("SELECT IF(TRUE, 'it\\'s', 'no') AS s")
        assert query is not None

    def test_expression_needs_alias(self):
        with pytest.raises(AqlSyntaxError):
            parse("SELECT 1 + 2")

    def test_parse_expression(self):
        expr = parse_expression("load > 0.5 AND urgency <= 3")
        assert expr is not None

    def test_parse_expression_rejects_trailing(self):
        with pytest.raises(AqlSyntaxError):
            parse_expression("load > 0.5 extra")


class TestAggregates:
    def test_count_star(self):
        assert evaluate("SELECT COUNT(*) AS n", ROWS) == {"n": 3}

    def test_count_attribute_skips_none(self):
        rows = [{"x": 1}, {"x": None}, {}]
        assert evaluate("SELECT COUNT(x) AS n", rows) == {"n": 1}

    def test_sum(self):
        assert evaluate("SELECT SUM(nmembers) AS n", ROWS) == {"n": 10}

    def test_sum_empty_is_zero(self):
        assert evaluate("SELECT SUM(x) AS n", []) == {"n": 0}

    def test_avg(self):
        result = evaluate("SELECT AVG(nmembers) AS a", ROWS)
        assert result["a"] == pytest.approx(10 / 3)

    def test_avg_empty_is_null(self):
        assert evaluate("SELECT AVG(x) AS a", []) == {"a": None}

    def test_min_max(self):
        result = evaluate("SELECT MIN(load) AS lo, MAX(load) AS hi", ROWS)
        assert result == {"lo": 0.2, "hi": 0.9}

    def test_min_skips_missing(self):
        rows = [{"x": 5}, {}]
        assert evaluate("SELECT MIN(x) AS m", rows) == {"m": 5}

    def test_bor(self):
        assert evaluate("SELECT BOR(subs) AS s", ROWS) == {"s": 0b1111}

    def test_bor_type_error(self):
        with pytest.raises(AqlEvaluationError):
            evaluate("SELECT BOR(name) AS s", ROWS)

    def test_band(self):
        rows = [{"m": 0b110}, {"m": 0b011}]
        assert evaluate("SELECT BAND(m) AS s", rows) == {"s": 0b010}

    def test_band_empty(self):
        assert evaluate("SELECT BAND(m) AS s", []) == {"s": 0}

    def test_any_all(self):
        result = evaluate("SELECT ANY(load > 0.8) AS a, ALL(load > 0.1) AS b", ROWS)
        assert result == {"a": True, "b": True}

    def test_union(self):
        result = evaluate("SELECT UNION(contacts) AS u", ROWS)
        assert result["u"] == ("a", "b", "c", "d", "e")

    def test_union_type_error(self):
        with pytest.raises(AqlEvaluationError):
            evaluate("SELECT UNION(load) AS u", ROWS)

    def test_first_orders_by_value(self):
        result = evaluate("SELECT FIRST(2, load) AS f", ROWS)
        assert result["f"] == (0.2, 0.5)

    def test_first_with_order_key(self):
        result = evaluate("SELECT FIRST(2, name, load) AS f", ROWS)
        assert result["f"] == ("b", "a")

    def test_first_needs_positive_k(self):
        with pytest.raises(AqlEvaluationError):
            evaluate("SELECT FIRST(0, load) AS f", ROWS)

    def test_reps_contacts_flattens_and_sorts_by_load(self):
        result = evaluate(
            "SELECT REPS_CONTACTS(3, contacts, loads) AS r", ROWS
        )
        assert result["r"] == ("e", "c", "a")  # loads 0.1, 0.2, 0.5

    def test_reps_loads_parallel(self):
        result = evaluate("SELECT REPS_LOADS(3, contacts, loads) AS r", ROWS)
        assert result["r"] == (0.1, 0.2, 0.5)

    def test_reps_mismatched_tuples(self):
        rows = [{"contacts": ("a",), "loads": (1.0, 2.0)}]
        with pytest.raises(AqlEvaluationError):
            evaluate("SELECT REPS_CONTACTS(1, contacts, loads) AS r", rows)

    def test_nested_aggregate_rejected(self):
        with pytest.raises(AqlEvaluationError):
            AqlProgram("SELECT MIN(MAX(load)) AS x").evaluate(ROWS)

    def test_bare_attribute_rejected_in_table_context(self):
        with pytest.raises(AqlEvaluationError):
            AqlProgram("SELECT load AS x").evaluate(ROWS)

    def test_unknown_function(self):
        with pytest.raises(AqlEvaluationError):
            AqlProgram("SELECT FROBNICATE(load) AS x").evaluate(ROWS)


class TestWhere:
    def test_where_filters(self):
        assert evaluate("SELECT COUNT(*) AS n WHERE load < 0.6", ROWS) == {"n": 2}

    def test_where_with_and_or(self):
        result = evaluate(
            "SELECT COUNT(*) AS n WHERE load < 0.6 AND nmembers > 2", ROWS
        )
        assert result == {"n": 1}

    def test_where_with_not(self):
        assert evaluate("SELECT COUNT(*) AS n WHERE NOT load < 0.6", ROWS) == {"n": 1}

    def test_where_string_equality(self):
        assert evaluate("SELECT COUNT(*) AS n WHERE name = 'a'", ROWS) == {"n": 1}

    def test_where_missing_attribute_is_falsy_comparison(self):
        assert evaluate("SELECT COUNT(*) AS n WHERE ghost > 1", ROWS) == {"n": 0}


class TestScalarsAndOperators:
    def test_if(self):
        assert evaluate("SELECT IF(COUNT(*) > 2, 'big', 'small') AS s", ROWS) == {
            "s": "big"
        }

    def test_coalesce(self):
        rows = [{"a": None, "b": 7}]
        assert evaluate("SELECT MAX(COALESCE(a, b)) AS m", rows) == {"m": 7}

    def test_abs(self):
        assert evaluate("SELECT MAX(ABS(0 - load)) AS m", ROWS) == {"m": 0.9}

    def test_len(self):
        assert evaluate("SELECT MAX(LEN(contacts)) AS m", ROWS) == {"m": 2}

    def test_contains(self):
        assert evaluate(
            "SELECT COUNT(*) AS n WHERE CONTAINS(contacts, 'c')", ROWS
        ) == {"n": 1}

    def test_bit(self):
        assert evaluate("SELECT COUNT(*) AS n WHERE BIT(subs, 1)", ROWS) == {"n": 2}

    def test_arithmetic(self):
        assert evaluate("SELECT SUM(nmembers * 2 + 1) AS n", ROWS) == {"n": 23}

    def test_division_by_zero(self):
        with pytest.raises(AqlEvaluationError):
            evaluate("SELECT MAX(load / 0) AS x", ROWS)

    def test_modulo(self):
        assert evaluate("SELECT SUM(nmembers % 2) AS n", ROWS) == {"n": 2}

    def test_unary_minus(self):
        assert evaluate("SELECT MIN(-load) AS m", ROWS) == {"m": -0.9}

    def test_string_concatenation(self):
        rows = [{"a": "x", "b": "y"}]
        assert evaluate("SELECT MAX(a + b) AS s", rows) == {"s": "xy"}

    def test_tuple_concatenation(self):
        rows = [{"a": (1,), "b": (2,)}]
        assert evaluate("SELECT MAX(a + b) AS t", rows) == {"t": (1, 2)}

    def test_incompatible_comparison(self):
        rows = [{"a": "x", "b": 3}]
        with pytest.raises(AqlEvaluationError):
            evaluate("SELECT COUNT(*) AS n WHERE a < b", rows)

    def test_null_comparison_is_false(self):
        rows = [{"a": None}]
        assert evaluate("SELECT COUNT(*) AS n WHERE a < 3", rows) == {"n": 0}

    def test_null_arithmetic_propagates(self):
        rows = [{"a": None}]
        assert evaluate("SELECT MAX(a + 1) AS m", rows) == {"m": None}

    def test_literals(self):
        assert evaluate("SELECT 42 AS n, 'hi' AS s, TRUE AS t, NULL AS z", []) == {
            "n": 42, "s": "hi", "t": True, "z": None
        }

    def test_operator_precedence(self):
        assert evaluate("SELECT 2 + 3 * 4 AS n", []) == {"n": 14}
        assert evaluate("SELECT (2 + 3) * 4 AS n", []) == {"n": 20}

    def test_comparison_chain_not_allowed_but_parens_work(self):
        assert evaluate("SELECT (1 < 2) = TRUE AS n", []) == {"n": True}


class TestPredicates:
    def test_compile_predicate(self):
        predicate = compile_predicate("urgency <= 3 AND publisher = 'reuters'")
        assert predicate({"urgency": 2, "publisher": "reuters"})
        assert not predicate({"urgency": 5, "publisher": "reuters"})

    def test_predicate_contains(self):
        predicate = compile_predicate("CONTAINS(keywords, 'premium')")
        assert predicate({"keywords": ("premium", "x")})
        assert not predicate({"keywords": ()})

    def test_predicate_rejects_aggregates(self):
        with pytest.raises(AqlEvaluationError):
            compile_predicate("SUM(x) > 3")


# Differential testing: the compiled path must agree with the
# tree-walking interpreter on arbitrary programs over arbitrary rows.
ATTR_VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.text(max_size=5),
)
ROW_STRATEGY = st.fixed_dictionaries(
    {},
    optional={
        "load": ATTR_VALUES,
        "n": st.integers(min_value=0, max_value=100),
        "mask": st.integers(min_value=0, max_value=255),
    },
)
PROGRAMS = st.sampled_from([
    "SELECT COUNT(*) AS c",
    "SELECT COUNT(load) AS c, SUM(n) AS s",
    "SELECT MIN(load) AS lo, MAX(load) AS hi WHERE n > 10",
    "SELECT BOR(mask) AS m",
    "SELECT AVG(n) AS a WHERE load != NULL",
    "SELECT IF(COUNT(*) > 3, 'many', 'few') AS s",
    "SELECT SUM(n * 2 - 1) AS s WHERE n % 2 = 0",
    "SELECT FIRST(3, n) AS f",
    "SELECT ANY(n > 50) AS a, ALL(n >= 0) AS b",
])


class TestCompiledMatchesInterpreter:
    @given(PROGRAMS, st.lists(ROW_STRATEGY, max_size=12))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_differential(self, source, rows):
        program = AqlProgram(source)
        try:
            expected = program.evaluate_interpreted(rows)
        except AqlEvaluationError:
            with pytest.raises(AqlEvaluationError):
                program.evaluate(rows)
            return
        assert program.evaluate(rows) == expected
