"""Scalar/aggregate function library details."""

import pytest

from repro.errors import QueryError
from repro.quel.functions import (
    AGGREGATES,
    FunctionRegistry,
    SCALARS,
    agg_any,
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    scalar_length,
    scalar_mod,
)


class TestAggregates:
    def test_count_skips_nulls(self):
        assert agg_count([1, None, 2, None]) == 2
        assert agg_count([]) == 0

    def test_sum_and_avg(self):
        assert agg_sum([1, 2, None, 3]) == 6
        assert agg_avg([1, 2, 3]) == 2.0
        assert agg_avg([None]) is None
        assert agg_sum([]) == 0

    def test_min_max(self):
        assert agg_min([3, None, 1]) == 1
        assert agg_max([3, None, 1]) == 3
        assert agg_min([]) is None

    def test_any(self):
        assert agg_any([None, None]) == 0
        assert agg_any([0]) == 1

    def test_sum_rejects_strings(self):
        with pytest.raises(QueryError):
            agg_sum(["a", "b"])

    def test_fractions_aggregate(self):
        from fractions import Fraction

        assert agg_sum([Fraction(1, 2), Fraction(1, 4)]) == Fraction(3, 4)


class TestScalars:
    def test_length(self):
        assert scalar_length("abc") == 3
        assert scalar_length(None) is None
        with pytest.raises(QueryError):
            scalar_length(42)

    def test_mod(self):
        assert scalar_mod(7, 3) == 1
        assert scalar_mod(None, 3) is None

    def test_case_functions(self):
        assert SCALARS["uppercase"]("abc") == "ABC"
        assert SCALARS["lowercase"]("ABC") == "abc"
        assert SCALARS["abs"](-4) == 4


class TestRegistry:
    def test_lookup_case_insensitive(self):
        registry = FunctionRegistry()
        assert registry.scalar("ABS") is SCALARS["abs"]
        assert registry.aggregate("Count") is AGGREGATES["count"]

    def test_unknown_names(self):
        registry = FunctionRegistry()
        with pytest.raises(QueryError):
            registry.scalar("nope")
        with pytest.raises(QueryError):
            registry.aggregate("nope")

    def test_registration_isolated_per_registry(self):
        first = FunctionRegistry()
        second = FunctionRegistry()
        first.register_scalar("twice", lambda v: v * 2)
        assert first.scalar("twice")(3) == 6
        with pytest.raises(QueryError):
            second.scalar("twice")

    def test_is_aggregate(self):
        registry = FunctionRegistry()
        assert registry.is_aggregate("count")
        assert not registry.is_aggregate("abs")


class TestSchemaReferenceValidation:
    def test_dangling_target_reported(self, schema):
        schema.define_entity("WORK", [("when", "DATE")])
        problems = schema.validate_references()
        assert problems == ["WORK.when references undefined entity type DATE"]

    def test_resolved_after_definition(self, schema):
        schema.define_entity("WORK", [("when", "DATE")])
        schema.define_entity("DATE", [("year", "integer")])
        assert schema.validate_references() == []


class TestBuiltinCallsAreTyped:
    """A builtin scalar called with the wrong number or kind of
    operands is a ``QueryError`` naming it, at compile where the arity
    decides it; no ``TypeError`` leaves the session."""

    @pytest.fixture
    def session(self, schema):
        from repro.quel.executor import QuelSession

        track = schema.define_entity("TRACK", [("title", "string"), ("n", "integer")])
        track.create(title="prelude", n=3)
        session = QuelSession(schema)
        session.execute("range of t is TRACK")
        return session

    @pytest.mark.parametrize("source, names", [
        ("retrieve (x = similarity(t.title)) limit 2", "similarity() takes 2"),
        ("retrieve (x = mod(1))", "mod() takes 2"),
        ("retrieve (x = abs(1, 2))", "abs() takes 1"),
        ("retrieve (t.n) where length(t.title, 1) = 7", "length() takes 1"),
        ("retrieve (t.n) sort by mod(t.n)", "mod() takes 2"),
        ("explain retrieve (x = mod(1))", "mod() takes 2"),
        ('retrieve (x = mod("a", 2))', "mod(): "),
        ('retrieve (x = abs(t.title))', "abs(): "),
        ("retrieve (x = lowercase(t.n))", "lowercase(): "),
        ("retrieve (x = mod(t.n, 0))", "mod(): "),
    ])
    def test_a_miscalled_builtin_is_a_query_error(self, session, source, names):
        with pytest.raises(QueryError) as raised:
            session.execute(source)
        assert names in str(raised.value)

    def test_a_registered_function_keeps_its_own_arity_and_errors(self, session):
        assert session.execute("retrieve (x = mod(7, 4), y = abs(0 - t.n))") == [
            {"x": 3, "y": 3}
        ]
        session.functions.register_scalar("mod", lambda value: value % 2)
        assert session.execute("retrieve (x = mod(t.n))") == [{"x": 1}]
        with pytest.raises(TypeError):
            session.execute('retrieve (x = mod(t.title))')
