"""Differential property tests for the QUEL executor.

Queries over randomly generated NOTE tables are evaluated three ways --
by the engine (index pushdown), by the scan-everything reference
interpreter, and by a brute-force Python oracle -- and must agree
exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.schema import Schema
from repro.quel.executor import QuelSession
from tests.quel.reference import reference_execute

rows_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=25
)


def build(rows):
    schema = Schema("prop")
    schema.define_entity("NOTE", [("a", "integer"), ("b", "integer")])
    note_type = schema.entity_type("NOTE")
    for a, b in rows:
        note_type.create(a=a, b=b)
    return schema


@settings(max_examples=60, deadline=None)
@given(rows_strategy, st.integers(0, 6), st.integers(0, 6))
def test_selection_differential(rows, point, bound):
    schema = build(rows)
    query = (
        "range of n is NOTE\n"
        "retrieve (n.a, n.b) where n.a = %d and n.b < %d sort by n.b"
        % (point, bound)
    )
    with_index = QuelSession(schema).execute(query)
    without_index = reference_execute(schema, query)
    oracle = sorted(
        ({"n.a": a, "n.b": b} for a, b in rows if a == point and b < bound),
        key=lambda r: r["n.b"],
    )
    assert with_index == without_index
    assert sorted(map(tuple_of, with_index)) == sorted(map(tuple_of, oracle))


def tuple_of(record):
    return tuple(sorted(record.items()))


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_join_differential(rows):
    schema = build(rows)
    query = (
        "range of x, y is NOTE\n"
        "retrieve (x.a, y.b) where x.a = y.b"
    )
    result = QuelSession(schema).execute(query)
    oracle = [
        {"x.a": xa, "y.b": yb}
        for xa, _ in rows
        for _, yb in rows
        if xa == yb
    ]
    assert sorted(map(tuple_of, result)) == sorted(map(tuple_of, oracle))


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_aggregate_differential(rows):
    schema = build(rows)
    result = QuelSession(schema).execute(
        "range of n is NOTE\n"
        "retrieve (c = count(n.a), s = sum(n.a), lo = min(n.b), hi = max(n.b))"
    )
    expected = {
        "c": len(rows),
        "s": sum(a for a, _ in rows),
        "lo": min((b for _, b in rows), default=None),
        "hi": max((b for _, b in rows), default=None),
    }
    assert result == [expected]


@settings(max_examples=40, deadline=None)
@given(rows_strategy, st.integers(0, 6))
def test_delete_differential(rows, victim):
    schema = build(rows)
    session = QuelSession(schema)
    deleted = session.execute(
        "range of n is NOTE\ndelete n where n.a = %d" % victim
    )
    assert deleted == sum(1 for a, _ in rows if a == victim)
    remaining = session.execute(
        "range of n is NOTE\nretrieve (n.a, n.b)"
    )
    oracle = [{"n.a": a, "n.b": b} for a, b in rows if a != victim]
    assert sorted(map(tuple_of, remaining)) == sorted(map(tuple_of, oracle))


@settings(max_examples=40, deadline=None)
@given(rows_strategy, st.integers(1, 6))
def test_grouped_count_differential(rows, modulus):
    schema = build(rows)
    result = QuelSession(schema).execute(
        "range of n is NOTE\n"
        "retrieve (n.a, total = count(n.b))"
    )
    expected = {}
    for a, _ in rows:
        expected[a] = expected.get(a, 0) + 1
    assert {r["n.a"]: r["total"] for r in result} == expected
