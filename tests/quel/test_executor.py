"""QUEL execution: retrieves, joins, entity operators, mutations."""

import pytest

from repro.core.schema import Schema
from repro.ddl.compiler import execute_ddl
from repro.errors import QueryError
from repro.quel.executor import QuelSession


@pytest.fixture
def music():
    schema = execute_ddl(
        """
        define entity PERSON (name = string)
        define entity COMPOSITION (title = string, year = integer)
        define relationship COMPOSER (composer = PERSON, composition = COMPOSITION)
        define entity CHORD (name = integer)
        define entity NOTE (name = integer, pitch = integer)
        define ordering note_in_chord (NOTE) under CHORD
        """,
        Schema("music"),
    )
    smith = schema.entity_type("PERSON").create(name="John Stafford Smith")
    bach = schema.entity_type("PERSON").create(name="Johann Sebastian Bach")
    anthem = schema.entity_type("COMPOSITION").create(
        title="The Star Spangled Banner", year=1814
    )
    fugue = schema.entity_type("COMPOSITION").create(title="Fuge g-moll", year=1709)
    composer = schema.relationship("COMPOSER")
    composer.relate(composer=smith, composition=anthem)
    composer.relate(composer=bach, composition=fugue)
    chord = schema.entity_type("CHORD").create(name=1)
    ordering = schema.ordering("note_in_chord")
    for i in range(1, 5):
        note = schema.entity_type("NOTE").create(name=i, pitch=59 + i)
        ordering.append(chord, note)
    return schema


@pytest.fixture
def session(music):
    return QuelSession(music)


class TestRetrieve:
    def test_simple_projection(self, session):
        rows = session.execute(
            "range of c is COMPOSITION\nretrieve (c.title) sort by c.title"
        )
        assert [r["c.title"] for r in rows] == [
            "Fuge g-moll", "The Star Spangled Banner",
        ]

    def test_named_target_with_arithmetic(self, session):
        rows = session.execute(
            "range of n is NOTE\nretrieve (octave = n.pitch / 12 - 1)"
            " where n.name = 1"
        )
        assert rows == [{"octave": 4}]

    def test_paper_composer_query(self, session):
        rows = session.execute(
            'retrieve (PERSON.name)\n'
            '  where COMPOSITION.title = "The Star Spangled Banner"\n'
            "  and COMPOSER.composition is COMPOSITION\n"
            "  and COMPOSER.composer is PERSON"
        )
        assert rows == [{"PERSON.name": "John Stafford Smith"}]

    def test_implicit_range_variables(self, session):
        rows = session.execute("retrieve (COMPOSITION.title) where COMPOSITION.year < 1800")
        assert rows == [{"COMPOSITION.title": "Fuge g-moll"}]

    def test_join_via_comparison(self, session):
        rows = session.execute(
            "range of a, b is NOTE\n"
            "retrieve (a.name, b.name) where a.pitch = b.pitch + 1"
            " sort by a.name"
        )
        assert [(r["a.name"], r["b.name"]) for r in rows] == [(2, 1), (3, 2), (4, 3)]

    def test_unique(self, session):
        rows = session.execute(
            "range of c is CHORD\nrange of n is NOTE\n"
            "retrieve unique (c.name) where n under c in note_in_chord"
        )
        assert rows == [{"c.name": 1}]

    def test_sort_descending(self, session):
        rows = session.execute(
            "range of n is NOTE\nretrieve (n.name) sort by n.pitch descending"
        )
        assert [r["n.name"] for r in rows] == [4, 3, 2, 1]

    def test_or_and_not(self, session):
        rows = session.execute(
            "range of n is NOTE\n"
            "retrieve (n.name) where n.name = 1 or not n.pitch < 63 sort by n.name"
        )
        assert [r["n.name"] for r in rows] == [1, 4]

    def test_undeclared_variable(self, session):
        with pytest.raises(QueryError):
            session.execute("retrieve (mystery.x)")

    def test_constant_false_qualification(self, session):
        rows = session.execute("range of n is NOTE\nretrieve (n.name) where 1 = 2")
        assert rows == []


class TestOrderingOperators:
    def test_before(self, session):
        rows = session.execute(
            "range of n1, n2 is NOTE\n"
            "retrieve (n1.name) where n1 before n2 in note_in_chord"
            " and n2.name = 3 sort by n1.name"
        )
        assert [r["n1.name"] for r in rows] == [1, 2]

    def test_after(self, session):
        rows = session.execute(
            "range of n1, n2 is NOTE\n"
            "retrieve (n1.name) where n1 after n2 in note_in_chord"
            " and n2.name = 3"
        )
        assert [r["n1.name"] for r in rows] == [4]

    def test_under_children(self, session):
        rows = session.execute(
            "range of n1 is NOTE\nrange of c1 is CHORD\n"
            "retrieve (n1.name) where n1 under c1 in note_in_chord"
            " and c1.name = 1 sort by n1.name"
        )
        assert [r["n1.name"] for r in rows] == [1, 2, 3, 4]

    def test_under_parent_lookup(self, session):
        rows = session.execute(
            "range of n1 is NOTE\nrange of c1 is CHORD\n"
            "retrieve (c1.name) where n1 under c1 in note_in_chord"
            " and n1.name = 2"
        )
        assert rows == [{"c1.name": 1}]

    def test_order_name_inferred(self, session):
        rows = session.execute(
            "range of n1, n2 is NOTE\n"
            "retrieve (n1.name) where n1 before n2 and n2.name = 2"
        )
        assert [r["n1.name"] for r in rows] == [1]

    def test_ambiguous_order_requires_name(self, music):
        music.define_entity("STAFF", [("n", "integer")])
        music.define_ordering("on_staff", ["NOTE"], under="STAFF")
        session = QuelSession(music)
        with pytest.raises(QueryError):
            session.execute(
                "range of n1, n2 is NOTE\n"
                "retrieve (n1.name) where n1 before n2 and n2.name = 2"
            )


class TestAggregates:
    def test_global_aggregates(self, session):
        rows = session.execute(
            "range of n is NOTE\n"
            "retrieve (total = count(n.name), low = min(n.pitch),"
            " high = max(n.pitch), mean = avg(n.pitch))"
        )
        assert rows == [
            {"total": 4, "low": 60, "high": 63, "mean": 61.5}
        ]

    def test_sum(self, session):
        rows = session.execute(
            "range of n is NOTE\nretrieve (s = sum(n.name))"
        )
        assert rows == [{"s": 10}]

    def test_grouped_aggregate(self, session):
        rows = session.execute(
            "range of c is COMPOSITION\nrange of p is PERSON\n"
            "retrieve (p.name, works = count(c.title))\n"
            "  where COMPOSER.composer is p and COMPOSER.composition is c"
        )
        by_name = {r["p.name"]: r["works"] for r in rows}
        assert by_name == {"John Stafford Smith": 1, "Johann Sebastian Bach": 1}

    def test_aggregate_over_empty(self, session):
        rows = session.execute(
            "range of n is NOTE\n"
            "retrieve (total = count(n.name)) where n.pitch > 1000"
        )
        assert rows == [{"total": 0}]

    def test_wrong_arity_is_rejected_even_when_no_row_arrives(self, session):
        # The arity is a property of the statement, not of the data: it
        # must not depend on whether the qualification lets a row through.
        for where in ("", " where n.pitch > 1000"):
            with pytest.raises(QueryError, match="exactly one argument"):
                session.execute(
                    "range of n is NOTE\n"
                    "retrieve (c = count(n.name, n.name))" + where
                )

    def test_any(self, session):
        rows = session.execute(
            "range of n is NOTE\nretrieve (found = any(n.name)) where n.pitch = 61"
        )
        assert rows == [{"found": 1}]

    def test_user_defined_aggregate(self, session):
        session.register_function(
            "span", lambda values: max(values) - min(values), aggregate=True
        )
        rows = session.execute(
            "range of n is NOTE\nretrieve (r = span(n.pitch))"
        )
        assert rows == [{"r": 3}]

    def test_user_defined_scalar(self, session):
        session.register_function("double", lambda v: v * 2)
        rows = session.execute(
            "range of n is NOTE\nretrieve (d = double(n.pitch)) where n.name = 1"
        )
        assert rows == [{"d": 120}]


class TestMutations:
    def test_append(self, session, music):
        count = session.execute("append to NOTE (name = 9, pitch = 99)")
        assert count == 1
        assert len(music.entity_type("NOTE").find(name=9)) == 1

    def test_replace(self, session, music):
        session.execute(
            "range of n is NOTE\nreplace n (pitch = 0) where n.name = 2"
        )
        assert music.entity_type("NOTE").find_one(name=2)["pitch"] == 0

    def test_replace_returns_count(self, session):
        count = session.execute(
            "range of n is NOTE\nreplace n (pitch = n.pitch + 12)"
        )
        assert count == 4

    def test_delete_removes_from_orderings(self, session, music):
        session.execute("range of n is NOTE\ndelete n where n.name = 2")
        assert music.entity_type("NOTE").find(name=2) == []
        ordering = music.ordering("note_in_chord")
        chord = music.entity_type("CHORD").find_one(name=1)
        assert [n["name"] for n in ordering.children(chord)] == [1, 3, 4]
        ordering.check_invariants()

    def test_delete_all(self, session, music):
        count = session.execute("range of n is NOTE\ndelete n")
        assert count == 4
        assert music.entity_type("NOTE").count() == 0

    def test_division_by_zero(self, session):
        with pytest.raises(QueryError):
            session.execute("range of n is NOTE\nretrieve (x = n.pitch / 0)")


class TestPlanner:
    def test_plan_uses_index_for_equality(self, session):
        session.execute(
            "range of n is NOTE\nretrieve (n.name) where n.name = 2"
        )
        assert "index (1 candidates)" in session.last_plan

    def test_plan_scan_without_restriction(self, session):
        session.execute("range of n is NOTE\nretrieve (n.name)")
        assert "scan (4 candidates)" in session.last_plan
