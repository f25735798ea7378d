"""Executor edge cases: relationship variables, null handling,
per-binding appends, index/scan equivalence."""

import pytest

from repro.core.schema import Schema
from repro.ddl.compiler import execute_ddl
from repro.errors import QueryError
from repro.quel.executor import QuelSession
from tests.quel.reference import reference_execute


@pytest.fixture
def music():
    schema = execute_ddl(
        """
        define entity PERSON (name = string)
        define entity WORK (title = string, year = integer)
        define relationship WROTE (author = PERSON, work = WORK, fee = integer)
        """,
        Schema("extras"),
    )
    alice = schema.entity_type("PERSON").create(name="Alice")
    bob = schema.entity_type("PERSON").create(name="Bob")
    early = schema.entity_type("WORK").create(title="Early", year=1700)
    late = schema.entity_type("WORK").create(title="Late", year=1800)
    wrote = schema.relationship("WROTE")
    wrote.relate(_attributes={"fee": 10}, author=alice, work=early)
    wrote.relate(_attributes={"fee": 20}, author=bob, work=late)
    return schema


class TestRelationshipVariables:
    def test_value_attributes_readable(self, music):
        rows = QuelSession(music).execute(
            "range of w is WROTE\nretrieve (w.fee) sort by w.fee"
        )
        assert [r["w.fee"] for r in rows] == [10, 20]

    def test_role_join(self, music):
        rows = QuelSession(music).execute(
            "retrieve (PERSON.name, WORK.year)\n"
            "  where WROTE.author is PERSON and WROTE.work is WORK\n"
            "  and WROTE.fee > 15"
        )
        assert rows == [{"PERSON.name": "Bob", "WORK.year": 1800}]

    def test_relationship_variable_as_value_rejected(self, music):
        with pytest.raises(QueryError):
            QuelSession(music).execute(
                "range of w is WROTE\nretrieve (x = w + 1)"
            )


class TestNullSemantics:
    def test_null_comparisons_false(self, music):
        music.entity_type("WORK").create(title="Undated", year=None)
        session = QuelSession(music)
        rows = session.execute(
            "range of w is WORK\nretrieve (w.title) where w.year < 3000"
        )
        titles = {r["w.title"] for r in rows}
        assert "Undated" not in titles

    def test_null_in_projection(self, music):
        music.entity_type("WORK").create(title="Undated", year=None)
        rows = QuelSession(music).execute(
            'range of w is WORK\nretrieve (w.year) where w.title = "Undated"'
        )
        assert rows == [{"w.year": None}]

    def test_null_arithmetic_propagates(self, music):
        music.entity_type("WORK").create(title="Undated", year=None)
        rows = QuelSession(music).execute(
            'range of w is WORK\nretrieve (x = w.year + 1) where w.title = "Undated"'
        )
        assert rows == [{"x": None}]


class TestAppendPerBinding:
    def test_append_from_query(self, music):
        session = QuelSession(music)
        count = session.execute(
            "range of w is WORK\n"
            "append to PERSON (name = w.title) where w.year > 1750"
        )
        assert count == 1
        assert music.entity_type("PERSON").find(name="Late")

    def test_append_constant(self, music):
        count = QuelSession(music).execute(
            'append to PERSON (name = "Carol")'
        )
        assert count == 1


class TestAblationFlag:
    """The section 5.2 index-vs-scan ablation, chosen by statement shape
    (there is no switch): both must return what the reference does."""

    def test_results_identical(self, music):
        # The index answers the sargable form; adding 0 makes the same
        # predicate non-sargable, so the planner can only scan.
        indexed = "range of w is WORK\nretrieve (w.title) where w.year = 1700"
        scanned = indexed.replace("w.year =", "w.year + 0 =")
        fast = QuelSession(music)
        slow = QuelSession(music)
        assert fast.execute(indexed) == slow.execute(scanned)
        assert fast.last_plan_object.label == "index"
        assert slow.last_plan_object.label == "scan"
        assert fast.execute(indexed) == reference_execute(music, indexed)
        assert fast.execute(indexed) == [{"w.title": "Early"}]
