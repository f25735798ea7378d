"""Regression tests for executor fixes: modulo by zero, the
multi-restriction candidate generator, the typed error for an unknown
attribute of a relationship range, and a ``replace`` that reads the rows
its statement saw.

The candidate generator used to push only the *first* equality
restriction into an index probe, and -- worse -- fell back to a full
unrestricted scan whenever that first restriction happened to hit an
un-indexed attribute.  It now intersects rowid sets across every indexed
restriction and applies the rest as in-place filters, and the plan
reports which access path was used.
"""

import pytest

from repro.core.schema import Schema
from repro.ddl.compiler import execute_ddl
from repro.errors import QueryError, UnknownAttributeError
from repro.mdm.manager import MusicDataManager
from repro.net import MdmClient, MdmServer
from repro.quel.executor import QuelSession


@pytest.fixture
def library():
    schema = execute_ddl(
        """
        define entity PIECE (title = string, year = integer, form = string)
        """,
        Schema("library"),
    )
    piece = schema.entity_type("PIECE")
    piece.create(title="Fugue", year=1709, form="fugue")
    piece.create(title="Chorale", year=1709, form="chorale")
    piece.create(title="Toccata", year=1712, form="fugue")
    piece.create(title="Air", year=1712, form="aria")
    return schema


@pytest.fixture
def session(library):
    return QuelSession(library)


class TestModulo:
    def test_modulo(self, session):
        rows = session.execute(
            "range of p is PIECE\nretrieve (m = p.year % 10)"
            ' where p.title = "Fugue"'
        )
        assert rows == [{"m": 9}]

    def test_modulo_by_zero_raises_query_error(self, session):
        with pytest.raises(QueryError):
            session.execute("range of p is PIECE\nretrieve (m = p.year % 0)")

    def test_modulo_by_zero_literal_fold(self, session):
        with pytest.raises(QueryError):
            session.execute("range of p is PIECE\nretrieve (m = 7 % 0)")


class TestCandidateGeneration:
    def test_all_equality_restrictions_narrow_candidates(self, session):
        rows = session.execute(
            "range of p is PIECE\nretrieve (p.title)"
            ' where p.year = 1709 and p.form = "fugue"'
        )
        assert [r["p.title"] for r in rows] == ["Fugue"]
        # Both restrictions reached the index: one candidate, not two.
        assert "index (1 candidates)" in session.last_plan

    def test_conflicting_restrictions_yield_nothing(self, session):
        rows = session.execute(
            "range of p is PIECE\nretrieve (p.title)"
            ' where p.year = 1709 and p.year = 1712'
        )
        assert rows == []
        assert "index (0 candidates)" in session.last_plan

    def test_unknown_attribute_restriction_is_filtered_not_scanned(
        self, session, library
    ):
        # Relationship ranges accept attributes the schema cannot index;
        # entity ranges index adaptively, so force the filtered path by
        # mixing an indexable restriction with a residual one via a
        # relationship range instead.  For entity ranges the adaptive
        # index keeps the plan honest:
        session.execute(
            "range of p is PIECE\nretrieve (p.title) where p.form = \"aria\""
        )
        assert "index (1 candidates)" in session.last_plan
        # The adaptively created index persists for later statements.
        assert library.entity_type("PIECE").table.index_for("form")

    def test_plan_labels_unrestricted_scan(self, session):
        session.execute("range of p is PIECE\nretrieve (p.title)")
        assert "scan (4 candidates)" in session.last_plan
        assert "index" not in session.last_plan


class TestReDeclaration:
    def test_a_range_re_declared_keeps_its_range(self, session, library):
        """``range of`` a variable already holds builds no new range:
        the range it holds is kept for every variable it names."""
        session.execute("range of p is PIECE")
        held = session.ranges["p"]
        session.execute("range of p, q is PIECE")
        assert session.ranges["p"] is held and session.ranges["q"] is held
        execute_ddl("define entity OPUS (title = string)", library)
        session.execute("range of p is OPUS")
        assert session.ranges["p"].type_name == "OPUS"
        assert session.ranges["q"] is held
        with pytest.raises(QueryError, match="unknown type"):
            session.execute("range of p is NOTHING")


class TestRelationshipCandidates:
    @pytest.fixture
    def score(self):
        schema = execute_ddl(
            """
            define entity PERSON (name = string)
            define entity WORK (title = string)
            define relationship WROTE (who = PERSON, what = WORK)
            """,
            Schema("score"),
        )
        people = [
            schema.entity_type("PERSON").create(name=n) for n in ("Bach", "Handel")
        ]
        works = [
            schema.entity_type("WORK").create(title=t)
            for t in ("Fugue", "Suite", "Largo")
        ]
        wrote = schema.relationship("WROTE")
        wrote.relate(who=people[0], what=works[0])
        wrote.relate(who=people[0], what=works[1])
        wrote.relate(who=people[1], what=works[2])
        return schema, people, works

    def test_multiple_role_restrictions_intersect(self, score):
        schema, people, works = score
        session = QuelSession(schema)
        rows = session.execute(
            "range of w is WROTE\nrange of p is PERSON\nrange of k is WORK\n"
            "retrieve (k.title)"
            ' where w.who = p and w.what = k and p.name = "Bach"'
            " sort by k.title"
        )
        assert [r["k.title"] for r in rows] == ["Fugue", "Suite"]


#: Statements that read an attribute the range has not got, on every
#: path that evaluates one: target, qualification, sort key, aggregate.
UNKNOWN_ATTRIBUTE = [
    "retrieve (t.zz)",
    "retrieve (x = 1) where t.zz > 1",
    "retrieve (x = 1) sort by t.zz",
    "retrieve (count(t.zz))",
]


class TestUnknownAttributeOnARelationshipRange:
    """A relationship row used to answer ``t.zz`` with a raw
    ``KeyError`` (over the wire: a bare ``MDMError("KeyError: 'zz'")``)
    where an entity range raises ``UnknownAttributeError``."""

    @pytest.fixture
    def mdm(self, tmp_path):
        mdm = MusicDataManager(str(tmp_path / "db"))
        cmn = mdm.cmn
        cmn.PERFORMS.relate(
            orchestra=cmn.ORCHESTRA.create(name="Gewandhaus"),
            score=cmn.SCORE.create(title="BWV 578"),
        )
        yield mdm
        mdm.close()

    @pytest.mark.parametrize("statement", UNKNOWN_ATTRIBUTE)
    @pytest.mark.parametrize("ranged", ["PERFORMS", "ORCHESTRA"])
    def test_local(self, mdm, ranged, statement):
        session = QuelSession(mdm.schema)
        session.execute("range of t is %s" % ranged)
        with pytest.raises(UnknownAttributeError, match="zz"):
            session.execute(statement)

    def test_over_the_wire(self, mdm):
        server = MdmServer(mdm)
        server.start()
        client = MdmClient(server.address, default_timeout=5.0)
        try:
            client.execute("range of t is PERFORMS")
            for statement in UNKNOWN_ATTRIBUTE:
                with pytest.raises(UnknownAttributeError, match="zz"):
                    client.retrieve(statement)
            assert len(client.retrieve("retrieve (t.score)")) == 1
        finally:
            client.close()
            server.stop()

    def test_an_unknown_equality_is_still_a_filtered_scan(self, mdm):
        session = QuelSession(mdm.schema)
        session.execute("range of t is PERFORMS")
        assert session.execute("retrieve (t.score) where t.zz = 1") == []
        assert session.last_plan_object.label == "filtered scan"


class TestReplaceReadsTheRowsItsStatementSaw:
    """Set-at-a-time: a ``replace``'s assignments read each bound row as
    the statement fetched it, never as an earlier match of the same
    statement rewrote it."""

    def test_a_rewritten_row_is_read_as_it_was_matched(self):
        schema = execute_ddl("define entity T (n = integer)", Schema("shift"))
        for n in (1, 2, 3):
            schema.entity_type("T").create(n=n)
        session = QuelSession(schema)
        session.execute("range of t is T\nrange of s is T")
        # t = 2 takes s = 1's n, t = 3 takes s = 2's n -- the 2 it was
        # matched with, not the 1 that the first assignment wrote there.
        assert session.execute("replace t (n = s.n) where t.n = s.n + 1") == 2
        rows = session.execute("retrieve (t.n)")
        assert sorted(row["t.n"] for row in rows) == [1, 1, 2]


def test_a_restriction_on_an_added_attribute_passes_over_older_rows():
    """The rows appended before ``add_attribute`` read the attribute as
    null, so the index a restriction on it builds takes them in; they
    once raised ``KeyError`` there."""
    mdm = MusicDataManager(with_cmn=False)
    work = mdm.schema.define_entity("WORK", [("title", "string")])
    mdm.execute('append to WORK (title = "Mass")')
    work.add_attribute(("opus", "integer"))
    mdm.execute('append to WORK (title = "Sonata", opus = 3)')
    mdm.execute("range of w is WORK")
    assert mdm.retrieve("retrieve (w.title) where w.opus = 3") == [
        {"w.title": "Sonata"}
    ]
    assert mdm.retrieve("retrieve (w.title, w.opus) sort by w.title") == [
        {"w.title": "Mass", "w.opus": None},
        {"w.title": "Sonata", "w.opus": 3},
    ]
