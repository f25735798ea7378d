"""The ``explain`` / ``explain analyze`` QUEL statements."""

import pytest

from repro.core.schema import Schema
from repro.errors import ParseError, QueryError
from repro.quel import ast
from repro.quel.executor import QuelSession
from repro.quel.parser import parse_quel


@pytest.fixture
def session():
    schema = Schema("explain")
    schema.define_entity("NOTE", [("n", "integer"), ("pitch", "integer")])
    for i in range(20):
        schema.entity_type("NOTE").create(n=i, pitch=60 + i % 12)
    quel = QuelSession(schema)
    quel.execute("range of n is NOTE")
    return quel


def _plan_text(rows):
    assert all(list(row) == ["plan"] for row in rows)
    return "\n".join(row["plan"] for row in rows)


class TestExplain:
    def test_parses_as_a_statement(self):
        statements = parse_quel("explain retrieve (n.n)")
        assert type(statements[0]).__name__ == "ExplainStatement"
        assert statements[0].analyze is False
        analyzed = parse_quel("explain analyze retrieve (n.n)")[0]
        assert analyzed.analyze is True

    def test_plan_without_execution(self, session):
        rows = session.execute("explain retrieve (n.pitch) where n.n = 7")
        assert _plan_text(rows) == "bind n via index (1 candidates)"

    def test_explain_does_not_execute_mutations(self, session):
        before = session.schema.entity_type("NOTE").count()
        rows = session.execute('explain append to NOTE (n = 99, pitch = 1)')
        assert session.schema.entity_type("NOTE").count() == before
        assert "constant" in _plan_text(rows)

    def test_explain_delete_shows_target_binding(self, session):
        before = session.schema.entity_type("NOTE").count()
        rows = session.execute("explain delete n where n.n = 3")
        assert session.schema.entity_type("NOTE").count() == before
        assert "bind n via index" in _plan_text(rows)

    def test_explain_range_declares_the_variable(self, session):
        rows = session.execute("explain range of m is NOTE")
        assert rows == [{"plan": "range declaration (no plan)"}]
        assert session.execute("retrieve (m.n) where m.n = 1")

    def test_nested_explain_is_rejected_by_the_parser(self, session):
        with pytest.raises(ParseError):
            session.execute("explain explain retrieve (n.n)")

    def test_nested_explain_is_rejected_by_the_executor(self, session):
        # Belt and braces: a hand-built nested ExplainStatement (which
        # the parser can no longer produce) is still refused.
        inner = parse_quel("explain retrieve (n.n)")[0]
        with pytest.raises(QueryError):
            session.execute_statement(ast.ExplainStatement(inner, False))


class TestExplainAnalyze:
    def test_reports_plan_rows_visits_and_time(self, session):
        rows = session.execute(
            "explain analyze retrieve (n.pitch) where n.n = 7"
        )
        text = _plan_text(rows)
        assert "bind n via index (1 candidates)" in text
        assert "rows: 1" in text
        assert "rows visited: 1" in text
        assert "time:" in text and "ms" in text

    def test_scan_visits_every_candidate(self, session):
        rows = session.execute("explain analyze retrieve (n.n)")
        text = _plan_text(rows)
        assert "bind n via scan (20 candidates)" in text
        assert "rows: 20" in text
        assert "rows visited: 20" in text

    def test_mutations_execute_and_report_counts(self, session):
        rows = session.execute(
            "explain analyze replace n (pitch = n.pitch + 1) where n.n = 2"
        )
        text = _plan_text(rows)
        assert "rows: 1" in text  # one instance affected
        assert session.execute("retrieve (n.pitch) where n.n = 2") == [
            {"n.pitch": 63}
        ]

    def test_restores_previously_installed_limits(self, session):
        session.set_limits(row_budget=1000)
        previous = session.limits
        session.execute("explain analyze retrieve (n.n)")
        assert session.limits is previous
        session.clear_limits()

    def test_updates_last_plan(self, session):
        session.execute("explain analyze retrieve (n.pitch) where n.n = 7")
        assert "index" in session.last_plan
        assert session.last_plan_object.label == "index"

    def test_a_pinned_statement_reports_its_snapshot_and_stale_rowids(
        self, session
    ):
        """The one new thing that can make a pinned read slow -- stale
        rowids riding along with every index probe -- is in the plan."""
        database = session.schema.database
        metrics = database.metrics
        source = "explain analyze retrieve (n.pitch) where n.n = 7"
        assert "snapshot" not in _plan_text(session.execute(source))
        txn = database.begin()   # uncommitted: nothing can settle these
        session.execute("replace n (pitch = 0) where n.n = 3")
        session.execute("replace n (pitch = 0) where n.n = 4")
        with database.snapshot() as snap:
            text = _plan_text(session.execute(source))
            assert "bind n via index (1 candidates)" in text
            assert "snapshot %d: +2 stale rowids" % snap.lsn in text
            assert "rows visited: 1" in text
            assert session.execute("retrieve (n.pitch) where n.n = 3") == [
                {"n.pitch": 63}
            ]
        txn.abort()
        assert metrics.value("quel.snapshot_index_reads") == 2
        assert metrics.value("quel.snapshot_scan_fallbacks") == 0
        assert metrics.value("mvcc.stale_rowids") == 0
        with database.snapshot() as snap:
            text = _plan_text(session.execute(source))
            assert "snapshot %d: +0 stale rowids" % snap.lsn in text

    def test_a_swamped_stale_set_falls_back_to_the_scan_and_is_counted(
        self, session
    ):
        database = session.schema.database
        note = session.schema.entity_type("NOTE")
        for i in range(20, 620):
            note.create(n=i, pitch=0)
        txn = database.begin()
        assert session.execute("replace n (pitch = 1) where n.pitch = 0") == 600
        with database.snapshot():
            text = _plan_text(session.execute(
                "explain analyze retrieve (n.pitch) where n.n = 7"
            ))
            assert "bind n via snapshot scan (1 candidates)" in text
            assert session.execute("retrieve (n.n) where n.pitch = 0 limit 2") \
                == [{"n.n": 20}, {"n.n": 21}]
        txn.abort()
        assert database.metrics.value("quel.snapshot_scan_fallbacks") == 2
        with database.snapshot():
            session.execute("retrieve (n.pitch) where n.n = 7")
            assert session.last_plan_object.label == "index"
