"""End-to-end tracing: spans produced by the instrumented layers.

These tests install a real Tracer and drive the QUEL executor and the
MDM service layer, asserting the span taxonomy documented in DESIGN.md
actually shows up: ``quel.parse``, ``quel.statement`` (with nested
``quel.plan`` / ``quel.scan``), and ``mdm.run``."""

import pytest

from repro.core.schema import Schema
from repro.mdm.manager import MusicDataManager
from repro.obs.trace import Tracer, install_tracer, open_span_count, uninstall_tracer
from repro.quel.executor import QuelSession
from repro.quel.parser import parse_quel


@pytest.fixture
def tracer():
    installed = install_tracer(Tracer())
    try:
        yield installed
    finally:
        uninstall_tracer()


@pytest.fixture
def session():
    schema = Schema("traced")
    schema.define_entity("NOTE", [("n", "integer"), ("pitch", "integer")])
    for i in range(8):
        schema.entity_type("NOTE").create(n=i, pitch=60 + i)
    quel = QuelSession(schema)
    quel.execute("range of n is NOTE")
    return quel


def _find(span, name):
    if span.name == name:
        return span
    for child in span.children:
        found = _find(child, name)
        if found is not None:
            return found
    return None


class TestQuelSpans:
    def test_statement_span_tree(self, tracer, session):
        # rows_visited comes from ExecutionLimits, which only counts
        # when limits are installed (the no-limits loop stays counter-free).
        session.set_limits(row_budget=1000)
        try:
            session.execute("retrieve (n.pitch) where n.n = 3")
        finally:
            session.clear_limits()
        roots = tracer.finished_roots()
        names = [root.name for root in roots]
        assert "quel.parse" in names
        statement = roots[[r.name for r in roots].index("quel.statement")]
        assert statement.attrs["kind"] == "RetrieveStatement"
        plan = _find(statement, "quel.plan")
        assert plan is not None
        assert plan.attrs["label"] == "index"
        assert plan.attrs["candidates"] == 1
        assert plan.attrs["index_hits"] == 1
        scan = _find(statement, "quel.scan")
        assert scan is not None
        assert scan.attrs["rows_visited"] == 1
        assert scan.attrs["rows_out"] == 1
        assert open_span_count() == 0

    def test_scan_span_counts_all_candidates(self, tracer, session):
        session.set_limits(row_budget=1000)
        try:
            session.execute("retrieve (n.n) where n.pitch > 0")
        finally:
            session.clear_limits()
        statement = tracer.last_root()
        scan = _find(statement, "quel.scan")
        assert scan.attrs["rows_visited"] == 8
        assert scan.attrs["rows_out"] == 8

    def test_scan_span_without_limits_reports_rows_out_only(self, tracer, session):
        session.execute("retrieve (n.n) where n.pitch > 0")
        scan = _find(tracer.last_root(), "quel.scan")
        assert scan.attrs["rows_out"] == 8
        assert "rows_visited" not in scan.attrs

    def test_error_path_closes_spans(self, tracer, session):
        session.set_limits(row_budget=3)
        try:
            with pytest.raises(Exception):
                session.execute("retrieve (n.n) where n.pitch > 0")
        finally:
            session.clear_limits()
        assert open_span_count() == 0
        statement = tracer.last_root()
        assert statement.name == "quel.statement"
        assert "error" in statement.attrs

    def test_abandoned_generator_does_not_leak(self, tracer, session):
        # Internal generator use: grab one binding and walk away.
        (statement,) = parse_quel("retrieve (n.n)")
        generator = session._compiled_bindings(session._compiled_for(statement))
        next(generator)
        generator.close()
        assert open_span_count() == 0


class TestServiceSpans:
    def test_run_span_records_attempts(self, tracer):
        mdm = MusicDataManager(with_cmn=False)
        mdm.schema.define_entity("NOTE", [("name", "integer")])
        session = mdm.connect("editor", seed=0)
        session.run(lambda m: m.schema.entity_type("NOTE").create(name=1))
        run = None
        for root in tracer.finished_roots():
            if root.name == "mdm.run":
                run = root
        assert run is not None
        assert run.attrs["session"] == "editor"
        assert run.attrs["attempts"] == 1
        assert open_span_count() == 0
