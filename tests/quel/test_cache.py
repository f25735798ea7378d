"""The compile-and-cache layer: statement-cache behavior, plan-cache
epoch invalidation (``define entity`` / ``define ordering`` / index
creation), cross-session sharing, and the shell's cache-info line."""

import pytest

from repro.core.schema import Schema
from repro.mdm.manager import MusicDataManager
from repro.mdm.shell import MdmShell
from repro.quel.executor import QuelSession

QUERY = "retrieve (n.pitch) where n.n = 5"


@pytest.fixture
def mdm():
    manager = MusicDataManager(with_cmn=False)
    manager.execute("define entity NOTE (n = integer, pitch = integer)")
    note = manager.schema.entity_type("NOTE")
    for index in range(10):
        note.create(n=index, pitch=60 + index)
    manager.execute("range of n is NOTE")
    return manager


def _warm(session, source=QUERY, attempts=5):
    """Execute *source* until the plan cache reports a hit.

    The first executions may keep missing: adaptive index creation bumps
    the schema epoch, invalidating the plan compiled moments earlier.
    The fixture data settles within two executions; five is headroom.
    """
    for _ in range(attempts):
        session.execute(source)
        if session.last_cache_info == "hit":
            return
    raise AssertionError(
        "plan cache never settled to a hit in %d executions" % attempts
    )


class TestStatementCache:
    def test_repeated_source_skips_the_parser(self, mdm):
        session = mdm.session
        metrics = mdm.database.metrics
        before = metrics.value("quel.cache.statement_hits")
        session.execute(QUERY)
        session.execute(QUERY)
        session.execute(QUERY)
        assert metrics.value("quel.cache.statement_hits") >= before + 2

    def test_statement_cache_is_per_session(self, mdm):
        mdm.session.execute(QUERY)
        metrics = mdm.database.metrics
        other = QuelSession(mdm.schema)
        other.execute("range of n is NOTE")
        misses = metrics.value("quel.cache.statement_misses")
        # A fresh session has its own statement cache: the source the
        # first session already parsed is still a parse miss here.
        other.execute(QUERY)
        assert metrics.value("quel.cache.statement_misses") == misses + 1


class TestPlanCacheInvalidation:
    def test_repeated_statement_settles_to_hits(self, mdm):
        _warm(mdm.session)
        mdm.session.execute(QUERY)
        assert mdm.session.last_cache_info == "hit"

    def test_define_entity_invalidates(self, mdm):
        _warm(mdm.session)
        invalidations = mdm.database.metrics.value("quel.cache.invalidations")
        mdm.execute("define entity REST (duration = integer)")
        mdm.session.execute(QUERY)
        assert mdm.session.last_cache_info == "miss"
        assert (
            mdm.database.metrics.value("quel.cache.invalidations")
            > invalidations
        )

    def test_define_ordering_invalidates(self, mdm):
        mdm.execute("define entity CHORD (name = integer)")
        _warm(mdm.session)
        mdm.execute("define ordering o (NOTE) under CHORD")
        mdm.session.execute(QUERY)
        assert mdm.session.last_cache_info == "miss"

    def test_index_creation_invalidates(self, mdm):
        _warm(mdm.session)
        mdm.schema.entity_type("NOTE").table.create_index("pitch")
        mdm.session.execute(QUERY)
        assert mdm.session.last_cache_info == "miss"

    def test_text_index_create_and_drop_relower_the_plan(self, mdm):
        # The full scan -> "index text" -> scan life cycle: text DDL
        # bumps the schema epoch, so a cached plan re-lowers each time
        # and the matches() gate stays exact throughout.
        mdm.execute("define entity SONG (title = string)")
        song = mdm.schema.entity_type("SONG")
        song.create(title="Prélude in C")
        song.create(title="Nocturne")
        mdm.execute("range of s is SONG")
        query = 'retrieve (s.title) where matches(s.title, "prelude")'
        session = mdm.session
        _warm(session, query)
        assert session.last_plan_object.label == "scan"
        invalidations = mdm.database.metrics.value("quel.cache.invalidations")
        mdm.execute("define text index on SONG (title)")
        assert session.execute(query) == [{"s.title": "Prélude in C"}]
        assert session.last_cache_info == "miss"
        assert (
            mdm.database.metrics.value("quel.cache.invalidations")
            > invalidations
        )
        _warm(session, query)
        assert session.last_plan_object.label == "index text"
        mdm.database.drop_text_index(song.table.name, "title")
        assert session.execute(query) == [{"s.title": "Prélude in C"}]
        assert session.last_cache_info == "miss"
        _warm(session, query)
        assert session.last_plan_object.label == "scan"

    def test_range_redeclaration_invalidates_the_session_slot(self, mdm):
        mdm.execute("define entity CHORD (name = integer)")
        _warm(mdm.session)
        # Re-pointing the range variable changes what the cached plan
        # means; the session-local fast path must not serve it.
        mdm.execute("range of n is CHORD")
        mdm.session.execute("retrieve (n.name)")
        mdm.execute("range of n is NOTE")
        rows = mdm.session.execute(QUERY)
        assert rows == [{"n.pitch": 65}]


class TestPlanCacheSharing:
    def test_plan_is_shared_across_sessions(self, mdm):
        _warm(mdm.session)
        other = QuelSession(mdm.schema)
        other.execute("range of n is NOTE")
        # Fresh session, fresh statement cache -- but the plan compiled
        # by the first session is a database-wide artifact.
        other.execute(QUERY)
        assert other.last_cache_info == "hit"

    def test_registered_function_gets_a_private_plan(self, mdm):
        _warm(mdm.session)
        other = QuelSession(mdm.schema)
        other.execute("range of n is NOTE")
        other.register_function("octave", lambda pitch: pitch // 12)
        # A modified registry must not share plans keyed to the
        # pristine one (the function could shadow anything).
        other.execute(QUERY)
        assert other.last_cache_info == "miss"


class TestShellCacheInfo:
    def test_explain_reports_miss_then_hit(self):
        shell = MdmShell(MusicDataManager(with_cmn=False))
        shell.handle_line("define entity WIDGET (n = integer);;")
        shell.handle_line("range of w is WIDGET;;")
        first = shell.handle_line("\\explain retrieve (w.n) where w.n = 1")
        assert "(plan cache: miss)" in first
        # The first plan run adaptively builds the n index, bumping the
        # schema epoch, so the second explain recompiles once more.
        shell.handle_line("\\explain retrieve (w.n) where w.n = 1")
        third = shell.handle_line("\\explain retrieve (w.n) where w.n = 1")
        assert "(plan cache: hit)" in third
