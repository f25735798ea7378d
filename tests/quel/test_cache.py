"""The shape cache: one parse and one plan per statement shape, bound
and pinned literals, epoch invalidation (``define entity`` / ``define
ordering`` / index creation), what sessions share and what they keep to
themselves, and the shell's cache-info line."""

import sys
import threading

import pytest

from repro.errors import ParseError, QueryError
from repro.mdm.manager import MusicDataManager
from repro.mdm.shell import MdmShell
from repro.quel import executor
from repro.quel.executor import QuelSession

QUERY = "retrieve (n.pitch) where n.n = 5"
POINT = "retrieve (n.pitch) where n.n = %d"


@pytest.fixture
def mdm():
    manager = MusicDataManager(with_cmn=False)
    manager.execute("define entity NOTE (n = integer, pitch = integer)")
    note = manager.schema.entity_type("NOTE")
    for index in range(10):
        note.create(n=index, pitch=60 + index)
    manager.execute("range of n is NOTE")
    return manager


@pytest.fixture
def calls(monkeypatch):
    """How often ``execute`` reached the parser and the compiler --
    counts, not timings."""
    counts = {"parse_quel": 0, "compile_statement": 0}
    for name in counts:
        original = getattr(executor, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(executor, name, counting)
    return counts


def _warm(session, source=QUERY, attempts=5):
    """Execute *source* until the plan look-up reports a hit.

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
    def test_repeated_source_skips_the_parser(self, mdm, calls):
        session = mdm.session
        metrics = mdm.database.metrics
        before = metrics.value("quel.cache.statement_hits")
        session.execute(QUERY)
        session.execute(QUERY)
        session.execute(QUERY)
        assert metrics.value("quel.cache.statement_hits") >= before + 2
        assert calls["parse_quel"] == 1

    def test_a_new_literal_skips_the_parser_and_the_compiler(self, mdm, calls):
        session = mdm.session
        _warm(session, POINT % 0)
        calls.update(parse_quel=0, compile_statement=0)
        metrics = mdm.database.metrics
        misses = metrics.value("quel.cache.statement_misses")
        for n in range(1, 10):
            assert session.execute(POINT % n) == [{"n.pitch": 60 + n}]
            assert session.last_cache_info == "hit"
        assert calls == {"parse_quel": 0, "compile_statement": 0}
        assert metrics.value("quel.cache.statement_misses") == misses

    def test_a_fresh_session_shares_the_parse_but_not_the_ranges(
        self, mdm, calls
    ):
        mdm.session.execute(QUERY)
        parses = calls["parse_quel"]
        other = QuelSession(mdm.schema)
        # The shape cache is the database's; range declarations are the
        # session's, and a statement runs under its own session's.
        with pytest.raises(QueryError, match="undeclared range variable"):
            other.execute(QUERY)
        other.execute("range of n is NOTE")
        assert other.execute(QUERY) == [{"n.pitch": 65}]
        assert calls["parse_quel"] == parses

    def test_a_slot_is_typed(self, mdm):
        session = mdm.session
        assert session.execute("retrieve (n.pitch) where n.n = 5") == [
            {"n.pitch": 65}
        ]
        shapes = len(session._shapes)
        # 5.0 and "5" are other shapes, not other values of this one.
        assert session.execute("retrieve (n.pitch) where n.n = 5.0") == [
            {"n.pitch": 65}
        ]
        assert session.execute('retrieve (n.pitch) where n.n = "5"') == []
        assert len(session._shapes) == shapes + 2

    def test_the_text_is_lexed_not_compared(self, mdm, calls):
        session = mdm.session
        session.execute("retrieve (x = 1 + 2)")
        assert session.execute("retrieve (x = 30 + 12)") == [{"x": 42}]
        assert calls["parse_quel"] == 1
        # A quote inside a comment opens no string; a # inside a string
        # opens no comment.
        assert session.execute(
            "retrieve (x = 4) -- it's a comment\n where 1 = 1"
        ) == [{"x": 4}]
        assert session.execute('retrieve (x = "a # b")') == [{"x": "a # b"}]
        assert session.execute('retrieve (x = "c -- d")') == [{"x": "c -- d"}]
        assert session.execute("retrieve (x = 'it\\'s')") == [{"x": "it's"}]

    def test_a_parse_error_is_never_cached(self, mdm):
        session = mdm.session
        assert len(session.execute(POINT % 3 + " limit 2")) == 1
        # `limit` is checked by the parser; the shape is known, the
        # value is not, so the parser sees it again.
        for _ in range(2):
            with pytest.raises(ParseError, match="positive integer") as info:
                session.execute(POINT % 3 + " limit 0")
            assert (info.value.line, info.value.column) == (1, 40)
        for _ in range(2):
            with pytest.raises(ParseError):
                session.execute("retrieve (n.pitch) where n.n = ")

    def test_distinct_texts_do_not_evict_a_repeated_one(self, mdm, calls):
        session = mdm.session
        mdm.execute("define entity SONG (title = string)")
        mdm.execute("range of s is SONG")
        search = 'retrieve (s.title) where matches(s.title, "prelude")'
        _warm(session, POINT % 0)  # builds the n index: an epoch bump
        _warm(session, search)
        calls.update(parse_quel=0, compile_statement=0)
        for n in range(300):
            session.execute(POINT % (1000 + n))
        session.execute(search)
        assert session.last_cache_info == "hit"
        assert calls == {"parse_quel": 0, "compile_statement": 0}

    def test_both_tables_are_bounded(self, mdm, monkeypatch):
        from repro.quel import cache

        monkeypatch.setattr(cache, "_SHAPES", 4)
        monkeypatch.setattr(cache, "_TEXTS", 8)
        session = mdm.session
        for n in range(20):
            session.execute(POINT % n)  # one entry, twenty texts
            # A pinned slot: an entry a value.
            session.execute("retrieve (n.n) where n.n > %d limit %d" % (n, n + 1))
        assert len(session._shapes) <= 4
        assert len(session._shapes._texts) <= 8
        # Evicted is forgotten, not wrong.
        assert session.execute(POINT % 3) == [{"n.pitch": 63}]
        assert len(session.execute("retrieve (n.n) where n.n > 1 limit 2")) == 2


class TestPinnedLiterals:
    """Literals that planning or folding consumes are part of the key:
    another value is another entry, with its own parse and plan."""

    @pytest.fixture
    def songs(self, mdm):
        mdm.execute("define entity SONG (title = string)")
        song = mdm.schema.entity_type("SONG")
        for title in ("Prélude in C", "Prelude in D", "Nocturne", "Notturno"):
            song.create(title=title)
        mdm.execute("define text index on SONG (title)")
        mdm.execute("range of s is SONG")
        return mdm.session

    def test_limit(self, mdm):
        session = mdm.session
        source = "retrieve (n.n) where n.pitch > 60 limit %d"
        for _ in range(2):
            for limit in (1, 3, 2):
                assert len(session.execute(source % limit)) == limit

    def test_matches_query_and_similar_to_threshold(self, songs):
        search = 'retrieve (s.title) where matches(s.title, "%s")'
        similar = 'retrieve (s.title) where similar_to(s.title, "%s", %s)'
        for _ in range(2):
            assert len(songs.execute(search % "prelude")) == 2
            assert len(songs.execute(search % "nocturne")) == 1
            assert len(songs.execute(similar % ("nocturne", "0.9"))) == 1
            assert len(songs.execute(similar % ("nocturne", "0.2"))) == 2
            assert len(songs.execute(similar % ("prelude in c", "0.9"))) == 1

    def test_similarity_and_ordinal_arguments(self, songs):
        ranked = (
            'retrieve (s.title, score = similarity(s.title, "%s")) '
            'sort by similarity(s.title, "%s") descending limit 1'
        )
        for _ in range(2):
            (best,) = songs.execute(ranked % ("notturno", "notturno"))
            assert best["s.title"] == "Notturno"
            (best,) = songs.execute(ranked % ("nocturne", "nocturne"))
            assert best["s.title"] == "Nocturne"
            # Target and sort key differ: the target is not the sort key.
            (best,) = songs.execute(ranked % ("nocturne", "prelude in d"))
            assert best["s.title"] == "Prelude in D"
            assert best["score"] < 0.5

    def test_a_bound_target_is_not_mistaken_for_the_sort_key(self, mdm):
        # A target that *is* the sort key is evaluated once a row; two
        # bound slots hold the same value in one statement (3, 3) and
        # not in the next of its shape (3, 7).
        session = mdm.session
        source = (
            "retrieve (n.n, v = (n.n - %d) * (n.n - %d)) "
            "sort by (n.n - %d) * (n.n - %d) limit 1"
        )
        assert session.execute(source % (3, 3, 3, 3)) == [{"n.n": 3, "v": 0}]
        assert session.execute(source % (3, 3, 7, 7)) == [{"n.n": 7, "v": 16}]
        assert session.execute(source % (7, 7, 7, 7)) == [{"n.n": 7, "v": 0}]


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

    def test_an_epoch_bump_recompiles_but_does_not_reparse(self, mdm, calls):
        _warm(mdm.session)
        calls.update(parse_quel=0, compile_statement=0)
        mdm.schema.entity_type("NOTE").table.create_index("pitch")
        assert mdm.session.execute(POINT % 7) == [{"n.pitch": 67}]
        assert calls == {"parse_quel": 0, "compile_statement": 1}

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
        # means; the plan compiled for the old binding must not serve it.
        mdm.execute("range of n is CHORD")
        mdm.session.execute("retrieve (n.name)")
        mdm.execute("range of n is NOTE")
        rows = mdm.session.execute(QUERY)
        assert rows == [{"n.pitch": 65}]

    def test_equal_shapes_under_different_range_declarations(self, mdm):
        mdm.execute("define entity CHORD (n = integer, pitch = integer)")
        mdm.schema.entity_type("CHORD").create(n=5, pitch=1)
        notes, chords = mdm.session, QuelSession(mdm.schema)
        chords.execute("range of n is CHORD")
        for _ in range(3):
            assert notes.execute(QUERY) == [{"n.pitch": 65}]
            assert chords.execute(QUERY) == [{"n.pitch": 1}]
        assert chords.last_cache_info == "hit"


class TestPlanCacheSharing:
    def test_plan_is_shared_across_sessions(self, mdm):
        _warm(mdm.session)
        other = QuelSession(mdm.schema)
        other.execute("range of n is NOTE")
        # Fresh session -- but the plan compiled by the first session
        # is a database-wide artifact, whatever literal it arrives with.
        other.execute(POINT % 8)
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

    def test_a_reregistered_similarity_is_not_served_the_builtin_fold(
        self, mdm
    ):
        mdm.execute("define entity SONG (title = string)")
        mdm.schema.entity_type("SONG").create(title="Nocturne")
        mdm.execute("range of s is SONG")
        source = 'retrieve (x = similarity(s.title, "nocturne"))'
        assert mdm.session.execute(source) == [{"x": 1.0}]
        other = QuelSession(mdm.schema)
        other.execute("range of s is SONG")
        other.register_function("similarity", lambda left, right: -1)
        assert other.execute(source) == [{"x": -1}]
        assert mdm.session.execute(source) == [{"x": 1.0}]

    def test_threads_share_the_plan_and_keep_their_literals(self, mdm):
        """8 threads, one session, one shape: a literal vector stored on
        the shared plan (or on the session, not its thread) hands some
        thread another thread's rows."""
        note = mdm.schema.entity_type("NOTE")
        for index in range(10, 90):
            note.create(n=index, pitch=60 + index)
        session = mdm.session
        _warm(session, POINT % 0)
        replace = "replace n (pitch = %d) where n.n = %d"
        _warm(session, replace % (60, 0))
        wrong = []
        barrier = threading.Barrier(8)

        def worker(thread):
            # The service layer retries wait-die aborts; every client
            # of it runs on the manager's one QuelSession.
            client = mdm.connect(
                "thread-%d" % thread, seed=thread, max_attempts=200,
                default_timeout=30.0,
            )
            assert client.quel is session
            mine = range(10 * thread + 10, 10 * thread + 20)
            barrier.wait(timeout=30)
            for n in mine:
                try:
                    for _ in range(10):
                        rows = client.run(
                            lambda m: m.retrieve(POINT % n),
                            read_only=bool(n % 2),
                        )
                        if rows != [{"n.pitch": 60 + n}]:
                            wrong.append((n, rows))
                        # Rewrites the value it holds: harmless unless
                        # the plan runs with another thread's literals.
                        count = client.run(
                            lambda m: m.execute(replace % (60 + n, n))
                        )
                        if count != 1:
                            wrong.append((n, "replace", count))
                except Exception as error:  # a dead thread passes nothing
                    wrong.append((n, error))

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-statement
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert sorted(
            (row["n.n"], row["n.pitch"])
            for row in session.execute("retrieve (n.n, n.pitch)")
        ) == [(n, 60 + n) for n in range(90)]


class TestCountGuards:
    """A statement with a new literal costs what a repeated one costs:
    the parser and the compiler run per shape (and once more when the
    adaptive index build bumps the epoch), not per statement."""

    def test_a_thousand_distinct_points(self, mdm, calls):
        session = mdm.session
        for n in range(1000):
            session.execute(POINT % n)
        assert calls["parse_quel"] <= 3
        assert calls["compile_statement"] <= 3

    def test_a_thousand_distinct_appends(self, mdm, calls):
        session = mdm.session
        for n in range(1000):
            assert session.execute(
                "append to NOTE (n = %d, pitch = %d)" % (1000 + n, n % 128)
            ) == 1
        assert calls["parse_quel"] <= 3
        assert calls["compile_statement"] <= 3
        assert session.execute(
            "retrieve (c = count(n.n)) where n.n >= 1000"
        ) == [{"c": 1000}]


class TestTheShapeIsVisible:
    def test_last_shape(self, mdm):
        session = QuelSession(mdm.schema)
        assert session.last_shape is None
        session.execute("range of n is NOTE")
        session.execute('retrieve (n.pitch,  n.n)\n  where n.n = 5 and n.pitch != "x"')
        assert session.last_shape == (
            "retrieve (n.pitch, n.n) where n.n = ? and n.pitch != ?"
        )
        session.execute("retrieve (n.n) where n.n < 2 limit 1 -- first")
        assert session.last_shape == "retrieve (n.n) where n.n < ? limit ?"

    def test_the_shapes_gauge(self, mdm):
        metrics = mdm.database.metrics
        before = metrics.value("quel.cache.shapes")
        for n in range(20):
            mdm.session.execute("retrieve (n.pitch) where n.n > %d" % n)
        assert metrics.value("quel.cache.shapes") == before + 1
        assert "quel.cache.shapes" in MdmShell(mdm).handle_line("\\metrics")


class TestShellCacheInfo:
    def test_explain_reports_miss_then_hit(self):
        shell = MdmShell(MusicDataManager(with_cmn=False))
        shell.handle_line("define entity WIDGET (n = integer);;")
        shell.handle_line("range of w is WIDGET;;")
        first = shell.handle_line("\\explain retrieve (w.n) where w.n = 1")
        assert "(plan cache: miss; shape: " in first
        # The first plan run adaptively builds the n index, bumping the
        # schema epoch, so the second explain recompiles once more.
        shell.handle_line("\\explain retrieve (w.n) where w.n = 1")
        third = shell.handle_line("\\explain retrieve (w.n) where w.n = 2")
        assert third.endswith(
            "(plan cache: hit; shape: explain retrieve (w.n) where w.n = ?)"
        )
