"""End-to-end QUEL text search: matches/similar_to gates, the
similarity scalar, planner pushdown onto the trigram index (locked,
pinned and through the server; `similar_to` over long postings),
parser validation, DDL, and the shell command.
"""

import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ParseError, QueryError
from repro.fixtures.corpus import load_catalog
from repro.mdm.manager import MusicDataManager
from repro.mdm.shell import MdmShell
from repro.net import MdmClient, MdmServer
from repro.text import is_similar
from tests.quel.reference import reference_execute

TITLES = [
    "Prélude in C Major",          # 1
    "prelude, op. 28 no. 4",       # 2
    "Nocturne Op. 9 No. 2",        # 3
    "Goldberg Variations: Aria",   # 4
    "Grosse Fuge -- Straße",       # 5
    "",                            # 6
    "ab",                          # 7
]


@pytest.fixture
def mdm():
    manager = MusicDataManager(with_cmn=False)
    manager.execute("define entity TRACK (title = string, n = integer)")
    track = manager.schema.entity_type("TRACK")
    for number, title in enumerate(TITLES, start=1):
        track.create(title=title, n=number)
    manager.execute("define text index on TRACK (title)")
    manager.execute("range of t is TRACK")
    return manager


def titles(rows):
    return sorted(row["t.title"] for row in rows)


class TestMatches:
    def test_diacritic_and_case_folding_end_to_end(self, mdm):
        out = mdm.execute('retrieve (t.title) where matches(t.title, "Prélude")')
        assert titles(out) == ["Prélude in C Major", "prelude, op. 28 no. 4"]
        assert mdm.session.last_plan_object.label == "index text"

    def test_casefold_expansion_through_the_gate(self, mdm):
        out = mdm.execute('retrieve (t.n) where matches(t.title, "strasse")')
        assert [row["t.n"] for row in out] == [5]

    def test_punctuation_only_query_matches_everything(self, mdm):
        # "!!!" normalizes to the empty string, which every title
        # contains; the index cannot prune, the scan must still be exact.
        out = mdm.execute('retrieve (t.n) where matches(t.title, "!!!")')
        assert len(out) == len(TITLES)
        assert mdm.session.last_plan_object.label == "scan"

    def test_sub_trigram_query_is_exact_without_pruning(self, mdm):
        out = mdm.execute('retrieve (t.n) where matches(t.title, "ab")')
        assert [row["t.n"] for row in out] == [7]
        assert mdm.session.last_plan_object.label == "scan"

    def test_no_matches(self, mdm):
        out = mdm.execute('retrieve (t.title) where matches(t.title, "zzzqqq")')
        assert out == []

    def test_combines_with_equality_restriction(self, mdm):
        out = mdm.execute(
            'retrieve (t.title) where matches(t.title, "prelude") and t.n = 2'
        )
        assert titles(out) == ["prelude, op. 28 no. 4"]
        assert mdm.session.last_plan_object.label == "index text"

    def test_explain_shows_index_text_and_row_visits(self, mdm):
        rows = mdm.execute(
            'explain analyze retrieve (t.title) where matches(t.title, "prelude")'
        )
        rendered = " ".join(row["plan"] for row in rows)
        assert "index text" in rendered
        assert "rows visited: 2" in rendered


class TestExplainNamesTheSourceThatRuns:
    """``explain`` plans with the same function execution does, so its
    plan line is ``explain analyze``'s first line for every text source."""

    @pytest.mark.parametrize("label, statement", [
        ("index text", 'retrieve (t.title) where matches(t.title, "prelude")'),
        (
            "index text stream",
            'retrieve (t.title) where matches(t.title, "prelude") limit 5',
        ),
        (
            "index text topk",
            'retrieve (t.title) where matches(t.title, "prelude") '
            'sort by similarity(t.title, "prelude in c") descending limit 3',
        ),
    ])
    def test_explain_matches_explain_analyze(self, mdm, label, statement):
        (planned,) = mdm.execute("explain " + statement)
        analyzed = mdm.execute("explain analyze " + statement)
        assert planned == analyzed[0]
        assert planned["plan"].startswith("bind t via %s (" % label)
        mdm.execute(statement)
        assert mdm.session.last_plan_object.label == label


class TestSimilarTo:
    def test_similarity_gate(self, mdm):
        out = mdm.execute(
            'retrieve (t.title) where similar_to(t.title, "prelude in c major", 0.5)'
        )
        assert titles(out) == ["Prélude in C Major"]
        assert mdm.session.last_plan_object.label == "index text"

    def test_lower_threshold_widens(self, mdm):
        out = mdm.execute(
            'retrieve (t.title) where similar_to(t.title, "prelude", 0.2)'
        )
        assert "prelude, op. 28 no. 4" in titles(out)

    def test_ranked_by_similarity_scalar(self, mdm):
        out = mdm.execute(
            'retrieve (t.title, score = similarity(t.title, "prelude in c major")) '
            'where matches(t.title, "prelude") '
            'sort by similarity(t.title, "prelude in c major") descending'
        )
        assert out[0]["t.title"] == "Prélude in C Major"
        assert out[0]["score"] == 1.0
        assert out[0]["score"] > out[1]["score"]

    def test_similarity_rejects_non_strings(self, mdm):
        with pytest.raises(QueryError):
            mdm.execute('retrieve (x = similarity(t.n, "prelude"))')


#: Large enough that a ``similar_to`` gate's postings hold hundreds of
#: rows.
CORPUS_ROWS = 2_000
SIMILAR = 'retrieve (t.title) where similar_to(t.title, "%s", %s)'


def _corpus_mdm():
    manager = MusicDataManager(with_cmn=False)
    load_catalog(manager.schema, CORPUS_ROWS, seed=5)
    manager.execute("define text index on TRACK (title)")
    manager.execute("range of t is TRACK")
    return manager


@pytest.fixture(scope="module")
def corpus():
    """A read-only corpus catalog and one of its titles."""
    manager = _corpus_mdm()
    return manager, _corpus_title(manager)


def _corpus_title(manager):
    table = manager.schema.entity_type("TRACK").table
    return sorted(row["title"] for row in table)[CORPUS_ROWS // 2]


def _reference(manager, source):
    """The AST-interpreting, scan-everything oracle's answer."""
    return reference_execute(manager.schema, "range of t is TRACK\n" + source)


def _analyzed(rows):
    """``(plan line, rows returned, rows visited)`` of an explain analyze."""
    rendered = "\n".join(row["plan"] for row in rows)
    returned = int(re.search(r"^rows: (\d+)", rendered, re.M).group(1))
    visited = int(re.search(r"rows visited: (\d+)", rendered).group(1))
    return rows[0]["plan"], returned, visited


class TestSimilarToAnswersFromTheIndex:
    """On a 2,000-row table the gate goes to the index at every
    threshold, and the index hands back the rows that pass, not a
    superset to be filtered."""

    def test_binds_index_text_and_visits_only_the_rows_it_returns(self, corpus):
        manager, title = corpus
        source = SIMILAR % (title, 0.55)
        out = manager.execute(source)
        assert manager.session.last_plan_object.label == "index text"
        assert len(out) > 1
        assert out == _reference(manager, source)
        plan, returned, visited = _analyzed(
            manager.execute("explain analyze " + source)
        )
        assert plan == "bind t via index text (%d candidates)" % len(out)
        assert returned == visited == len(out)
        # The index decided the gate, so the join never re-ran it.
        assert manager.session.last_plan_object.decided == {0}

    def test_a_matches_gate_is_only_necessary_and_is_rerun(self, corpus):
        manager, _ = corpus
        manager.execute('retrieve (t.title) where matches(t.title, "no. 7")')
        assert manager.session.last_plan_object.label == "index text"
        assert manager.session.last_plan_object.decided == set()

    def test_pinned_read_takes_in_and_reverifies_the_stale_rowids(self):
        manager = _corpus_mdm()
        title = _corpus_title(manager)
        table = manager.schema.entity_type("TRACK").table
        source = SIMILAR % (title, 0.55)
        pinned = manager.execute(source)
        hit = next(r for r in table if is_similar(r["title"], title, 0.55))
        miss = next(r for r in table if not is_similar(r["title"], title, 0.55))

        def retitle():
            # The index now says the opposite of the pinned version of
            # each: the one that matched no longer does, and vice versa.
            table.update(hit.rowid, {"title": "Something Else Entirely"})
            table.update(miss.rowid, {"title": title})

        with manager.database.snapshot():
            # Nothing stale yet: the index describes the pinned rows.
            assert manager.execute(source) == pinned
            assert manager.session.last_plan_object.decided == {0}
            with ThreadPoolExecutor(1) as pool:
                pool.submit(retitle).result(timeout=10)
            assert manager.execute(source) == pinned
            plan = manager.session.last_plan_object
            assert plan.label == "index text"
            assert plan.snapshot[1] == 2
            assert plan.decided == set()  # stale rowids: the gate re-runs
        live = manager.execute(source)
        assert live == _reference(manager, source)
        assert titles(live) != titles(pinned)

    def test_binds_the_same_way_through_the_server(self, corpus):
        manager, title = corpus
        source = SIMILAR % (title, 0.55)
        server = MdmServer(manager)
        server.start()
        client = MdmClient(server.address, default_timeout=10.0)
        try:
            client.execute("range of t is TRACK")
            out = client.retrieve(source)
            assert out == manager.execute(source)
            plan, returned, visited = _analyzed(
                client.retrieve("explain analyze " + source)
            )
        finally:
            client.close()
            server.stop()
        assert plan == "bind t via index text (%d candidates)" % len(out)
        assert returned == visited == len(out)

    @pytest.mark.parametrize("threshold", [0.05, 1.0, 1.5])
    def test_every_threshold_agrees_with_the_reference(self, corpus, threshold):
        manager, title = corpus
        source = SIMILAR % (title, threshold)
        out = manager.execute(source)
        assert manager.session.last_plan_object.label == "index text"
        assert out == _reference(manager, source)
        assert bool(out) == (threshold <= 1.0)

    @pytest.mark.parametrize("query", ["op", "", "--"])
    def test_gram_less_query_still_scans(self, corpus, query):
        manager, _ = corpus
        source = SIMILAR % (query, 0.55)
        out = manager.execute(source)
        assert manager.session.last_plan_object.label == "scan"
        assert out == _reference(manager, source)


class TestConsistency:
    def test_interpreter_and_compiled_agree(self, mdm):
        source = 'retrieve (t.title) where matches(t.title, "prelude")'
        compiled = mdm.execute(source)
        assert mdm.session.last_plan_object.label == "index text"
        assert compiled == _reference(mdm, source)
        assert len(compiled) == 2

    def test_ablated_session_scans_but_agrees(self, mdm):
        source = 'retrieve (t.title) where similar_to(t.title, "nocturne op 9", 0.4)'
        indexed = mdm.execute(source)
        assert mdm.session.last_plan_object.label == "index text"
        assert indexed == _reference(mdm, source)
        assert indexed

    def test_snapshot_read_evaluates_residually(self, mdm):
        db = mdm.database
        source = 'retrieve (t.title) where matches(t.title, "prelude")'
        live = titles(mdm.execute(source))
        with db.snapshot():
            out = mdm.execute(source)
            assert titles(out) == live
            assert mdm.session.last_plan_object.label == "index text"
        # Rows committed after a pinned LSN stay invisible to it.
        lsn = db.transactions.snapshot_lsn()
        track = mdm.schema.entity_type("TRACK")
        track.create(title="Another Prélude", n=99)
        db.transactions.pin_snapshot(lsn)
        try:
            assert titles(mdm.execute(source)) == live
        finally:
            db.transactions.unpin_snapshot()
        assert len(titles(mdm.execute(source))) == len(live) + 1

    def test_update_and_delete_keep_the_gate_exact(self, mdm):
        track = mdm.schema.entity_type("TRACK")
        table = track.table
        out = mdm.execute('retrieve (t.n) where matches(t.title, "goldberg")')
        (rowid,) = [
            row.rowid for row in table if row["title"].startswith("Goldberg")
        ]
        table.update(rowid, {"title": "Art of Fugue"})
        assert mdm.execute('retrieve (t.n) where matches(t.title, "goldberg")') == []
        out = mdm.execute('retrieve (t.n) where matches(t.title, "art of fugue")')
        assert len(out) == 1
        table.delete(rowid)
        assert mdm.execute(
            'retrieve (t.n) where matches(t.title, "art of fugue")'
        ) == []


class TestParserValidation:
    def test_matches_arity(self, mdm):
        with pytest.raises(ParseError):
            mdm.execute('retrieve (t.n) where matches(t.title)')

    def test_first_argument_must_be_attribute(self, mdm):
        with pytest.raises(ParseError):
            mdm.execute('retrieve (t.n) where matches("x", "y")')

    def test_query_must_be_string_literal(self, mdm):
        with pytest.raises(ParseError):
            mdm.execute('retrieve (t.n) where matches(t.title, 3)')

    def test_threshold_must_be_numeric_literal(self, mdm):
        with pytest.raises(ParseError):
            mdm.execute('retrieve (t.n) where similar_to(t.title, "x", "y")')

    def test_ddl_rejects_unknown_type(self, mdm):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            mdm.execute("define text index on NOPE (title)")


class TestShell:
    def test_indexes_command_lists_text_index(self, mdm):
        shell = MdmShell(mdm=mdm)
        out = shell.handle_line("\\indexes")
        assert "text" in out
        assert "title" in out

    def test_indexes_command_survives_composite_index(self, mdm):
        # \indexes lists a composite index next to text indexes without
        # tripping over the tuple-valued column key, and calls it
        # ordered: no index enforces uniqueness.
        table = mdm.schema.entity_type("TRACK").table
        table.create_index(("title", "n"))
        shell = MdmShell(mdm=mdm)
        out = shell.handle_line("\\indexes")
        assert "title, n" in out
        assert "ordered" in out and "unique" not in out
        assert "text" in out

    def test_search_through_the_shell(self, mdm):
        shell = MdmShell(mdm=mdm)
        out = shell.handle_line(
            'retrieve (t.title) where matches(t.title, "goldberg");;'
        )
        assert "Goldberg Variations: Aria" in out
