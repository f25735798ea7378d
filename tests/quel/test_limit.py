"""The QUEL ``limit N`` clause.

Parser validation (only positive integer literals), bounded execution
across every statement shape (unsorted, sorted, unique, aggregates),
agreement of the streaming, top-k and snapshot candidate sources with
the scan-everything reference interpreter, the streaming sources'
early exit (``explain analyze`` rows-visited strictly below the
candidate count), and the pull every source shares: ``stmt limit N`` is
a prefix of ``stmt`` for every source, read mode and N, and pays for N
rows (``rows fetched``).
"""

import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import pytest

from repro.core.schema import Schema
from repro.errors import ParseError
from repro.fixtures.corpus import COMPOSERS, load_catalog
from repro.obs.metrics import MetricsRegistry
from repro.quel import sources
from repro.quel.compile import PushdownOption
from repro.quel.executor import QuelSession
from repro.quel.parser import parse_quel
from repro.storage.table import Table
from repro.text import SimilarityScorer
from tests.quel.reference import reference_execute

ROWS = 10_000

TOPK = (
    'retrieve (t.title, score = similarity(t.title, "prelude no. 7")) '
    'where matches(t.title, "prelude") '
    'sort by similarity(t.title, "prelude no. 7") descending limit 10'
)
TOPK_UNLIMITED = TOPK.rsplit(" limit ", 1)[0]


@pytest.fixture(scope="module")
def catalog():
    schema = Schema("limit-catalog")
    entity = load_catalog(schema, ROWS, seed=3)
    schema.database.create_text_index(entity.table.name, "title")
    return schema


def _session(schema):
    session = QuelSession(schema)
    session.execute("range of t is TRACK")
    return session


def _reference(schema, source):
    return reference_execute(schema, "range of t is TRACK\n" + source)


class TestParserValidation:
    @pytest.mark.parametrize("operand", ["0", "-3", "2.5", '"ten"', "t.n", ""])
    def test_rejects_non_positive_integer_operands(self, operand):
        with pytest.raises(ParseError):
            parse_quel("retrieve (t.n) limit %s" % operand)

    def test_parses_positive_integer(self):
        (statement,) = parse_quel("retrieve (t.n) limit 10")
        assert statement.limit == 10

    def test_absent_limit_is_none(self):
        (statement,) = parse_quel("retrieve (t.n)")
        assert statement.limit is None

    def test_limit_follows_sort(self):
        (statement,) = parse_quel(
            "retrieve (t.n) sort by t.n descending limit 3"
        )
        assert statement.limit == 3
        assert statement.descending


class TestBoundedExecution:
    """Every limit shape must equal its unlimited statement, truncated."""

    def test_unsorted_scan_limit(self, catalog):
        session = _session(catalog)
        full = session.execute("retrieve (t.composer)")
        assert session.execute("retrieve (t.composer) limit 7") == full[:7]

    def test_sorted_limit_ascending(self, catalog):
        session = _session(catalog)
        base = 'retrieve (t.title) where matches(t.title, "nocturne") sort by t.title'
        full = session.execute(base)
        assert session.execute(base + " limit 3") == full[:3]

    def test_sorted_limit_descending(self, catalog):
        session = _session(catalog)
        base = (
            'retrieve (t.title) where matches(t.title, "nocturne") '
            "sort by t.title descending"
        )
        full = session.execute(base)
        assert session.execute(base + " limit 3") == full[:3]

    def test_unique_limit(self, catalog):
        session = _session(catalog)
        base = 'retrieve unique (t.composer) where matches(t.title, "prelude")'
        full = session.execute(base)
        assert session.execute(base + " limit 5") == full[:5]

    def test_unique_sorted_limit(self, catalog):
        session = _session(catalog)
        base = (
            'retrieve unique (t.composer) where matches(t.title, "prelude") '
            "sort by t.composer"
        )
        full = session.execute(base)
        assert session.execute(base + " limit 4") == full[:4]

    def test_aggregate_limit_truncates_groups(self, catalog):
        session = _session(catalog)
        base = (
            "retrieve (t.composer, works = count(t.title)) "
            'where matches(t.title, "prelude")'
        )
        full = session.execute(base)
        assert session.execute(base + " limit 3") == full[:3]

    def test_limit_beyond_result_set_is_harmless(self, catalog):
        session = _session(catalog)
        base = 'retrieve (t.title) where matches(t.title, "goldberg zzz")'
        assert session.execute(base + " limit 50") == session.execute(base)

    def test_ranked_limit_equals_full_sort_truncated(self, catalog):
        session = _session(catalog)
        full = session.execute(TOPK_UNLIMITED)
        assert session.execute(TOPK) == full[:10]


class TestPathAgreement:
    def test_compiled_interpreter_and_ablated_agree(self, catalog):
        compiled = _session(catalog)
        out = compiled.execute(TOPK)
        assert len(out) == 10
        assert compiled.last_plan_object.label == "index text topk"

        # The reference interprets the AST over a full scan, scores
        # every gate survivor and stable-sorts: same rows, same order.
        assert _reference(catalog, TOPK) == out
        # Without the limit the same statement materializes and sorts
        # every "index text" candidate; its head is the top-k answer.
        assert compiled.execute(TOPK_UNLIMITED)[:10] == out
        assert compiled.last_plan_object.label == "index text"

    def test_snapshot_read_agrees(self, catalog):
        session = _session(catalog)
        live = session.execute(TOPK)
        with catalog.database.snapshot():
            out = session.execute(TOPK)
            assert out == live
            assert session.last_plan_object.label == "index text topk"

    def test_pinned_read_sizes_its_candidate_cap_without_visiting_rows(
        self, catalog, monkeypatch
    ):
        """The planner's cap used to be ``len(table) // 2``, and ``len``
        under a pinned snapshot walks every chain: 10,000 visibility
        checks to compute one integer."""
        session = _session(catalog)
        source = 'retrieve (t.title) where matches(t.title, "op. 28")'
        live = session.execute(source)
        assert 0 < len(live) < ROWS // 20
        visits = []
        visible_row = Table._visible_row

        def counting(chain, snapshot):
            visits.append(chain)
            return visible_row(chain, snapshot)

        monkeypatch.setattr(Table, "_visible_row", staticmethod(counting))
        with catalog.database.snapshot():
            assert session.execute(source) == live
        assert session.last_plan_object.label == "index text"
        # A few looks per candidate row (fetch, gate, target) -- never
        # one per row of the table.
        assert 0 < len(visits) <= 4 * len(live)

    def test_stream_paths_agree_on_unsorted_limit(self, catalog):
        source = 'retrieve (t.title) where matches(t.title, "prelude") limit 5'
        session = _session(catalog)
        out = session.execute(source)
        assert session.last_plan_object.label == "index text stream"
        assert len(out) == 5
        full = session.execute(source.rsplit(" limit ", 1)[0])
        assert out == full[:5]
        assert session.last_plan_object.label == "index text"
        assert _reference(catalog, source) == out


def _chunk_cases():
    """name -> ``build(catalog)``, which returns ``(database, pulled)``:
    ``pulled(first)`` plans the source afresh and returns what one pull
    of it yields, as rowids (top-k: as the tail's selected records)."""
    accounting = sources.Accounting(MetricsRegistry())
    gates = [("title", "matches", "no. 7", None)]
    ranked = "prelude no. 7"

    def rowids(source, bindings, first):
        return [c.rowid for c in source.pull(bindings, first, None)]

    def over_catalog(plan):
        def build(catalog):
            declared = sources.EntityRange(catalog.entity_type("TRACK"))
            return catalog.database, lambda first: rowids(
                plan(declared), {}, first
            )
        return build

    def topk(catalog):
        declared = sources.EntityRange(catalog.entity_type("TRACK"))
        score = SimilarityScorer(ranked)

        def pulled(first):
            # Top-k's first chunk is the selection's limit.
            selector = sources.BoundedSort(first or ROWS, True)
            source = sources.TextTopK.plan(
                declared, gates, "title", ranked, accounting
            )
            for candidate in source.pull({}, None, selector):
                selector.offer(candidate.rowid, score(candidate["title"]))
            return selector.records

        return catalog.database, pulled

    def order_range(_catalog):
        schema = Schema("chunk-score")
        schema.define_entity("CHORD", [("n", "integer")])
        note = schema.define_entity("NOTE", [("n", "integer")])
        ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
        chord = schema.entity_type("CHORD").create(n=0)
        for n in range(100):
            ordering.append(chord, note.create(n=n))
        option = PushdownOption(0, "n", "c", "under", "o")
        return schema.database, lambda first: rowids(
            sources.OrderRange(
                option, ordering, sources.EntityRange(note), accounting
            ),
            {"c": chord}, first,
        )

    return {
        "index": over_catalog(lambda declared: sources.IndexSource(
            declared, [("composer", COMPOSERS[4])], (), (), accounting
        )),
        "scan": over_catalog(lambda declared: sources.IndexSource(
            declared, [], (), (), accounting
        )),
        "text stream": over_catalog(lambda declared: sources.TextStream.plan(
            declared, gates, accounting
        )),
        "text top-k": topk,
        "order range": order_range,
    }


class TestSourceChunks:
    """Every source pulled in small chunks, so each chunk after the
    first is a fetch (the stream: a re-seek) of its own: what its
    one-chunk pull yields, in the same order, locked and pinned."""

    @pytest.mark.parametrize("name", sorted(_chunk_cases()))
    def test_chunked_pull_equals_the_one_chunk_pull(self, catalog, name):
        database, pulled = _chunk_cases()[name](catalog)
        whole = pulled(None)
        assert len(whole) > 64
        for pin in (nullcontext, database.snapshot):
            with pin():
                for chunk in (1, 8, 64):
                    expected = whole[:chunk] if name == "text top-k" else whole
                    assert pulled(chunk) == expected, (name, chunk)

    def test_limit_past_the_first_chunk(self, catalog):
        session = _session(catalog)
        base = 'retrieve (t.title) where matches(t.title, "no. 7")'
        full = session.execute(base)
        assert len(full) > 200
        assert session.execute(base + " limit 200") == full[:200]
        assert session.last_plan_object.label == "index text stream"
        with catalog.database.snapshot():
            assert session.execute(base + " limit 200") == full[:200]
            assert session.last_plan_object.label == "index text stream"


class TestEarlyExit:
    @staticmethod
    def _analyze(session, source):
        counts, rendered = _analyze(session, source)
        candidates = int(re.search(r"\((\d+) candidates\)", rendered).group(1))
        return rendered, counts["rows visited"], candidates

    def test_topk_visits_fewer_rows_than_candidates(self, catalog):
        session = _session(catalog)
        rendered, visited, candidates = self._analyze(session, TOPK)
        assert "index text topk" in rendered
        assert visited < candidates
        assert visited >= 10  # at least the returned rows were fetched
        # What drawing a bucket by (bound, rowid) fetched here, before
        # it was drawn a cell of equal gram count at a time: the order
        # is the same, so the number may fall, never rise.
        assert _analyze(session, TOPK)[0]["rows fetched"] <= 141

    def test_a_ranked_row_is_scored_once(self, catalog, monkeypatch):
        """The score is the sort key *and* a target: one scorer call per
        visited row, with or without the top-k operator."""
        calls = []
        score = SimilarityScorer.__call__
        monkeypatch.setattr(
            SimilarityScorer, "__call__",
            lambda scorer, value: calls.append(value) or score(scorer, value),
        )
        session = _session(catalog)
        for source in (TOPK, TOPK_UNLIMITED):
            del calls[:]
            _, visited, _ = self._analyze(session, source)
            assert len(calls) == visited > 10

    def test_stream_visits_fewer_rows_than_candidates(self, catalog):
        session = _session(catalog)
        source = 'retrieve (t.title) where matches(t.title, "prelude") limit 5'
        rendered, visited, candidates = self._analyze(session, source)
        assert "index text stream" in rendered
        assert visited < candidates
        assert visited >= 5


# -- the shared pull ------------------------------------------------------------

PULL_ROWS = 2_000
BROWSED = COMPOSERS[4]
OTHER = COMPOSERS[5]

#: source -> (statement body, label plain, label under ``unique``); the
#: two early-exit sources serve non-unique statements only.
SOURCES = {
    "index": (
        '(t.title, t.edition) where t.composer = "%s"' % BROWSED,
        "index", "index",
    ),
    "index text": (
        '(t.title) where similar_to(t.title, "prelude no. 7 in a major", 0.3)',
        "index text", "index text",
    ),
    "index text stream": (
        '(t.title) where matches(t.title, "prelude")',
        "index text stream", "index text",
    ),
    "index text topk": (
        '(t.title, score = similarity(t.title, "prelude no. 7")) '
        'where matches(t.title, "prelude") '
        'sort by similarity(t.title, "prelude no. 7") descending',
        "index text topk", "index text",
    ),
    "scan": ('(t.composer) where t.edition != "Durand"', "scan", "scan"),
    "join": (
        '(t.title, u.edition) where t.composer = "%s" '
        'and u.composer = "%s" and u.incipit = t.incipit' % (BROWSED, BROWSED),
        "index+index", "index+index",
    ),
}
#: Around the boundary the stream and top-k chunks used to sit on, and
#: past every candidate set.
LIMITS = (1, 7, 63, 64, 65, 5_000)


def _pull_catalog():
    schema = Schema("pull-catalog")
    entity = load_catalog(schema, PULL_ROWS, seed=7)
    schema.database.create_text_index(entity.table.name, "title")
    entity.table.create_index("composer")
    session = QuelSession(schema)
    session.execute("range of t, u is TRACK")
    return schema, entity.table, session


def _rewrites(table):
    """Row rewrites that move rows into and out of every source's
    candidate set, as ``(rowid, updates or None to delete)``; half are
    committed, half left uncommitted, by the caller."""
    browsed = [r.rowid for r in table if r["composer"] == BROWSED]
    others = [r.rowid for r in table if r["composer"] == OTHER]
    preludes = [
        r.rowid for r in table
        if "prelude" in r["title"].lower() and r["composer"] != BROWSED
    ]
    plain = [
        r.rowid for r in table
        if "lude" not in r["title"].lower()
        and r["composer"] not in (BROWSED, OTHER)
    ]
    out = []
    for half in (0, 1):
        out.append([
            (browsed[half], {"composer": OTHER}),
            (browsed[2 + half], None),
            (others[half], {"composer": BROWSED}),
            (preludes[half], {"title": "Something Else Entirely"}),
            (preludes[2 + half], None),
            (plain[half], {"title": "Prelude No. 7 in A major"}),
        ])
    return out


def _apply(table, rewrites):
    for rowid, updates in rewrites:
        if updates is None:
            table.delete(rowid)
        else:
            table.update(rowid, updates)


@pytest.fixture(scope="module", params=["locked", "pinned", "swamped"])
def reading(request):
    """``(session, mode, results before any rewrite)``; in the pinned
    modes every read of the test runs under the pin while a writer
    thread's rewrites -- committed after the pin and uncommitted --
    sit in the table's stale set."""
    schema, table, session = _pull_catalog()
    database = schema.database
    before = {
        (source, unique): session.execute(
            "retrieve %s%s" % ("unique " if unique else "", body)
        )
        for source, (body, _, _) in SOURCES.items()
        for unique in (False, True)
    }
    if request.param == "locked":
        yield session, "locked", before
        return
    committed, uncommitted = _rewrites(table)
    if request.param == "swamped":
        touched = {rowid for rowid, _ in committed + uncommitted}
        uncommitted = uncommitted + [
            (row.rowid, {"edition": "Swamp"})
            for row in table if row.rowid not in touched
        ][:table.candidate_cap() + 1]
    opened = []

    def write():
        _apply(table, committed)
        opened.append(database.begin())
        _apply(table, uncommitted)

    with ThreadPoolExecutor(1) as writer, database.snapshot():
        writer.submit(write).result(timeout=30)
        stale = len(table.stale_rowids())
        assert (stale > table.candidate_cap()) == (request.param == "swamped")
        assert stale >= len(committed) + len(uncommitted)
        try:
            yield session, request.param, before
        finally:
            writer.submit(opened[0].abort).result(timeout=30)


class TestPrefixProperty:
    """``stmt limit N`` == ``stmt``[:N] through every candidate source,
    locked, pinned beside a non-empty stale set, and swamped."""

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("unique", [False, True])
    def test_limit_is_a_prefix_through_every_source(
        self, reading, source, unique
    ):
        session, mode, before = reading
        body, plain_label, unique_label = SOURCES[source]
        statement = "retrieve %s%s" % ("unique " if unique else "", body)
        label = unique_label if unique else plain_label
        if mode == "swamped":
            label = "+".join(["snapshot scan"] * len(label.split("+")))
        elif mode == "pinned" and label == "scan":
            label = "snapshot scan"
        full = session.execute(statement)
        # The pin predates every rewrite: it reads what was there before.
        assert full == before[source, unique]
        assert len(full) > 65 or (source, unique) == ("scan", True)
        for limit in LIMITS:
            assert session.execute(
                "%s limit %d" % (statement, limit)
            ) == full[:limit], (source, mode, unique, limit)
            assert session.last_plan_object.label == label


def _analyze(session, source):
    rendered = "\n".join(
        row["plan"] for row in session.execute("explain analyze " + source)
    )
    return {
        key: int(re.search(r"%s: (\d+)" % key, rendered).group(1))
        for key in ("rows", "rows visited", "rows fetched")
    }, rendered


class TestRowsFetched:
    """``limit N`` pays for N rows, and ``explain analyze`` says so."""

    BROWSE = 'retrieve (t.title, t.composer) where t.composer = "%s"' % BROWSED

    @pytest.fixture(scope="class")
    def pull(self):
        return _pull_catalog()

    @pytest.mark.parametrize("pinned", [False, True])
    def test_a_browse_fetches_one_chunk_of_its_posting(
        self, pull, pinned, monkeypatch
    ):
        schema, table, session = pull
        posting = len(table.any_index_for("composer").lookup(BROWSED))
        assert posting >= 4 * 25
        fetched = schema.database.metrics.counter("quel.rows_fetched")
        probes = []
        probe = table.probe
        monkeypatch.setattr(
            table, "probe", lambda *args: probes.append(args) or probe(*args)
        )
        with schema.database.snapshot() if pinned else nullcontext():
            before = fetched.value
            counts, rendered = _analyze(session, self.BROWSE + " limit 50")
            assert counts == {
                "rows": 50, "rows visited": 50, "rows fetched": 50,
            }
            assert "bind t via index (%d candidates)" % posting in rendered
            assert fetched.value - before == 50
            # Pinned or not, the indexes (and the latch) are read once.
            assert len(probes) == 1
            counts, _ = _analyze(session, self.BROWSE + " limit 25")
            assert counts["rows fetched"] <= 2 * 25
            # No limit: the whole posting, in one chunk, as before.
            counts, _ = _analyze(session, self.BROWSE)
            assert counts == {
                "rows": posting, "rows visited": posting,
                "rows fetched": posting,
            }

    def test_a_rejecting_join_pulls_later_chunks(self, pull):
        """The rows the first chunk loses to a conjunct come from the
        next one, which is as large as everything fetched before it."""
        _, _, session = pull
        source = self.BROWSE + ' and t.title > "N" limit 10'
        counts, _ = _analyze(session, source)
        assert counts["rows"] == 10
        assert 10 < counts["rows visited"] <= counts["rows fetched"]
        assert counts["rows fetched"] in (20, 40, 80)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_plain_explain_fetches_nothing(self, pull, source):
        schema, _, session = pull
        fetched = schema.database.metrics.counter("quel.rows_fetched")
        body, label, _ = SOURCES[source]
        before = fetched.value
        session.execute("explain retrieve %s limit 5" % body)
        assert session.last_plan_object.label == label
        assert fetched.value == before
        session.execute("retrieve %s limit 5" % body)
        assert fetched.value > before

    def test_the_stream_and_topk_fetch_by_the_same_rule(self, pull):
        _, _, session = pull
        counts, rendered = _analyze(
            session, "retrieve %s limit 5" % SOURCES["index text stream"][0]
        )
        assert "index text stream" in rendered
        assert counts == {"rows": 5, "rows visited": 5, "rows fetched": 5}
        counts, rendered = _analyze(
            session, "retrieve %s limit 5" % SOURCES["index text topk"][0]
        )
        assert "index text topk" in rendered
        assert counts["rows"] == 5
        # The chunk rule cuts the candidates that can still enter the
        # selection: a whole first chunk of 5, then the one row left
        # that could.  Bounding every candidate up front and fetching
        # whole chunks of them, as before, took 10.
        assert counts["rows fetched"] == counts["rows visited"] == 6

    @pytest.mark.parametrize("pinned", [False, True])
    def test_an_order_range_counts_what_each_walk_asked_for(self, pinned):
        """``rows fetched`` used to say 1 here: the ``order range``
        source fetched outside the shared pull.  Each walk now counts
        the membership rows it got and the entity rows they named, per
        walk; with nothing stale a pinned run walks, visits and fetches
        exactly what a locked one does."""
        from repro.fixtures.examples import make_scale_score

        syncs, chords, notes = 4, 2, 1  # per measure, per sync, per chord
        schema = make_scale_score(
            measures=2, voices=chords, notes_per_measure=syncs
        ).cmn.schema
        session = QuelSession(schema)
        session.execute(
            "range of n is NOTE\nrange of c is CHORD\n"
            "range of s is SYNC\nrange of m is MEASURE"
        )
        fetched = schema.database.metrics.counter("quel.rows_fetched")
        with schema.database.snapshot() if pinned else nullcontext():
            before = fetched.value
            counts, _ = _analyze(
                session,
                "retrieve (n.degree) where n under c in note_in_chord "
                "and c under s in chord_in_sync "
                "and s under m in sync_in_measure and m.number = 2",
            )
        assert session.last_plan_object.label == (
            "index+order range+order range+order range"
        )
        walks = (1, syncs, syncs * chords)       # one per driver binding
        members = (syncs, chords, notes)         # what each walk returns
        enumerated = sum(w * m for w, m in zip(walks, members))
        assert counts == {
            "rows": syncs * chords * notes,
            "rows visited": 1 + enumerated,
            # the measure, then a membership row and an entity row each
            "rows fetched": 1 + 2 * enumerated,
        }
        assert counts["rows fetched"] == fetched.value - before == 41
