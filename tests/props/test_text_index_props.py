"""Property battery: random op sequences vs brute-force text references.

Programs run on the shared runner (``tests/props/program.py``).  The
references are the exact predicates and scalar of ``repro.text`` --
``contains_match``, ``is_similar``, ``similarity`` -- evaluated
brute-force over every live row.  After **every** operation (inserts,
updates, deletes, transaction begin/commit/abort, index create/drop) the
battery asserts, for every query in a fixed pool -- diacritics, casefold
traps, sub-trigram shorts, punctuation-only, empty:

* the two-sided contract of the trigram index: candidate sets are a
  SUPERSET of the true match set (no false negatives, the soundness
  half the planner relies on), and post-verifying candidates with the
  exact predicate yields EXACTLY the true match set;
* ``similar_to`` *tightness*: the index decides each row from its
  posting overlap and stored gram count, so while it is in sync with
  the rows -- always, here -- ``candidates_similar`` minus the true set
  is empty, from threshold 0.05 to 1.0 and with gram-less rows in the
  table; so the join skips the gate it decided, and every
  ``similar_to`` retrieve equals itself with every conjunct re-run
  (``every_conjunct_rerun``; a pinned reader with stale rowids is the
  MVCC battery's);
* streaming top-k: ranked ``limit N`` retrieves -- broad and narrow
  gates, gate-free sorts, varying limits -- equal a sort-all reference
  (score every gate-passing row, sort by ``(-score, rowid)``, cut at the
  limit), scores included, with or without the index;
* the bound the top-k early exit relies on:
  ``SimilarityScorer.bound_with(overlap, |R|)`` dominates the true
  score of every live row;
* maintenance: every candidate rowid is a live row, and the index entry
  count tracks the table row count.

A second, *size* axis (``SizedState``) drives a bare index through a
few thousand rows whose rowids straddle a bitset chunk boundary, so
that postings cross the array/bitset size rule in both directions; a
pinned reader re-reads its snapshot across such a crossing; and the
counting kernels are checked against ``collections.Counter`` and brute
force on their own, stored gram counts past one byte included.  The
``text_scale`` cases replay the top-k agreement on the ~1M-row
generated corpus and reopen it from its posting stream (run via
``scripts/text_smoke.sh --scale``).
"""

import collections
import random
import threading
from array import array

import pytest

from repro.core.schema import Schema
from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.quel.executor import QuelSession
from repro.text import (
    SimilarityScorer, contains_match, is_similar, similarity, trigrams,
)
from repro.text.bitset import (
    Rowids, Sparse, add_hits, at_most, count_equals, least, planes_of, set_count,
)
from repro.text.index import TrigramIndex
from tests.props.program import assert_passes, every_conjunct_rerun, generate
from tests.props.protector import Protector

pytestmark = pytest.mark.props

OPS_PER_PROGRAM = 40
#: Twenty programs of the text battery, and twelve more for the ranked
#: retrieves it took over from a top-k battery of its own.
SEEDS = range(32)

#: Titles the programs draw from: diacritics (composed forms), case
#: traps (ß casefolds to ss), punctuation noise, whitespace-only,
#: empty, and sub-trigram shorts.
TITLES = [
    "Prélude in C Major",
    "prelude, op. 28 no. 4",
    "PRELUDE NO. 7",
    "Prelude no. 7 in A major",
    "Étude aux chemins de fer",
    "Grosse Fuge -- Straße",
    "Nocturne Op. 9 No. 2",
    "nocturne in e-flat",
    "Goldberg Variations: Aria",
    "!!!...***",
    "   ",
    "",
    "ab",
    "In C Major: Prélude",
    "Mazurka (Édition Peters)",
]

MATCH_QUERIES = [
    "prelude",
    "Prélude",          # must match both accented and plain forms
    "NO. 7",
    "etude",
    "strasse",          # casefolded ß
    "no",               # sub-trigram: index cannot prune
    "",                 # empty query: matches every row
    "!!!",              # punctuation-only: normalizes to empty
    "zzzqqq",           # matches nothing
]

SIMILAR_QUERIES = [
    ("prelude in c major", 0.4),
    ("nocturne op 9", 0.5),
    ("goldberg aria", 0.3),
    ("xy", 0.5),        # sub-trigram query
    ("etude", 0.9),
    ("prelude no 7", 0.05),         # nearly every gramful row shares a gram
    ("in c major prelude", 0.5),    # word order: same tokens, other grams
    ("prelude no. 7", 1.0),         # only an identical gram set passes
    ("ab", 1.0),        # gram-less query equal to a gram-less row: declined
    ("prelude no 7", 0.5),  # "Prelude no. 7 in A major" is a gram past the line
]

#: (rank query, gate query or None, limit): the ranked retrieves.
RANKED = [
    ("prelude no. 7", "prelude", 3),
    ("prelude no. 7", "prelude", 10),
    ("nocturne op 9", "nocturne", 1),
    ("prelude in c major", None, 5),
    ("etude", "no", 4),          # sub-trigram gate: index cannot prune
    ("xy", "prelude", 2),        # sub-trigram rank query: no bound
]


def ranked_statement(query, gate, limit):
    source = 'retrieve (t.title, score = similarity(t.title, "%s"))' % query
    if gate is not None:
        source += ' where matches(t.title, "%s")' % gate
    source += (
        ' sort by similarity(t.title, "%s") descending limit %d'
        % (query, limit)
    )
    return source


def sort_all(rows, query, gate, limit):
    """The ranked retrieve's reference over ``(rowid, title)`` pairs."""
    scored = sorted(
        (-similarity(title, query), rowid, title) for rowid, title in rows
        if gate is None or contains_match(title, gate)
    )
    return [
        {"t.title": title, "score": -negated}
        for negated, _, title in scored[:limit]
    ]


class TextState:
    """A TRACK table with a trigram index on its title and a QUEL
    session over it: the live side of every reference above."""

    def __init__(self):
        self.schema = Schema("text-props")
        self.entity = self.schema.define_entity(
            "TRACK", [("title", "string"), ("n", "integer")]
        )
        self.table = self.entity.table
        self.db = self.schema.database
        self.db.create_text_index(self.table.name, "title")
        self.quel = QuelSession(self.schema)
        self.quel.execute("range of t is TRACK")
        self.txn = None
        self.counter = 0
        self.decided = 0  # similar_to retrieves whose gate the index decided
        for title in TITLES[:4]:  # non-trivial starting population
            self.insert(title)

    def insert(self, title):
        self.counter += 1
        self.entity.create(title=title, n=self.counter)

    def emptied(self):
        for rowid in sorted(self.table.rowids()):
            self.table.delete(rowid)
        return self

    def apply(self, op):
        """One raw op; total by construction (invalid choices no-op)."""
        kind = op[0] % 6
        rowids = sorted(self.table.rowids())
        if kind == 0:  # insert (occasionally a null title)
            title = TITLES[op[2] % len(TITLES)]
            if op[3] % 7 == 0:
                title = None
            elif op[3] % 3 == 0:
                title = "%s %d" % (title, op[3] % 10)
            self.insert(title)
        elif kind == 1:  # update some live row's title
            if not rowids:
                return
            rowid = rowids[op[1] % len(rowids)]
            self.table.update(rowid, {"title": TITLES[op[2] % len(TITLES)]})
        elif kind == 2:  # delete some live row
            if not rowids:
                return
            self.table.delete(rowids[op[1] % len(rowids)])
        elif kind == 3:  # transaction toggle
            if self.txn is None:
                self.txn = self.db.begin()
            else:
                self.txn.commit()
                self.txn = None
        elif kind == 4:  # abort: index maintenance must undo cleanly
            if self.txn is not None:
                self.txn.abort()
                self.txn = None
        else:  # index drop/create round trip (refused mid-transaction)
            if self.txn is not None:
                return
            if self.table.text_index_for("title") is None:
                self.db.create_text_index(self.table.name, "title")
            else:
                self.db.drop_text_index(self.table.name, "title")

    def finish(self):
        if self.txn is not None:
            self.txn.commit()
            self.txn = None
        self.check()

    def check(self):
        rows = {row.rowid: row["title"] for row in self.table}
        for query, threshold in SIMILAR_QUERIES:
            source = 'retrieve (t.n, t.title) where similar_to(t.title, "%s", %r)' % (
                query, threshold
            )
            got = self.quel.execute(source)
            self.decided += bool(self.quel.last_plan_object.decided)
            with every_conjunct_rerun():
                assert got == self.quel.execute(source), (
                    "%s: the answer with the index's decision honoured is not "
                    "the answer with every conjunct re-run" % source
                )
        for query, gate, limit in RANKED:
            source = ranked_statement(query, gate, limit)
            got = self.quel.execute(source)
            expected = sort_all(rows.items(), query, gate, limit)
            assert got == expected, (
                "top-k diverged for %r:\n  got      %r\n  expected %r"
                % (source, got, expected)
            )
        index = self.table.text_index_for("title")
        if index is None:
            return
        assert len(index) == len(rows), (
            "index holds %d entries for %d rows" % (len(index), len(rows))
        )
        for query in MATCH_QUERIES:
            candidates = index.candidates_matching(query)
            if candidates is None:
                continue  # sub-trigram: the index declines to prune
            self._judge(
                "matches(%r)" % query, candidates, rows,
                lambda title: contains_match(title, query), tight=False,
            )
        for query, threshold in SIMILAR_QUERIES:
            candidates = index.candidates_similar(query, threshold)
            if candidates is None:
                continue
            self._judge(
                "similar_to(%r, %s)" % (query, threshold), candidates, rows,
                lambda title: is_similar(title, query, threshold), tight=True,
            )
        for query, _, _ in RANKED:
            scorer = SimilarityScorer(query)
            if not scorer.grams:
                continue
            for rowid, title in rows.items():
                overlap = len(scorer.grams & trigrams(title))
                bound = scorer.bound_with(overlap, index._row_grams.get(rowid, 0))
                score = similarity(title, query)
                assert bound >= score - 1e-12, (
                    "bound %.6f below true score %.6f for title %r vs "
                    "query %r" % (bound, score, title, query)
                )

    @staticmethod
    def _judge(what, candidates, rows, predicate, tight):
        true = {rowid for rowid, title in rows.items() if predicate(title)}
        assert candidates <= set(rows), "%s candidates include dead rowids %r" % (
            what, sorted(candidates - set(rows))
        )
        assert candidates >= true, "%s missed rows %r" % (
            what, sorted(true - candidates)
        )
        assert {rowid for rowid in candidates if predicate(rows[rowid])} == true
        assert not tight or not candidates - true, (
            "%s fetched rows that do not pass: %r" % (what, sorted(candidates - true))
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_match_brute_force_reference(seed):
    assert assert_passes(TextState, generate(seed, OPS_PER_PROGRAM)).decided


@pytest.mark.text_slow
@pytest.mark.parametrize("seed", range(100, 130))
def test_random_programs_extended(seed):
    assert_passes(TextState, generate(seed, 100))


# -- the size axis: postings that cross the array/bitset line -----------------

_WORDS = ["prelude", "fugue", "nocturne", "sonata"]

SIZED_MATCHES = ["prelude", "fugue no 7", "zyx", "no 1", "onata no 2", "e"]
SIZED_SIMILAR = [
    ("prelude no 7", 0.5), ("fugue no 12 zyx", 0.6), ("nocturne", 0.3),
]


def _reloaded(index):
    """``load(dump(index))``, which must hold what *index* holds: every
    posting, in the form it is held in, the count planes, the counters
    and so the bytes accounted."""
    loaded = TrigramIndex(MetricsRegistry())
    loaded.load(b"".join(index.dump()))
    assert loaded._postings == index._postings
    assert loaded._row_grams == index._row_grams
    assert loaded._sizes == index._sizes
    assert (
        len(loaded), loaded.gram_count(), loaded.posting_entries(),
        loaded.approx_bytes(),
    ) == (
        len(index), index.gram_count(), index.posting_entries(),
        index.approx_bytes(),
    )
    assert all(
        type(loaded._posting(gram)) is type(index._posting(gram))
        for gram in index._postings
    )
    return loaded


def _sized_title(n):
    """Four words by thirty numbers; one title in 97 carries ``zyx``."""
    return "%s no %d%s" % (_WORDS[n % 4], n % 30, " zyx" if n % 97 == 0 else "")


class SizedState:
    """A bare index, the rows it should describe, and verdict memos
    (the brute-force predicates run once per distinct title).  Each
    check also round-trips the index through ``dump`` / ``load``;
    *reload* goes on with the loaded one, which must answer and take
    edits -- form crossings included -- as the built one does."""

    #: First rowid handed out: growth crosses the 16,384 chunk boundary.
    BASE = 15_000

    def __init__(self, reload=False):
        self.reload = reload
        self.index = TrigramIndex(MetricsRegistry())
        self.rows = {}
        self.removed = []   # (rowid, title) a later op may re-insert
        self.next = self.BASE
        self.serial = 0
        self.crossings = collections.Counter()
        self.forms = {}
        self._verdicts = {}
    def _fresh(self, count):
        pairs = []
        for _ in range(count):
            pairs.append((_sized_title(self.serial), self.next))
            self.serial += 1
            self.next += 1
        return pairs

    def _put(self, pairs, bulk):
        if bulk:
            self.index.insert_many(pairs)
        else:
            for title, rowid in pairs:
                self.index.insert(title, rowid)
        self.rows.update((rowid, title) for title, rowid in pairs)

    def _drop(self, rowids):
        for rowid in rowids:
            title = self.rows.pop(rowid)
            self.index.delete(title, rowid)
            self.removed.append((rowid, title))

    def apply(self, op):
        kind = op[0] % 6
        if kind == 0:    # a bulk load, long enough to collect in flags
            self._put(self._fresh(200 + op[1] % 3000), bulk=True)
        elif kind == 1:  # a few rows, one insert each
            self._put(self._fresh(1 + op[1] % 20), bulk=False)
        elif kind == 2:  # delete 7 in 8 of the rows holding one word
            word = _WORDS[op[1] % 4]
            holders = [r for r, t in sorted(self.rows.items()) if word in t]
            self._drop(r for i, r in enumerate(holders) if (i + op[2]) % 8)
        elif kind == 3:  # put deleted rows back under their old rowids
            back, self.removed = self.removed, []
            self._put([(t, r) for r, t in back], bulk=op[1] % 2 == 0)
        elif kind == 4:  # delete everything above a cut: spans shrink
            cut = self.BASE + op[1] % max(1, self.next - self.BASE)
            self._drop([r for r in sorted(self.rows) if r > cut])
        else:            # one row far beyond the rest: spans jump
            self.next += 40_000
            self._put(self._fresh(1), bulk=False)

    def _verdict(self, kind, title, query, threshold=None):
        key = (kind, title, query, threshold)
        if key not in self._verdicts:
            self._verdicts[key] = (
                contains_match(title, query) if kind == "m"
                else is_similar(title, query, threshold)
            )
        return self._verdicts[key]

    def check(self):
        index, rows = self.index, self.rows
        rebuilt = TrigramIndex(MetricsRegistry())
        for rowid in sorted(rows):
            rebuilt.insert(rows[rowid], rowid)
        postings = index._postings
        assert postings == rebuilt._postings
        assert index._row_grams == rebuilt._row_grams
        assert all(type(p) is array for p in postings.values())
        assert (len(index), index.gram_count(), index.posting_entries()) == (
            len(rebuilt), rebuilt.gram_count(), rebuilt.posting_entries()
        )
        held = 0
        for gram in postings:
            posting = index._posting(gram)
            assert list(posting) == list(postings[gram]), gram
            last = postings[gram][-1]
            before = self.forms.get(gram)
            self.forms[gram] = type(posting)
            if isinstance(posting, Rowids):
                assert len(posting) * 64 > last, gram       # else an array
            else:
                assert len(posting) * 32 <= last, gram      # else a bitset
            if before not in (None, type(posting)):
                self.crossings[isinstance(posting, Rowids)] += 1
            held += posting.nbytes()
        assert index._posting_bytes == held
        for gram in set(self.forms) - set(postings):
            del self.forms[gram]
        for query in SIZED_MATCHES:
            true = {r for r, t in rows.items() if self._verdict("m", t, query)}
            candidates = index.candidates_matching(query)
            if candidates is None:
                assert not trigrams(query)
                continue
            assert true <= candidates <= set(rows), query
            assert list(candidates) == sorted(candidates)
            for after in (-1, 16_383, 16_384, self.next - 3):
                assert list(index.iter_matching(query, after)) == [
                    rowid for rowid in candidates if rowid > after
                ], (query, after)
            tally = collections.Counter()
            for gram in trigrams(query):
                tally.update(postings.get(gram, ()))
            buckets = list(index.overlap_counts(trigrams(query), candidates))
            assert [
                (overlap, set(bucket)) for overlap, bucket in buckets
            ] == [(len(trigrams(query)), set(candidates))][:len(buckets)]
            everything = list(index.overlap_counts(trigrams(query), set(rows)))
            assert {
                rowid: overlap for overlap, bucket in everything
                for rowid in bucket
            } == {rowid: tally[rowid] for rowid in rows}
        for query, threshold in SIZED_SIMILAR:
            true = {
                r for r, t in rows.items()
                if self._verdict("s", t, query, threshold)
            }
            assert index.candidates_similar(query, threshold) == true, query
            assert index.similar_overlaps(query, threshold) == Rowids(true).masks
        loaded = _reloaded(index)
        if self.reload:
            self.index = loaded

    def finish(self):
        assert self.crossings[True] and self.crossings[False], (
            "no posting crossed the size rule both ways: %r" % self.crossings
        )


#: Every sized program starts here: grow (3,000 rows in one load, whose
#: flags are read off at the chunk boundary), thin one word out, put it
#: back.
SIZED_PREFIX = [(0, 2800, 0, 0), (2, 0, 1, 0), (3, 0, 0, 0), (2, 1, 0, 0),
                (5, 0, 0, 0), (3, 1, 0, 0)]


@pytest.mark.parametrize("seed, reload", [
    *((seed, False) for seed in range(4)), *((seed, True) for seed in range(2)),
])
def test_sized_programs_cross_the_density_line_both_ways(seed, reload):
    assert_passes(
        SizedState, SIZED_PREFIX + generate(1000 + seed, 8), reload=reload
    )


def test_a_dump_loads_into_an_empty_index_only_and_whole():
    index = TrigramIndex(MetricsRegistry())
    index.insert_many([(_sized_title(n), 16_300 + n) for n in range(400)])
    dump = b"".join(index.dump())
    with pytest.raises(StorageError):
        index.load(dump)  # holds rows already
    for cut in (0, 7, 23, len(dump) // 2, len(dump) - 1):
        empty = TrigramIndex(MetricsRegistry())
        with pytest.raises(StorageError):
            empty.load(dump[:cut])
        assert len(empty) == 0 and empty._postings == {}
        empty.load(dump)  # still loadable after the refusal
    with pytest.raises(StorageError):
        TrigramIndex(MetricsRegistry()).load(dump + b"\0")
    assert _reloaded(TrigramIndex(MetricsRegistry()))._postings == {}


def test_a_pinned_reader_keeps_its_answers_across_a_promotion():
    """A snapshot pinned while ``zyx`` is an array posting of a few
    rowids is re-read after writers have made it a bitset and left the
    old rows stale: every text source still answers as of the pin."""
    schema = Schema("promotion-props")
    entity = schema.define_entity("TRACK", [("title", "string"), ("n", "integer")])
    table, db = entity.table, schema.database
    db.create_text_index(table.name, "title")
    session = QuelSession(schema)
    session.execute("range of t is TRACK")
    for n in range(1, 1501):
        entity.create(title=_sized_title(n), n=n)
    index = table.text_index_for("title")
    assert isinstance(index._posting("zyx"), Sparse)
    statements = [
        'retrieve (t.n) where matches(t.title, "zyx")',
        'retrieve (t.n) where matches(t.title, "prelude no 7")',
        'retrieve (t.n) where similar_to(t.title, "fugue no 12 zyx", 0.6)',
        'retrieve (t.n) where matches(t.title, "zyx") limit 4',
        'retrieve (t.n, s = similarity(t.title, "sonata no 2 zyx")) '
        'where matches(t.title, "sonata") '
        'sort by similarity(t.title, "sonata no 2 zyx") descending limit 5',
    ]
    lsn = db.transactions.snapshot_lsn()
    expected = [session.execute(source) for source in statements]
    protector = Protector(db.transactions)
    protector.set_floor(lsn)
    try:
        rowids = sorted(table.rowids())
        with db.begin():
            for rowid in rowids[::3]:      # a third of the table gains zyx
                table.update(rowid, {"title": "sonata no 2 zyx"})
            for rowid in rowids[1::97]:
                table.delete(rowid)
        assert isinstance(index._posting("zyx"), Rowids)
        assert table.stale_rowids()
        assert [session.execute(s) for s in statements] != expected
        db.transactions.pin_snapshot(lsn)
        try:
            for source, rows in zip(statements, expected):
                assert session.execute(source) == rows, source
        finally:
            db.transactions.unpin_snapshot()
    finally:
        protector.stop()


def test_topk_scores_a_row_rewritten_between_its_plan_and_its_bucket():
    """The ranked source reads a bucket's gram counts when it reaches
    the bucket, off the latch since the plan: a row retitled in between
    has another version's count, so it must be scored, not bounded --
    and scored from its row: its Jaccard half is not the one that count
    and its overlap would give, so every score, its own too, is
    ``similarity()`` of the title as pinned, bit for bit."""
    schema = Schema("late-props")
    entity = schema.define_entity("TRACK", [("title", "string"), ("n", "integer")])
    table, db = entity.table, schema.database
    db.create_text_index(table.name, "title")
    session = QuelSession(schema)
    session.execute("range of t is TRACK")
    for n in range(1, 41):
        entity.create(title="prelude no %d in a major" % n, n=n)
    best = entity.create(title="prelude no 7", n=0)
    query = "prelude no 7"
    source = (
        'retrieve (t.n, s = similarity(t.title, "prelude no 7")) '
        'where matches(t.title, "prelude") '
        'sort by similarity(t.title, "prelude no 7") descending limit %d'
    )
    # A hundred-odd distinct grams: the bound read off that is low.
    tail = " " + " ".join(
        "abcdefghijklmnopqrstuvwxyz0123456789"[i:] for i in range(0, 12, 3)
    )

    def rewritten_between_plan_and_bucket(row, limit, write=None):
        """*source* at *limit* under a pin, *row* rewritten by another
        thread as the first bucket is read: by *write* (rowid), or else
        retitled to end in *tail*."""
        if write is None:
            title = table.get(row.rowid)["title"]

            def write(rowid):
                table.update(rowid, {"title": title + tail})

        probe, probes = table.probe, []

        def probe_after_a_write(*args):
            probes.append(args)
            if len(probes) == 2:   # the plan was the first; this is a bucket
                writer = threading.Thread(target=write, args=(row.rowid,))
                writer.start()
                writer.join(timeout=10)
                assert not writer.is_alive()
            return probe(*args)

        with db.snapshot():
            table.probe = probe_after_a_write
            try:
                return session.execute(source % limit)
            finally:
                del table.probe
                assert len(probes) >= 2

    # Its bucket holds a second row, which fills the selection first if
    # the retitled row is ranked by the gram count it has now.
    expected = session.execute(source % 1)
    assert expected == [{"t.n": 0, "s": 1.0}]
    assert rewritten_between_plan_and_bucket(best, 1) == expected
    assert session.execute(source % 1) != expected
    # A retitled row inside a longer answer, behind rows of its bucket.
    titles = {row["n"]: row["title"] for row in table}
    expected = session.execute(source % 5)
    assert [row["s"] for row in expected] == [
        similarity(titles[row["t.n"]], query) for row in expected
    ]
    late = next(row for row in table if row["n"] == expected[2]["t.n"])
    assert rewritten_between_plan_and_bucket(late, 5) == expected
    assert session.execute(source % 5) != expected
    # The exact match of the top bucket deleted, or retitled to a value
    # of no grams: its count now reads 0, so the bound and Jaccard half
    # that count would give divide by |Q| + 0 - |Q|.  It is drawn as
    # late and scored from its pinned version.
    exact = entity.create(title=query, n=-1)
    expected = session.execute(source % 3)
    assert expected[0] == {"t.n": -1, "s": 1.0}
    assert rewritten_between_plan_and_bucket(
        exact, 3, lambda rowid: table.update(rowid, {"title": "ab"})
    ) == expected
    assert session.execute(source % 3) != expected
    table.update(exact.rowid, {"title": query})
    expected = session.execute(source % 3)
    assert rewritten_between_plan_and_bucket(exact, 3, table.delete) == expected
    assert session.execute(source % 3) != expected

@pytest.mark.parametrize("seed", range(10))
def test_counter_planes_agree_with_a_counter(seed):
    """The counting kernel alone: ripple-carry planes vs ``Counter``
    over random posting sets, past sixteen postings (a fifth plane),
    under a full, a partial and an empty gate."""
    rng = random.Random(seed)
    width = rng.choice([64, 1_000, 20_000])
    k = [1, 3, 15, 16, 17, 33][seed % 6]
    postings = [
        set(rng.sample(range(width), rng.randrange(width + 1)))
        for _ in range(k)
    ]
    postings[0] = set(range(width)) if seed % 2 else postings[0]

    def mask(rowids):
        return sum(1 << rowid for rowid in rowids)

    def members(bits):
        return {rowid for rowid in range(width) if bits >> rowid & 1}

    planes = []
    for posting in postings:
        add_hits(planes, mask(posting))
    tally = collections.Counter(r for posting in postings for r in posting)
    assert len(planes) == max(tally.values(), default=0).bit_length()
    gates = [set(range(width)), set(rng.sample(range(width), width // 3)), set()]
    for gate in gates:
        for count in range(k + 2):
            assert members(count_equals(planes, count, mask(gate))) == {
                rowid for rowid in gate if tally[rowid] == count
            }, (count, len(gate))
    assert not any(planes) or members(count_equals(planes, 0, mask(gates[0])))\
        == {rowid for rowid in gates[0] if not tally[rowid]}


def test_seventeen_grams_and_an_empty_gate_through_the_index():
    index = TrigramIndex(MetricsRegistry())
    titles = {
        rowid: "goldberg variations aria%s" % (" da capo" if rowid % 3 else "")
        for rowid in range(1, 200)
    }
    index.insert_many([(title, rowid) for rowid, title in titles.items()])
    query = "goldberg variations aria da capo"
    grams = trigrams(query)
    assert len(grams) > 16
    assert list(index.overlap_counts(grams, Rowids())) == []
    assert list(index.overlap_counts(grams, set())) == []
    counted = {
        rowid: overlap
        for overlap, bucket in index.overlap_counts(grams, set(titles))
        for rowid in bucket
    }
    assert counted == {
        rowid: len(grams & trigrams(title)) for rowid, title in titles.items()
    }
    assert max(counted.values()) == len(grams) > 16
    assert index.candidates_similar(query, 0.9) == {
        rowid for rowid, title in titles.items()
        if similarity and is_similar(title, query, 0.9)
    }


#: Gram counts either side of every plane and of the bulk build's byte.
_COUNTS = [0, 1, 2, 7, 8, 31, 32, 255, 256, 257, 511, 512, 700]


@pytest.mark.parametrize("seed", range(3))
def test_stored_count_kernels_agree_with_brute_force(seed):
    """``at_most`` and the minimum walk over planes stored one counter
    at a time and read off a chunk's count bytes, under full, partial
    and single-bit gates."""
    rng = random.Random(seed)
    width = [8, 200, 2_000][seed % 3]
    counts = {
        slot: rng.choice(_COUNTS + [rng.randrange(60)] * 8)
        for slot in rng.sample(range(width), rng.randrange(1, min(width, 120)))
    }
    planes = []
    for slot, count in counts.items():
        set_count(planes, 1 << slot, 999)      # overwritten, not ORed into
        set_count(planes, 1 << slot, count)
    assert len(planes) == max(counts.values()).bit_length()
    small = {slot: count for slot, count in counts.items() if count < 256}
    lanes = bytearray(width)
    for slot, count in small.items():
        lanes[width - 1 - slot] = count        # last slot first
    read = planes_of(lanes)
    assert len(read) == max(small.values(), default=0).bit_length()

    def mask(slots):
        return sum(1 << slot for slot in slots)

    def members(bits):
        return {slot for slot in range(width) if bits >> slot & 1}

    everything = set(range(width))
    gates = [everything, set(counts), set(rng.sample(sorted(counts), 1))]
    for held, model in ((planes, counts), (read, small)):
        for gate in gates:
            for limit in sorted({0, 1, 254, 255, 256, 600, 1023, *model.values()}):
                assert members(at_most(held, limit, mask(gate))) == {
                    slot for slot in gate if model.get(slot, 0) <= limit
                }, (limit, len(gate))
            left = set(gate)
            while left:    # the walk, cell by cell, until the gate is spent
                fewest, cell = least(held, mask(left))
                assert fewest == min(model.get(slot, 0) for slot in left)
                assert members(cell) == {
                    slot for slot in left if model.get(slot, 0) == fewest
                }
                left -= members(cell)
        assert members(at_most(held, 0)) >= everything - set(model)


def _title_with(count, rng):
    """A title of exactly *count* distinct trigrams."""
    text, grams = "", set()
    while len(grams) < count:
        text += rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
        grams = trigrams(text)
    return text if count else rng.choice(["", "ab", "!!"])


@pytest.mark.parametrize("seed", range(3))
def test_count_planes_after_random_programs_equal_a_rebuilt_index(seed):
    """insert / delete / ``insert_many`` in random order over rowids
    straddling a chunk boundary, counts past a byte among them: the
    planes, the row count and the accounted bytes are those of an index
    rebuilt row by row, and every cell walk reads the model back."""
    rng = random.Random(seed)
    index, rows = TrigramIndex(MetricsRegistry()), {}
    free = list(range(16_200, 16_700))
    rng.shuffle(free)
    for _ in range(12):
        kind = rng.randrange(3)
        if kind == 0 and rows:
            for rowid in rng.sample(sorted(rows), min(len(rows), 9)):
                index.delete(rows.pop(rowid), rowid)
                free.append(rowid)
            continue
        fresh = [
            (_title_with(rng.choice(_COUNTS[:10] + [12, 20, 20, 33]), rng), free.pop())
            for _ in range(rng.choice([1, 3, 20, 40]))
        ]
        if kind == 1:
            index.insert_many(fresh)
        else:
            for title, rowid in fresh:
                index.insert(title, rowid)
        rows.update((rowid, title) for title, rowid in fresh)
        rebuilt = TrigramIndex(MetricsRegistry())
        for rowid in sorted(rows):
            rebuilt.insert(rows[rowid], rowid)
        model = {r: len(trigrams(t)) for r, t in rows.items() if trigrams(t)}
        assert index._row_grams == rebuilt._row_grams == model
        assert index._sizes == rebuilt._sizes
        assert (len(index), index.approx_bytes()) == (
            len(rebuilt), rebuilt.approx_bytes()
        )
        _reloaded(index)  # gram-less rows and counts past a byte survive
        cells = list(index.size_cells(Rowids(rows)))
        assert [size for size, _ in cells] == sorted({
            model.get(rowid, 0) for rowid in rows
        })
        assert {r: size for size, cell in cells for r in cell} == {
            rowid: model.get(rowid, 0) for rowid in rows
        }


# -- ranked retrieves: the bucket and cell walks, pinned and at 1M rows -------


def test_an_answer_across_two_buckets_with_a_tie_at_the_cut():
    """The candidates arrive a bucket of equal overlap at a time: here
    the best row of the second bucket outscores the last of the first,
    and the cut falls inside a run of equal scores, which only the
    rowid orders."""
    state = TextState().emptied()
    titles = [
        "prelude no 7 in a flat major op 28",   # every query gram, long
        "prelude no 9",                          # fewer grams, short
        "prelude no 9",
        "prelude no 7",                          # the query itself
        "prelude no 9",
        "prelude no 9",
        "nocturne",                              # fails the gate
    ]
    for title in titles:
        state.insert(title)
    query, gate = "prelude no 7", "prelude"
    rows = [(row.rowid, row.get("title"), row.get("n")) for row in state.table]
    source = (
        'retrieve (t.n) where matches(t.title, "%s") '
        'sort by similarity(t.title, "%s") descending limit %%d' % (gate, query)
    )
    ranked = sorted(
        (-similarity(title, query), rowid, n)
        for rowid, title, n in rows if contains_match(title, gate)
    )
    for limit in range(1, 8):
        got = state.quel.execute(source % limit)
        assert state.quel.last_plan_object.label == "index text topk"
        assert got == [{"t.n": n} for _, _, n in ranked[:limit]], limit
    # The premise: two buckets, the lower one holding a better score...
    grams = trigrams(query)
    overlap = [len(grams & trigrams(title)) for title in titles]
    assert overlap[0] == overlap[3] == len(grams) > overlap[1]
    assert similarity(titles[1], query) > similarity(titles[0], query)
    # ...and limit 3 cuts a run of four equal scores after its second.
    assert [score for score, _, _ in ranked[1:5]] == [ranked[1][0]] * 4
    tied = sorted(n for _, _, n in ranked[1:5])
    assert state.quel.execute(source % 3)[1:] == [{"t.n": n} for n in tied[:2]]


def test_a_cut_inside_one_cell_of_equal_gram_counts_orders_by_rowid():
    """Within a bucket the candidates arrive a cell of equal stored gram
    count at a time: here six titles that differ share one cell and one
    score, longer rows sit in the cells behind it, and every limit cuts
    the tie by rowid -- with the first chunk's cut inside the cell too."""
    state = TextState().emptied()
    query, gate = "prelude no 7", "prelude"
    tied = ["prelude no 7%d" % n for n in (5, 1, 4, 2, 3, 0)]
    for n, title in enumerate(tied):
        state.insert("prelude no 7 in a flat major op 28 no %d" % n)
        state.insert(title)
    rows = [(row.rowid, row.get("title"), row.get("n")) for row in state.table]
    index = state.table.text_index_for("title")
    cells = list(index.size_cells(Rowids(rowid for rowid, _, _ in rows)))
    assert [len(cell) for _, cell in cells][0] == len(tied) < len(rows)
    assert len({similarity(title, query) for title in tied}) == 1
    assert len({len(trigrams(query) & trigrams(t)) for _, t, _ in rows}) == 1
    source = (
        'retrieve (t.n) where matches(t.title, "%s") '
        'sort by similarity(t.title, "%s") descending limit %%d' % (gate, query)
    )
    ranked = sorted((-similarity(t, query), rowid, n) for rowid, t, n in rows)
    for limit in range(1, len(rows) + 1):
        got = state.quel.execute(source % limit)
        assert state.quel.last_plan_object.label == "index text topk"
        assert got == [{"t.n": n} for _, _, n in ranked[:limit]], limit


def test_a_late_row_in_a_cell_the_walk_skips_is_still_scored():
    """A pinned reader plans, fills its selection from the first bucket,
    and only then is the best row of the second retitled to fifty-odd
    grams: its cell is one the walk stops short of, its overlap was
    counted at the plan, so it has the bucket's bound, is fetched and is
    scored as of the pin.  A row rewritten before the plan is stale and
    fetched first."""
    state = TextState().emptied()
    table, database = state.table, state.schema.database
    query, gate = "prelude no 7", "prelude"
    tail = " in a flat major opus 28 number fifteen"
    for n in range(2):                       # every query gram, long
        state.insert("prelude no 7%s %d" % (tail, n))
    for n in range(6):                       # one gram fewer, ever longer
        state.insert("prelude no 9" + tail[:6 * n])
    late, stale = sorted(table.rowids())[2], sorted(table.rowids())[3]
    source = (
        'retrieve (t.n, s = similarity(t.title, "%s")) '
        'where matches(t.title, "%s") '
        'sort by similarity(t.title, "%s") descending limit 2' % (query, gate, query)
    )
    lsn = database.transactions.snapshot_lsn()
    expected = state.quel.execute(source)
    assert [row["t.n"] for row in expected] == [     # the second bucket's
        table.get(rowid)["n"] for rowid in (late, stale)
    ]
    protector = Protector(database.transactions)
    protector.set_floor(lsn)
    long_title = "prelude no 9 " + " ".join(
        "abcdefghijklmnopqrstuvwxyz0123456789"[i:] for i in range(0, 12, 3)
    )
    probe, probes = table.probe, []

    def probe_after_a_write(*args):
        probes.append(args)
        if len(probes) == 3:     # the plan, the first bucket, now the second
            writer = threading.Thread(
                target=table.update, args=(late, {"title": long_title})
            )
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
        return probe(*args)

    try:
        table.update(stale, {"title": "prelude" + tail})
        database.transactions.pin_snapshot(lsn)
        table.probe = probe_after_a_write
        try:
            assert state.quel.execute(source) == expected
        finally:
            del table.probe
            database.transactions.unpin_snapshot()
    finally:
        protector.stop()
    assert len(probes) >= 3
    # The premise: as the index stands, the late row's bound is below
    # both scores the first bucket put into the selection.
    scorer = SimilarityScorer(query)
    grams = table.text_index_for("title")._row_grams[late]
    overlap = len(scorer.grams & trigrams("prelude no 9"))
    assert scorer.bound_with(overlap, grams) < min(
        similarity("prelude no 7%s %d" % (tail, n), query) for n in range(2)
    )
    assert state.quel.execute(source) != expected


@pytest.mark.text_scale
@pytest.mark.parametrize("query,gate,limit", [
    ("prelude no. 7", "prelude", 10),
    ("nocturne in e flat major", "nocturne", 25),
])
def test_million_row_topk_matches_reference(query, gate, limit):
    """The 1M-row matrix: streaming top-k result == brute-force sort-all.

    The reference scores every gate-passing row with the exact scalar
    and sorts; only the candidate *generation* is shared with the
    engine (the posting superset property has its own battery).
    """
    from repro.fixtures.corpus import load_catalog

    schema = Schema("topk-scale")
    entity = load_catalog(schema, 1_000_000, seed=7)
    schema.database.create_text_index(entity.table.name, "title")
    session = QuelSession(schema)
    session.execute("range of t is TRACK")

    source = ranked_statement(query, gate, limit)
    got = session.execute(source)
    assert session.last_plan_object.label == "index text topk"
    rows = [(row.rowid, row.get("title")) for row in entity.table]
    expected = sort_all(rows, query, gate, limit)
    assert got == expected


@pytest.mark.text_scale
def test_million_row_checkpoint_close_reopen_loads_the_posting_stream(
    tmp_path, capsys
):
    """Checkpoint, one more commit, close, reopen, at 1M rows: the
    reopen loads the index from the posting stream and the battery's
    first query answers as it did live.  Prints what the stream cost
    and bought; the checkpoint's hold of the log grows by the in-memory
    dump alone -- the file is written with the log free."""
    import gc
    import os
    import time

    from repro.fixtures.corpus import CATALOG_ATTRIBUTES, load_catalog
    from repro.storage.database import Database

    path = str(tmp_path / "db")
    source = ranked_statement("prelude no. 7", "prelude", 10)

    def session_over(database):
        schema = Schema("topk-scale", database=database)
        schema.define_entity("TRACK", CATALOG_ATTRIBUTES)
        session = QuelSession(schema)
        session.execute("range of t is TRACK")
        return session

    db = Database(path)
    entity = load_catalog(Schema("topk-scale", database=db), 1_000_000, seed=7)
    db.create_text_index(entity.table.name, "title")
    spent = {}
    log_was_free = []

    def timed(name, function):
        def wrapper(*args):
            started = time.perf_counter()
            try:
                return function(*args)
            finally:
                spent[name] = time.perf_counter() - started
        return wrapper

    def publish(postings, publish=db._publish_postings):
        probe = threading.Thread(target=lambda: log_was_free.append(
            db._log._mutex.acquire(False) and not db._log._mutex.release()
        ))
        probe.start()
        probe.join(60.0)
        return publish(postings)

    db._dump_postings = timed("dump", db._dump_postings)
    db._publish_postings = timed("write", publish)
    db.checkpoint()
    hold_grew, wrote = spent["dump"], spent["write"]
    assert log_was_free == [True]
    entity.table.insert({"title": "Zzyzx Road, the commit after the checkpoint"})
    live = session_over(db).execute(source)
    started = time.perf_counter()
    db.close()
    close_s = time.perf_counter() - started
    stream_bytes = os.path.getsize(os.path.join(path, "postings.bin"))
    del db, entity
    gc.collect()

    started = time.perf_counter()
    reopened = Database(path)
    reopen_s = time.perf_counter() - started
    try:
        value = reopened.metrics.value
        assert value("db.recovery.indexes_loaded") == 1
        assert value("db.recovery.indexes_rebuilt") == 0
        session = session_over(reopened)
        assert session.execute(source) == live
        assert session.last_plan_object.label == "index text topk"
        with capsys.disabled():
            print(
                "\n1M rows: reopen %.2f s (index load %.0f ms); posting stream "
                "%.1f MB; close() grew by %.2f s; the checkpoint's hold grew "
                "by %.2f s (the dump), its file write %.2f s came after"
                % (reopen_s, value("db.recovery.index_load_ms"),
                   stream_bytes / 1e6, close_s, hold_grew, wrote)
            )
    finally:
        reopened.close()
