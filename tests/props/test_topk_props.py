"""Property battery: streaming top-k vs a brute-force sort-all reference.

Same machinery as the other props batteries: programs are raw int
tuples from ``random.Random(seed)`` interpreted modulo the current
state, so every subsequence is a valid program and greedy shrinking is
sound.  On failure the battery shrinks to a minimal reproducer and
prints it for ``REPLAY_OPS``.

After every mutation the battery runs a pool of ranked ``limit N``
retrieves -- broad and narrow gates, gate-free sorts, varying limits --
through the streaming top-k session AND through a pure-Python
reference: score every live row that passes the gate with the same
``similarity`` scalar, sort by ``(-score, rowid)`` (the engine's
deterministic tie order: stable sort descending == rowid ascending
within a score), truncate to the limit.  The two must agree exactly,
scores included.

It also pins the bound soundness the early exit relies on:
``SimilarityScorer.bound_with(overlap, |R|)`` must dominate the true
score for every live row, else the top-k operator could prune a row
that belongs in the result.

The ``text_scale`` case replays the agreement check on the ~1M-row
generated corpus (run via ``scripts/text_smoke.sh --scale``).
"""

import random
import threading

import pytest

from repro.core.schema import Schema
from repro.quel.executor import QuelSession
from repro.text import SimilarityScorer, contains_match, similarity, trigrams
from repro.text.bitset import Rowids
from tests.props.protector import Protector

pytestmark = pytest.mark.props

OPS_PER_PROGRAM = 30
SEEDS = range(12)

# Paste the ops list from a failure message here to replay it.
REPLAY_OPS = []

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
    "",
    "ab",
    "In C Major: Prélude",
]

#: (rank query, gate query or None, limit) pool run after every op.
QUERIES = [
    ("prelude no. 7", "prelude", 3),
    ("prelude no. 7", "prelude", 10),
    ("nocturne op 9", "nocturne", 1),
    ("prelude in c major", None, 5),
    ("etude", "no", 4),          # sub-trigram gate: index cannot prune
    ("xy", "prelude", 2),        # sub-trigram rank query: no bound
]


def _statement(query, gate, limit):
    source = 'retrieve (t.title, score = similarity(t.title, "%s"))' % query
    if gate is not None:
        source += ' where matches(t.title, "%s")' % gate
    source += (
        ' sort by similarity(t.title, "%s") descending limit %d'
        % (query, limit)
    )
    return source


class _State:
    """A live TRACK table plus a QUEL session over it."""

    def __init__(self):
        self.schema = Schema("topk-props")
        self.entity = self.schema.define_entity(
            "TRACK", [("title", "string"), ("n", "integer")]
        )
        self.table = self.entity.table
        self.schema.database.create_text_index(self.table.name, "title")
        self.topk = QuelSession(self.schema)
        self.topk.execute("range of t is TRACK")
        self.counter = 0
        for title in TITLES[:4]:  # non-trivial starting population
            self._insert(title)

    def _insert(self, title):
        self.counter += 1
        self.entity.create(title=title, n=self.counter)

    def apply(self, op):
        kind = op[0] % 4
        rowids = sorted(self.table.rowids())
        if kind in (0, 1):  # insert (bias keeps the table growing)
            title = TITLES[op[2] % len(TITLES)]
            if op[3] % 5 == 0:
                title = None
            elif op[3] % 3 == 0:
                title = "%s %d" % (title, op[3] % 20)
            self._insert(title)
        elif kind == 2:  # update some live row's title
            if not rowids:
                return
            rowid = rowids[op[1] % len(rowids)]
            self.table.update(rowid, {"title": TITLES[op[2] % len(TITLES)]})
        else:  # delete some live row
            if not rowids:
                return
            self.table.delete(rowids[op[1] % len(rowids)])

    def check(self):
        rows = [(row.rowid, row.get("title")) for row in self.table]
        for query, gate, limit in QUERIES:
            expected = self._reference(rows, query, gate, limit)
            source = _statement(query, gate, limit)
            got = self.topk.execute(source)
            assert got == expected, (
                "top-k diverged for %r:\n  got      %r\n  expected %r"
                % (source, got, expected)
            )
        self._check_bound_soundness(rows)

    @staticmethod
    def _reference(rows, query, gate, limit):
        scored = []
        for rowid, title in rows:
            if gate is not None and not contains_match(title, gate):
                continue
            scored.append((-similarity(title, query), rowid, title))
        scored.sort()
        return [
            {"t.title": title, "score": -negated}
            for negated, _, title in scored[:limit]
        ]

    def _check_bound_soundness(self, rows):
        sizes = self.table.text_index_for("title")._row_grams
        for query, _, _ in QUERIES:
            scorer = SimilarityScorer(query)
            if not scorer.grams:
                continue
            for rowid, title in rows:
                overlap = len(scorer.grams & trigrams(title))
                bound = scorer.bound_with(overlap, sizes.get(rowid, 0))
                score = similarity(title, query)
                assert bound >= score - 1e-12, (
                    "bound %.6f below true score %.6f for title %r vs "
                    "query %r" % (bound, score, title, query)
                )


def _generate_ops(seed, count=OPS_PER_PROGRAM):
    rng = random.Random(seed)
    return [tuple(rng.randrange(1 << 16) for _ in range(4)) for _ in range(count)]


def _program_fails(ops):
    state = _State()
    try:
        state.check()
    except Exception as error:  # noqa: BLE001 -- any divergence fails
        return "initial state: %s: %s" % (type(error).__name__, error)
    for index, op in enumerate(ops):
        try:
            state.apply(op)
            state.check()
        except Exception as error:  # noqa: BLE001
            return "op %d (%r): %s: %s" % (index, op, type(error).__name__, error)
    return None


def _shrink(ops, fails):
    changed = True
    while changed:
        changed = False
        for index in range(len(ops)):
            candidate = ops[:index] + ops[index + 1:]
            if fails(candidate):
                ops = candidate
                changed = True
                break
    return ops


@pytest.mark.parametrize("seed", SEEDS)
def test_random_topk_matches_sort_all_reference(seed):
    ops = _generate_ops(seed)
    error = _program_fails(ops)
    if error is None:
        return
    minimal = _shrink(ops, lambda candidate: _program_fails(candidate) is not None)
    pytest.fail(
        "seed %d diverged from the sort-all reference.\n%s\n"
        "Replay by setting REPLAY_OPS = %r" % (seed, _program_fails(minimal), minimal)
    )


def test_an_answer_across_two_buckets_with_a_tie_at_the_cut():
    """The candidates arrive a bucket of equal overlap at a time: here
    the best row of the second bucket outscores the last of the first,
    and the cut falls inside a run of equal scores, which only the
    rowid orders."""
    state = _State()
    for rowid in sorted(state.table.rowids()):
        state.table.delete(rowid)
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
        state._insert(title)
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
        got = state.topk.execute(source % limit)
        assert state.topk.last_plan_object.label == "index text topk"
        assert got == [{"t.n": n} for _, _, n in ranked[:limit]], limit
    # The premise: two buckets, the lower one holding a better score...
    grams = trigrams(query)
    overlap = [len(grams & trigrams(title)) for title in titles]
    assert overlap[0] == overlap[3] == len(grams) > overlap[1]
    assert similarity(titles[1], query) > similarity(titles[0], query)
    # ...and limit 3 cuts a run of four equal scores after its second.
    assert [score for score, _, _ in ranked[1:5]] == [ranked[1][0]] * 4
    tied = sorted(n for _, _, n in ranked[1:5])
    assert state.topk.execute(source % 3)[1:] == [{"t.n": n} for n in tied[:2]]


def _emptied():
    state = _State()
    for rowid in sorted(state.table.rowids()):
        state.table.delete(rowid)
    return state


def test_a_cut_inside_one_cell_of_equal_gram_counts_orders_by_rowid():
    """Within a bucket the candidates arrive a cell of equal stored gram
    count at a time: here six titles that differ share one cell and one
    score, longer rows sit in the cells behind it, and every limit cuts
    the tie by rowid -- with the first chunk's cut inside the cell too."""
    state = _emptied()
    query, gate = "prelude no 7", "prelude"
    tied = ["prelude no 7%d" % n for n in (5, 1, 4, 2, 3, 0)]
    for n, title in enumerate(tied):
        state._insert("prelude no 7 in a flat major op 28 no %d" % n)
        state._insert(title)
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
        got = state.topk.execute(source % limit)
        assert state.topk.last_plan_object.label == "index text topk"
        assert got == [{"t.n": n} for _, _, n in ranked[:limit]], limit


def test_a_late_row_in_a_cell_the_walk_skips_is_still_scored():
    """A pinned reader plans, fills its selection from the first bucket,
    and only then is the best row of the second retitled to fifty-odd
    grams: its cell is one the walk stops short of, its overlap was
    counted at the plan, so it has the bucket's bound, is fetched and is
    scored as of the pin.  A row rewritten before the plan is stale and
    fetched first."""
    state = _emptied()
    table, database = state.table, state.schema.database
    query, gate = "prelude no 7", "prelude"
    tail = " in a flat major opus 28 number fifteen"
    for n in range(2):                       # every query gram, long
        state._insert("prelude no 7%s %d" % (tail, n))
    for n in range(6):                       # one gram fewer, ever longer
        state._insert("prelude no 9" + tail[:6 * n])
    late, stale = sorted(table.rowids())[2], sorted(table.rowids())[3]
    source = (
        'retrieve (t.n, s = similarity(t.title, "%s")) '
        'where matches(t.title, "%s") '
        'sort by similarity(t.title, "%s") descending limit 2' % (query, gate, query)
    )
    lsn = database.transactions.snapshot_lsn()
    expected = state.topk.execute(source)
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
            assert state.topk.execute(source) == expected
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
    assert state.topk.execute(source) != expected


@pytest.mark.skipif(not REPLAY_OPS, reason="no recorded failure to replay")
def test_replay_minimal_failure():
    error = _program_fails([tuple(op) for op in REPLAY_OPS])
    assert error is None, error


@pytest.mark.text_slow
@pytest.mark.parametrize("seed", range(200, 215))
def test_random_topk_extended(seed):
    ops = _generate_ops(seed, 80)
    error = _program_fails(ops)
    if error is None:
        return
    minimal = _shrink(ops, lambda candidate: _program_fails(candidate) is not None)
    pytest.fail(
        "seed %d diverged from the sort-all reference.\n%s\n"
        "Replay by setting REPLAY_OPS = %r" % (seed, _program_fails(minimal), minimal)
    )


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

    source = _statement(query, gate, limit)
    got = session.execute(source)
    assert session.last_plan_object.label == "index text topk"
    rows = [(row.rowid, row.get("title")) for row in entity.table]
    expected = _State._reference(rows, query, gate, limit)
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
    source = _statement("prelude no. 7", "prelude", 10)

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
