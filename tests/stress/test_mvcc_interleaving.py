"""Reader/writer interleaving schedules proving snapshot isolation.

The MVCC acceptance oracle.  Readers run through
``MdmSession.run(read_only=True)`` — the lock-free snapshot path — and
the tests assert the three properties the feature promises under every
schedule that previously deadlocked, timed out, or shed:

* **consistency** — a snapshot scan never observes a partially
  committed transaction.  Writers only ever run *sum-preserving
  transfers* (move pitch between two notes inside one transaction), so
  any torn read breaks the global pitch-sum invariant;
* **lock freedom** — a read-only session never calls the lock manager
  at all (``locks.acquire`` is wrapped and attributed per thread) and
  therefore contributes zero ``lock.wait_seconds`` samples, even while
  a blocker pins the table exclusively;
* **no shedding** — readers bypass the admission gate, so schedules
  that drown the old S-lock path keep `overload_shed` at zero.

The second half does the same for *index* reads: pinned readers that
answer from the hash and trigram indexes while writers rewrite the
indexed keys under them -- no lost row, no phantom, and no error out of
an index structure caught mid-mutation (the latch's job).

Thread interleaving is the one nondeterminism; every assertion is
written to hold under all of them, and op streams are seeded per
``(seed, worker)`` so a failure replays.
"""

import random
import sys
import threading

import pytest

from repro.mdm.manager import MusicDataManager
from repro.storage.lock import LockMode
from tests.stress.harness import BLOCKER_ID_BASE, NOTE_TABLE, build_mdm

pytestmark = pytest.mark.stress

PITCH = 100  # every note starts here; the invariant is count * PITCH


def _seed_notes(mdm, count):
    note_type = mdm.schema.entity_type("NOTE")
    return [note_type.create(name=i, pitch=PITCH) for i in range(count)]


class _LockLedger:
    """Wraps ``locks.acquire`` to attribute every call to its thread."""

    def __init__(self, mdm):
        self._locks = mdm.database.transactions.lock_manager
        self._original = self._locks.acquire
        self._mutex = threading.Lock()
        self.calls_by_thread = {}
        self._locks.acquire = self._counting_acquire

    def _counting_acquire(self, owner, resource, mode, deadline=None):
        ident = threading.get_ident()
        with self._mutex:
            self.calls_by_thread[ident] = self.calls_by_thread.get(ident, 0) + 1
        return self._original(owner, resource, mode, deadline=deadline)

    def calls_from(self, idents):
        with self._mutex:
            return sum(self.calls_by_thread.get(i, 0) for i in idents)


def _scan(m):
    """Full-table scan: (pitch sum, row count) in one snapshot."""
    rows = list(m.database.table(NOTE_TABLE))
    return sum(row["pitch"] for row in rows), len(rows)


def _transfer(rowid_a, rowid_b, delta):
    """A sum-preserving transfer closure (safe to retry: it re-reads)."""

    def apply(m):
        # X lock *before* the reads: read first and an older transaction
        # parked between its read and its update waits out a younger
        # one's commit (wait-die only kills the younger), then writes
        # from the stale image -- a lost update that breaks the sum.
        table = m.database.write_table(NOTE_TABLE)
        a = table.require(rowid_a)
        b = table.require(rowid_b)
        table.update(rowid_a, {"pitch": a["pitch"] - delta})
        table.update(rowid_b, {"pitch": b["pitch"] + delta})

    return apply


def test_reader_does_not_block_on_exclusive_blocker():
    """The schedule that used to deadlock: a reader arriving while a
    blocker holds the table exclusively.  The old S-lock path made the
    (younger) reader die and retry until its deadline; the snapshot
    path answers immediately, lock-free."""
    mdm = build_mdm()
    notes = _seed_notes(mdm, 8)
    locks = mdm.database.transactions.lock_manager
    wait_hist = mdm.database.metrics.histogram("lock.wait_seconds")
    locks.acquire(BLOCKER_ID_BASE, NOTE_TABLE, LockMode.EXCLUSIVE)
    ledger = _LockLedger(mdm)  # installed after the blocker's own acquire
    try:
        waits_before = wait_hist.count
        session = mdm.connect("analyst", seed=1, default_timeout=2.0)
        total, count = session.run(_scan, read_only=True, timeout=0.5)
        assert (total, count) == (len(notes) * PITCH, len(notes))
        assert ledger.calls_from([threading.get_ident()]) == 0
        assert wait_hist.count == waits_before
    finally:
        locks.release_all(BLOCKER_ID_BASE)
    assert mdm.statistics()["overload_shed"] == 0
    assert mdm.statistics()["snapshot_reads"] == 1


def test_reader_isolated_from_in_flight_commit():
    """Deterministic torn-read schedule: the writer parks *between* the
    two halves of a transfer, holding its X lock; the reader must see
    the pre-transaction state, not the half-applied one."""
    mdm = build_mdm()
    a, b = _seed_notes(mdm, 2)
    table = mdm.database.table(NOTE_TABLE)
    mid_txn = threading.Event()
    resume = threading.Event()
    failures = []

    def writer():
        session = mdm.connect("editor", seed=2)

        def half_then_half(m):
            t = m.database.table(NOTE_TABLE)
            t.update(a.rowid, {"pitch": PITCH - 60})
            mid_txn.set()
            if not resume.wait(10):
                raise AssertionError("reader never released the writer")
            t.update(b.rowid, {"pitch": PITCH + 60})

        try:
            session.run(half_then_half)
        except BaseException as error:
            failures.append(error)
            mid_txn.set()

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        assert mid_txn.wait(10)
        reader = mdm.connect("analyst", seed=3)
        pitches = reader.run(
            lambda m: sorted(
                row["pitch"] for row in m.database.table(NOTE_TABLE)
            ),
            read_only=True,
        )
        # Mid-transaction: the uncommitted half-transfer is invisible.
        assert pitches == [PITCH, PITCH]
    finally:
        resume.set()
        thread.join()
    assert not failures
    # Committed: a fresh snapshot sees the whole transfer atomically.
    reader = mdm.connect("analyst2", seed=4)
    pitches = reader.run(
        lambda m: sorted(row["pitch"] for row in m.database.table(NOTE_TABLE)),
        read_only=True,
    )
    assert pitches == [PITCH - 60, PITCH + 60]
    assert sorted(row["pitch"] for row in table) == [PITCH - 60, PITCH + 60]


def _run_matrix(seed, writers=8, readers=4, transfers=40, scans=60,
                note_count=16):
    """The acceptance scenario: *writers* committing transfer
    transactions while *readers* do read-only full scans.  Returns the
    harvested evidence for the oracle assertions."""
    mdm = build_mdm(max_concurrent=writers + 2)
    notes = _seed_notes(mdm, note_count)
    expected_sum = note_count * PITCH
    ledger = _LockLedger(mdm)
    start = threading.Barrier(writers + readers)
    reader_idents = []
    ident_mutex = threading.Lock()
    bad_scans = []
    errors = []

    def writer_body(worker):
        rng = random.Random(seed * 1000 + worker)
        session = mdm.connect(
            "w%d" % worker, seed=seed * 1000 + worker, max_attempts=100,
            backoff_base=0.0005, backoff_cap=0.01, default_timeout=30.0,
        )
        start.wait()
        for _ in range(transfers):
            i, j = rng.sample(range(note_count), 2)
            delta = rng.randrange(1, 20)
            try:
                session.run(_transfer(notes[i].rowid, notes[j].rowid, delta))
            except BaseException as error:
                errors.append(("writer", worker, error))
                return

    def reader_body(worker):
        with ident_mutex:
            reader_idents.append(threading.get_ident())
        session = mdm.connect(
            "r%d" % worker, seed=seed * 2000 + worker, default_timeout=30.0,
        )
        start.wait()
        for _ in range(scans):
            try:
                total, count = session.run(_scan, read_only=True)
            except BaseException as error:
                errors.append(("reader", worker, error))
                return
            if (total, count) != (expected_sum, note_count):
                bad_scans.append((total, count))

    threads = [
        threading.Thread(target=writer_body, args=(w,)) for w in range(writers)
    ] + [
        threading.Thread(target=reader_body, args=(r,)) for r in range(readers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = mdm.statistics()
    final_sum = sum(row["pitch"] for row in mdm.database.table(NOTE_TABLE))
    return {
        "errors": errors,
        "bad_scans": bad_scans,
        "reader_lock_calls": ledger.calls_from(reader_idents),
        "stats": stats,
        "final_sum": final_sum,
        "expected_sum": expected_sum,
        "reader_scans": readers * scans,
    }


def _assert_matrix_holds(evidence):
    assert not evidence["errors"], evidence["errors"][:3]
    # Consistency: every one of the hundreds of snapshot scans saw the
    # invariant sum -- no partial commit was ever observable.
    assert not evidence["bad_scans"], evidence["bad_scans"][:5]
    # Lock freedom: reader threads never touched the lock manager, so
    # every lock.wait_seconds sample belongs to a writer.
    assert evidence["reader_lock_calls"] == 0
    # No shedding: readers bypass admission; writers fit the gate.
    assert evidence["stats"]["overload_shed"] == 0
    assert evidence["stats"]["snapshot_reads"] == evidence["reader_scans"]
    assert evidence["final_sum"] == evidence["expected_sum"]


@pytest.mark.parametrize("seed", [1, 7])
def test_eight_writers_versus_snapshot_readers(seed):
    """Acceptance criterion: full-table scans concurrent with 8
    committing writer threads acquire zero table locks and always
    return a consistent snapshot."""
    _assert_matrix_holds(_run_matrix(seed))


@pytest.mark.mvcc_slow
@pytest.mark.parametrize("seed", [11, 23, 37, 53, 71])
def test_interleaving_matrix_extended(seed):
    _assert_matrix_holds(
        _run_matrix(seed, writers=8, readers=6, transfers=80, scans=120,
                    note_count=24)
    )


# -- indexed pinned readers beside writers rewriting the indexed key ----------

TRACK_TABLE = "entity:TRACK"
_WORD = {"a": "alpha", "b": "bravo"}


def _build_catalog(slots):
    """*slots* tracks, half tagged "a" and half "b"; the title carries
    the tag's word, so the hash index on ``tag`` and the trigram index
    on ``title`` must always agree."""
    mdm = MusicDataManager(with_cmn=False, max_concurrent=12)
    mdm.execute(
        "define entity TRACK (slot = integer, tag = string, title = string)"
    )
    track = mdm.schema.entity_type("TRACK")
    for slot in range(slots):
        tag = "ab"[slot % 2]
        track.create(slot=slot, tag=tag, title="%s take 0" % _WORD[tag])
    track.table.create_index("tag")
    mdm.execute("define text index on TRACK (title)")
    mdm.session.execute("range of t is TRACK")
    return mdm


def _swap(rng, generation):
    """A tag-count-preserving transaction: one "a" track becomes a "b"
    and one "b" an "a", each with its title rewritten to match -- two
    hash keys and two sets of postings move per commit."""
    pick_a, pick_b = rng.random(), rng.random()

    def apply(m):
        table = m.database.write_table(TRACK_TABLE)
        tagged_a = table.select_eq("tag", "a")
        tagged_b = table.select_eq("tag", "b")
        a = tagged_a[int(pick_a * len(tagged_a))]
        b = tagged_b[int(pick_b * len(tagged_b))]
        table.update(a.rowid, {
            "tag": "b", "title": "%s take %d" % (_WORD["b"], generation),
        })
        table.update(b.rowid, {
            "tag": "a", "title": "%s take %d" % (_WORD["a"], generation),
        })

    return apply


def _indexed_reads(m):
    """Five index reads in one snapshot; returns what they saw."""
    def slots(source):
        return [row["t.slot"] for row in m.retrieve(source)]

    return {
        "a": slots('retrieve (t.slot) where t.tag = "a"'),
        "b": slots('retrieve (t.slot) where t.tag = "b"'),
        "alpha": slots('retrieve (t.slot) where matches(t.title, "alpha")'),
        "first": slots(
            'retrieve (t.slot) where matches(t.title, "alpha") limit 5'
        ),
        "ranked": slots(
            'retrieve (t.slot) where matches(t.title, "bravo") '
            'sort by similarity(t.title, "bravo take 0") descending limit 5'
        ),
    }


def _run_indexed_matrix(seed, writers=4, readers=4, swaps=30, reads=40,
                        slots=24):
    mdm = _build_catalog(slots)
    start = threading.Barrier(writers + readers)
    torn = []
    errors = []

    def writer_body(worker):
        rng = random.Random(seed * 1000 + worker)
        session = mdm.connect(
            "w%d" % worker, seed=seed * 1000 + worker, max_attempts=200,
            backoff_base=0.0005, backoff_cap=0.01, default_timeout=30.0,
        )
        start.wait()
        for step in range(swaps):
            try:
                session.run(_swap(rng, worker * 1000 + step + 1))
            except BaseException as error:
                errors.append(("writer", worker, error))
                return

    def reader_body(worker):
        session = mdm.connect(
            "r%d" % worker, seed=seed * 2000 + worker, default_timeout=30.0,
        )
        start.wait()
        for _ in range(reads):
            try:
                seen = session.run(_indexed_reads, read_only=True)
            except BaseException as error:
                errors.append(("reader", worker, error))
                return
            a, b = seen["a"], seen["b"]
            if not (
                len(a) == len(b) == slots // 2
                and sorted(a + b) == list(range(slots))   # none lost, none twice
                and seen["alpha"] == a                    # trigram == hash
                and seen["first"] == a[:5]                # stream: same order
                and len(seen["ranked"]) == 5
                and set(seen["ranked"]) <= set(b)
            ):
                torn.append(seen)

    threads = [
        threading.Thread(target=writer_body, args=(w,)) for w in range(writers)
    ] + [
        threading.Thread(target=reader_body, args=(r,)) for r in range(readers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave inside the index upkeep
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    metrics = mdm.database.metrics
    table = mdm.database.table(TRACK_TABLE)
    return {
        "errors": errors,
        "torn": torn,
        "index_reads": metrics.value("quel.snapshot_index_reads"),
        "expected_index_reads": readers * reads * 5,
        "final_tags": sorted(row["tag"] for row in table),
        "slots": slots,
        "stale_left": len(table.stale_rowids()),
    }


def _assert_indexed_matrix_holds(evidence):
    # No RuntimeError / IndexError / KeyError / StorageError out of an
    # index caught mid-mutation, and no service-layer failure either.
    assert not evidence["errors"], evidence["errors"][:3]
    # No lost or phantom row, in any of the five sources.
    assert not evidence["torn"], evidence["torn"][:3]
    # Every read really did answer from an index.
    assert evidence["index_reads"] == evidence["expected_index_reads"]
    half = evidence["slots"] // 2
    assert evidence["final_tags"] == ["a"] * half + ["b"] * half
    # Writers trim as they go: what is left is the last few commits'.
    assert evidence["stale_left"] <= 8


@pytest.mark.parametrize("seed", [3, 9])
def test_indexed_snapshot_readers_versus_key_rewriting_writers(seed):
    _assert_indexed_matrix_holds(_run_indexed_matrix(seed))


@pytest.mark.mvcc_slow
@pytest.mark.parametrize("seed", [13, 29, 41, 59])
def test_indexed_interleaving_matrix_extended(seed):
    _assert_indexed_matrix_holds(
        _run_indexed_matrix(seed, writers=6, readers=6, swaps=80, reads=120,
                            slots=40)
    )
