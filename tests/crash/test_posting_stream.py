"""The posting stream: open loads the trigram index it closed with.

``Database.close`` and ``checkpoint`` publish the text indexes as one
checksummed file (``repro.text.stream``) naming the log's
``change_lsn``; the next open loads an index from it iff the log it
recovered is at that LSN and the table has the row count the stream
says, and rebuilds from rows otherwise.  Judged, like every other
recovery path, by the crash oracle's lenses (``tests/crash/oracle.py``):
an index that was loaded must hold exactly what one rebuilt row by row
holds.

* the crash battery -- the one workload closed, checkpointed or crashed:
  at every barrier of ``close()`` (between the log's last fsync and the
  stream's rename), in the middle of the stream's write, and right
  after each checkpoint;
* every way a stream is refused -- cut anywhere, a flipped bit, an LSN
  or a row count one off, a foreign format byte, an entry for an index
  since dropped -- is the rebuild, with a log line saying why and never
  an untyped exception;
* the moments no stream may be written: beside an open or an abandoned
  transaction, degraded, in memory, or when the one on disk is current.
"""

import logging
import os
import shutil
import threading

import pytest

from repro.errors import RecoveryError
from repro.storage.database import Database
from repro.storage.faults import FaultPlan
from repro.text import stream as posting_stream
from repro.text.index import TrigramIndex

from tests.crash.oracle import (
    assert_indexes_match_rows,
    crash_and_verify,
    prepare,
    probe,
    run_workload,
    verify_recovery,
)

pytestmark = pytest.mark.crash

STREAM = "postings.bin"


def recovery(db):
    """(indexes loaded, indexes rebuilt) by the open that made *db*."""
    value = db.metrics.value
    return (
        value("db.recovery.indexes_loaded"), value("db.recovery.indexes_rebuilt")
    )


# -- (a) the crash battery -----------------------------------------------------


@pytest.mark.parametrize("seed", range(7))
def test_a_clean_close_is_loaded_and_equals_the_rebuild(tmp_path, seed):
    _, workload = probe(tmp_path / "db", run_workload(seed), seed)
    indexes = len(workload.committed[1])
    assert verify_recovery(tmp_path / "db", [workload.committed]) == (indexes, 0)
    # That reopen edited and closed: its stream is loaded in turn.
    assert verify_recovery(tmp_path / "db", [workload.committed]) == (indexes, 0)


# Seeds beyond ``test_crash_oracle.SEEDS``, whose every fsync -- close()'s
# too -- that matrix crashes at already, torn tails alike.
@pytest.mark.parametrize("seed", range(20, 26))
def test_crash_at_every_barrier_and_write_of_close(tmp_path, seed):
    """``close()`` dies between the log's last fsync and the stream's
    rename -- in the temp file's fsync, or part-way through its write
    (a seeded torn prefix): the stream of the checkpoint or close before
    it is still the one on disk, stale (the workload ends on a commit),
    and the open rebuilds."""
    plan, workload = probe(tmp_path / "probe", run_workload(seed), seed)
    (syncs, writes), = workload.marks["close"]
    close_syncs = range(syncs + 1, plan.sync_count + 1)
    close_writes = range(writes + 1, plan.write_count + 1)
    assert close_syncs and close_writes, "close() wrote no stream"
    # The stream goes out a piece at a time: crash after the first
    # write, the last, and a spread of the ones between.
    step = max(1, len(close_writes) // 6)
    schedules = [("sync", at) for at in close_syncs] + [
        ("write", at) for at in sorted({*close_writes[::step], close_writes[-1]})
    ]
    for unit, at in schedules:
        assert crash_and_verify(
            tmp_path / ("crash-%s-%d" % (unit, at)), seed, at, unit
        ) == (0, len(workload.committed[1]))


@pytest.mark.parametrize("seed", range(20, 26))
def test_crash_right_after_a_checkpoint_loads_its_stream(tmp_path, seed):
    """Power fails in the first barrier after each checkpoint and takes
    everything unsynced with it: the log is where the checkpoint left
    it (its bare CHECKPOINT marker does not count), so the stream the
    checkpoint wrote is the one that describes the rows."""
    _, workload = probe(tmp_path / "probe", run_workload(seed), seed)
    assert workload.marks["checkpointed"], "schedule took no checkpoint"
    for syncs, _ in workload.marks["checkpointed"]:
        loaded, rebuilt = crash_and_verify(
            tmp_path / ("crash-%d" % syncs), seed, syncs + 1, torn="none"
        )
        assert rebuilt == 0 < loaded


# -- (b) every way a stream is refused -----------------------------------------

ROWS = 1500


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A closed directory with a stream of some 170 KB, and the
    ``_postings`` of the index a reopen loads from it."""
    path = str(tmp_path_factory.mktemp("pristine") / "db")
    db = Database(path)
    db.create_table(
        "t", [("title", "string"), ("v", "integer"), ("pad", "string")]
    )
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [
        {"title": "Opus %d no. %d in %s" % (i % 97, i, "CDEFGAB"[i % 7]),
         "v": i, "pad": "composer %d" % (i % 13)}
        for i in range(ROWS)
    ])
    db.table("t").update(5, {"title": ""})
    db.close()
    reopened = Database(path)
    assert recovery(reopened) == (1, 0)
    postings = reopened.table("t").text_index_for("title")._postings
    reopened.close()
    return path, postings


def open_copy(pristine, tmp_path, caplog, damage):
    """Copy the pristine directory, let *damage* at its stream file,
    open it; returns (recovery counts, ``_postings``, the log line)."""
    path = str(tmp_path / "copy")
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(pristine[0], path)
    damage(os.path.join(path, STREAM))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="repro.storage.database"):
        db = Database(path)
    try:
        assert_indexes_match_rows(db.table("t"))
        (line,) = [r.getMessage() for r in caplog.records
                   if "recovered" in r.getMessage()]
        return recovery(db), db.table("t").text_index_for("title")._postings, line
    finally:
        db.close()


def rewrite(edit):
    """Damage that re-packs the stream, checksum valid, after *edit*
    changed ``[lsn, {(table, column): (rows, body)}]`` in place."""
    def damage(path):
        with open(path, "rb") as handle:
            lsn, bodies = posting_stream.unpack(handle.read())
        parts = [lsn, {key: (rows, bytes(body)) for key, (rows, body) in bodies.items()}]
        edit(parts)
        with open(path, "wb") as handle:
            handle.writelines(posting_stream.pack(parts[0], [
                key + (rows, [body]) for key, (rows, body) in parts[1].items()
            ]))
    return damage


def shift_lsn(by):
    def edit(parts):
        parts[0] += by
    return rewrite(edit)


def shift_rows(by):
    def edit(parts):
        rows, body = parts[1]["t", "title"]
        parts[1]["t", "title"] = rows + by, body
    return rewrite(edit)


def flip(offset):
    def damage(path):
        with open(path, "r+b") as handle:
            handle.seek(offset % os.path.getsize(path))
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes((byte ^ 0x10,)))
    return damage


def set_format(byte):
    def damage(path):
        with open(path, "r+b") as handle:
            handle.write(bytes((byte,)))
    return damage


@pytest.mark.parametrize("damage, why", [
    (os.remove, "no posting stream"),
    (shift_lsn(1), "names LSN"),
    (shift_lsn(-1), "names LSN"),
    (shift_rows(1), "rows, the stream describes"),
    (shift_rows(-1), "rows, the stream describes"),
    (set_format(posting_stream.FORMAT + 1), "unknown format byte"),
    (set_format(0), "unknown format byte"),
    (flip(1), "checksum mismatch"),       # in the checksum
    (flip(5), "checksum mismatch"),       # in the LSN
    (flip(40), "checksum mismatch"),      # in the directory
    (flip(70000), "checksum mismatch"),   # in a posting
    (flip(-1), "checksum mismatch"),      # in the last plane
], ids=[
    "deleted", "lsn+1", "lsn-1", "rows+1", "rows-1", "format+1", "format0",
    "flip-crc", "flip-lsn", "flip-directory", "flip-posting", "flip-last",
])
def test_a_refused_stream_is_the_rebuild_and_says_why(
    pristine, tmp_path, caplog, damage, why
):
    counts, postings, line = open_copy(pristine, tmp_path, caplog, damage)
    assert counts == (0, 1)
    assert postings == pristine[1]
    assert why in line
    # A refused stream does not stay to be matched by a reused LSN; the
    # close after the rebuild wrote the one that is there now.
    assert reopen_and_check_loaded(tmp_path / "copy")


def reopen_and_check_loaded(path):
    db = Database(str(path))
    try:
        assert_indexes_match_rows(db.table("t"))
        return recovery(db) == (1, 0)
    finally:
        db.close()


def field_ends(raw):
    """The offsets at which each field of stream *raw*'s header and
    directory ends: format byte, checksum, LSN, entry count, then per
    entry two strings (length, bytes) and its row count and length."""
    ends = [1, 5, 13, 15]
    _, bodies = posting_stream.unpack(raw)
    for names in bodies:
        for name in names:
            ends += [ends[-1] + 2, ends[-1] + 2 + len(name.encode("utf-8"))]
        ends += [ends[-1] + 8, ends[-1] + 16]
    return ends


def test_a_stream_cut_anywhere_is_refused_by_its_checksum(pristine):
    """Every 4 KB and each side of every header and directory field: a
    cut stream is refused by its checksum before a field of it is read
    -- the directory's own checks would catch most cuts, but not
    before trusting what they parse."""
    with open(os.path.join(pristine[0], STREAM), "rb") as handle:
        raw = handle.read()
    assert len(raw) > 64 * 1024
    cuts = set(range(0, len(raw), 4096)) | {len(raw) - 1} | {
        end + shift for end in field_ends(raw) for shift in (-1, 0, 1)
    }
    for cut in sorted(cuts):
        why = "torn header" if cut < 5 else "checksum mismatch"
        with pytest.raises(RecoveryError, match=why):
            posting_stream.unpack(raw[:cut])


@pytest.mark.parametrize("cut", ["empty", "mid-body", "one short"])
def test_a_cut_stream_is_the_rebuild(pristine, tmp_path, caplog, cut):
    def damage(path):
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate({"empty": 0, "mid-body": size // 2}.get(cut, size - 1))
    counts, postings, line = open_copy(pristine, tmp_path, caplog, damage)
    assert counts == (0, 1)
    assert postings == pristine[1]
    assert "posting stream refused" in line


def test_an_entry_for_an_index_since_dropped_is_passed_over(
    pristine, tmp_path, caplog
):
    def edit(parts):
        entry = parts[1]["t", "title"]
        parts[1]["t", "pad"] = entry        # a column that is not indexed
        parts[1]["gone", "title"] = entry   # a table the catalogue lost
    counts, postings, line = open_copy(pristine, tmp_path, caplog, rewrite(edit))
    assert counts == (1, 0)
    assert postings == pristine[1]
    assert "t.pad: no longer indexed" in line
    assert "gone.title: no longer indexed" in line


def test_a_body_that_is_not_a_dump_is_the_rebuild(pristine, tmp_path, caplog):
    """Past the checksum: a stream whose bytes are intact but whose body
    no ``TrigramIndex.load`` accepts (another writer's, a bug's)."""
    def edit(parts):
        rows, body = parts[1]["t", "title"]
        parts[1]["t", "title"] = rows, body[:-7]
    counts, postings, line = open_copy(pristine, tmp_path, caplog, rewrite(edit))
    assert counts == (0, 1)
    assert postings == pristine[1]
    assert "malformed text index dump" in line


def test_a_clean_reopen_reaches_no_build(pristine, tmp_path, monkeypatch):
    """What the stream buys, in calls: no ``insert_many``, no ``insert``."""
    path = str(tmp_path / "copy")
    shutil.copytree(pristine[0], path)
    calls = []
    monkeypatch.setattr(
        TrigramIndex, "insert_many", lambda self, pairs: calls.append("many")
    )
    monkeypatch.setattr(
        TrigramIndex, "insert", lambda self, value, rowid: calls.append("one")
    )
    db = Database(path)
    monkeypatch.undo()
    try:
        assert calls == []
        assert len(db.table("t").text_index_for("title")) == ROWS
    finally:
        db.close()


# -- (c) when no stream may be written -----------------------------------------


def stream_lsn(path):
    with open(os.path.join(path, STREAM), "rb") as handle:
        return posting_stream.unpack(handle.read())[0]


def identity(path):
    stat = os.stat(os.path.join(path, STREAM))
    return stat.st_ino, stat.st_mtime_ns


@pytest.fixture
def opened(pristine, tmp_path):
    path = str(tmp_path / "db")
    shutil.copytree(pristine[0], path)
    db = Database(path)
    yield path, db
    db.close()


def test_a_current_stream_is_not_written_again(opened):
    path, db = opened
    before = identity(path)
    db.checkpoint()  # nothing changed since the stream was loaded
    db.close()
    assert identity(path) == before
    assert reopen_and_check_loaded(path)


def test_a_checkpoint_names_the_lsn_a_reopen_finds(opened):
    """The CHECKPOINT marker the checkpoint appends after its hold is
    not a change: the stream written under the hold stays current, for
    a crash right there and for the close that follows alike."""
    path, db = opened
    db.table("t").update(7, {"title": "retitled before the checkpoint"})
    db.checkpoint()
    named, written = stream_lsn(path), identity(path)
    crashed = str(path) + "-crashed"
    shutil.copytree(path, crashed)  # the directory as a crash here leaves it
    assert reopen_and_check_loaded(crashed)
    db.close()
    assert (stream_lsn(path), identity(path)) == (named, written)
    assert reopen_and_check_loaded(path)


@pytest.mark.parametrize("end", ["checkpoint", "close"])
@pytest.mark.parametrize("threaded", [False, True])
def test_beside_an_open_transaction_no_stream_is_written(opened, end, threaded):
    """... and the one on disk, older than a commit since, is refused:
    the reopen rebuilds, without the uncommitted title."""
    path, db = opened
    table = db.table("t")
    table.update(7, {"title": "committed since the stream"})
    before = identity(path), stream_lsn(path)
    release = threading.Event()

    def hold_a_transaction_open(opened_it=None):
        txn = db.begin()
        table.update(9, {"title": "never committed zzzqqq"})
        if opened_it is not None:
            opened_it.set()
            release.wait(60.0)
            txn.abort()

    if threaded:
        opened_it = threading.Event()
        thread = threading.Thread(target=hold_a_transaction_open, args=(opened_it,))
        thread.start()
        assert opened_it.wait(60.0)
    else:
        hold_a_transaction_open()
    try:
        if end == "checkpoint":
            db.checkpoint()
            assert (identity(path), stream_lsn(path)) == before
            crashed = str(path) + "-crashed"
            shutil.copytree(path, crashed)
        else:
            db.close()
            assert (identity(path), stream_lsn(path)) == before
            crashed = path
    finally:
        release.set()
        if threaded:
            thread.join(60.0)
            assert not thread.is_alive()
    reopened = Database(crashed)
    try:
        assert recovery(reopened) == (0, 1)
        assert_indexes_match_rows(reopened.table("t"))
        index = reopened.table("t").text_index_for("title")
        assert not index.candidates_matching("zzzqqq")
        assert 7 in index.candidates_matching("committed since")
    finally:
        reopened.close()


def test_an_abandoned_transaction_ends_the_streams_of_its_process(opened):
    path, db = opened
    table = db.table("t")
    txn = db.begin()
    table.update(9, {"title": "half undone zzzqqq"})
    db.transactions.abandon(txn)  # what a failed abort leaves behind
    table.update(7, {"title": "committed afterwards"})
    before = identity(path)
    db.checkpoint()
    db.close()
    assert identity(path) == before
    reopened = Database(path)
    try:
        assert recovery(reopened) == (0, 1)
        assert_indexes_match_rows(reopened.table("t"))
    finally:
        reopened.close()


def test_a_degraded_database_writes_no_stream(opened):
    path, db = opened
    db.table("t").update(7, {"title": "committed since the stream"})
    before = identity(path)
    db.enter_degraded("disk on fire")
    db.close()
    assert identity(path) == before
    with Database(path) as reopened:
        assert recovery(reopened) == (0, 1)
        assert_indexes_match_rows(reopened.table("t"))


@pytest.mark.parametrize("fails", ["write", "sync"])
def test_a_failed_commit_is_neither_in_the_stream_nor_in_its_way(tmp_path, fails):
    """A commit whose log write fails is undone unstamped, one whose
    fsync fails was stamped first: either way the table ends with no
    change in flight, so after the repair a close writes a stream, and
    the reopen loads it without the failed title."""
    path = tmp_path / "db"
    prepare(path)
    plan = FaultPlan(seed=2)
    db = Database(str(path), opener=plan.opener)
    table = db.table("t")
    table.insert({"title": "Prélude, committed", "v": 1})
    if fails == "write":
        plan.io_error_at_write = plan.write_count + 1
    else:
        plan.io_error_at_sync = plan.sync_count + 1
    with pytest.raises(OSError):
        with db.begin():
            table.insert({"title": "never acknowledged zzzqqq", "v": 2})
            table.update(1, {"title": "nor this zzzqqq"})
    assert db.degraded and table._unstamped == 0
    plan.io_error_at_write = plan.io_error_at_sync = None
    plan.heal_io()
    db.exit_degraded()
    table.insert({"title": "Nocturne, after the repair", "v": 3})
    db.close()
    reopened = Database(str(path))
    try:
        assert recovery(reopened) == (2, 0)
        assert_indexes_match_rows(reopened.table("t"))
        index = reopened.table("t").text_index_for("title")
        assert not index.candidates_matching("zzzqqq")
        assert len(index.candidates_matching("nocturne")) == 1
    finally:
        reopened.close()


def test_a_disk_that_refuses_the_stream_costs_the_next_open_a_rebuild(tmp_path):
    path = tmp_path / "db"
    prepare(path)
    plan = FaultPlan(seed=1)
    db = Database(str(path), opener=plan.opener)
    db.table("t").insert({"title": "Prélude", "v": 1})
    plan.io_error_at_write = plan.write_count + 3  # in the stream's temp file
    db.close()  # logs a warning; nothing raised, nothing degraded
    assert verify_recovery(path) == (0, 2)


def test_the_image_outrunning_the_stream_refuses_it(opened, monkeypatch):
    """A crash between a checkpoint's truncation and its stream write:
    the image holds a commit the stream on disk has not seen and the
    log, emptied, has no record of it -- the base LSN tells."""
    path, db = opened
    db.table("t").update(7, {"title": "only the image has this"})
    monkeypatch.setattr(db, "_publish_postings", lambda postings: None)
    db.checkpoint()
    crashed = str(path) + "-crashed"
    shutil.copytree(path, crashed)
    reopened = Database(crashed)
    try:
        assert recovery(reopened) == (0, 1)
        assert_indexes_match_rows(reopened.table("t"))
    finally:
        reopened.close()


def test_what_a_write_cost_is_in_the_gauges(opened):
    path, db = opened
    db.table("t").update(7, {"title": "committed since the stream"})
    db.checkpoint()
    size = os.path.getsize(os.path.join(path, STREAM))
    assert db.metrics.value("text.index.stream_bytes") == size
    assert db.metrics.value("text.index.stream_write_ms") > 0
