"""The log as a list of segments: what a checkpoint's roll leaves on
disk, and what an open makes of it.

A checkpoint seals ``wal.log`` as ``wal.log.<LSN>`` in one short hold,
writes the image after it and deletes the sealed segment once the
image's rename is durable.  Two crash windows there have no syncpoint
between them, so the crash oracle cannot reach them; they are made by
hand here: sealed with the old image in force, and the new image in
force with the sealed segment not yet deleted.  Then the refusals: a bad
frame inside a sealed segment, a stray file beside the log, and a roll
whose new header cannot be written.
"""

import os
import threading

import pytest

from repro.errors import RecoveryError, ReplicationError
from repro.storage.database import Database
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.wal import _FRAME, LOG_FORMAT, LOG_HEADER, WriteAheadLog

from tests.crash.oracle import table_state

pytestmark = pytest.mark.crash


def _open(path, opener=None):
    db = Database(path, opener=opener)
    table = db.create_table("t", [("k", "integer")])
    db.bulk_ingest("t", [{"k": k} for k in range(50)])
    table.insert({"k": 50})
    return db, table


def _sealed(path):
    return sorted(
        name for name in os.listdir(path) if name.startswith("wal.log.")
    )


def test_sealed_before_the_image_reopens_from_both_segments(tmp_path):
    """Power fails while the image is written: the old image is in
    force, and the sealed segment plus ``wal.log`` replay over it."""
    path = str(tmp_path / "db")
    db, table = _open(path)
    publish = db._write_atomic

    def die_writing_the_image(filename, pieces):
        if filename == "image.mdm":
            # Another thread commits: it lands in the new wal.log.
            writer = threading.Thread(target=table.insert, args=({"k": 51},))
            writer.start()
            writer.join(10.0)
            assert not writer.is_alive()
            raise SimulatedCrash("power fails before the image's rename")
        return publish(filename, pieces)

    db._write_atomic = die_writing_the_image
    with pytest.raises(SimulatedCrash):
        db.checkpoint()
    live = table_state(db)
    (sealed,) = _sealed(path)
    assert sorted(os.listdir(path)) == ["wal.log", sealed]  # no image yet
    with Database(path) as reopened:
        assert table_state(reopened) == live
        assert sorted(row["k"] for row in reopened.table("t")) == list(
            range(52)
        )
        reopened.checkpoint()
        assert _sealed(path) == []
    assert sorted(os.listdir(path)) == ["image.mdm", "wal.log"]


def test_image_in_force_before_the_delete_reopens_and_drops_the_leftover(
    tmp_path,
):
    """Power fails after the image's rename, before the sealed segment
    is deleted: the image holds it, so an open equals the live state and
    deletes the leftover."""
    path = str(tmp_path / "db")
    db, table = _open(path)

    def die_before_the_delete(lsn):
        raise SimulatedCrash("power fails before the segment is deleted")

    db._log.drop_through = die_before_the_delete
    with pytest.raises(SimulatedCrash):
        db.checkpoint()
    live = table_state(db)
    assert len(_sealed(path)) == 1
    with Database(path) as reopened:
        assert _sealed(path) == []
        assert table_state(reopened) == live
    assert sorted(os.listdir(path)) == ["image.mdm", "wal.log"]


def test_a_bad_frame_inside_a_sealed_segment_is_damage(tmp_path):
    """A sealed segment was fsynced whole before its rename: a frame
    that fails its checksum there is not a torn write to cut away but
    damage, and the open refuses it by name."""
    path = str(tmp_path / "t.wal")
    with WriteAheadLog(path) as log:
        for _ in range(3):
            log.append_batch([], {})
        with log.rolled() as lsn:
            pass
        log.append(flush=True)
    sealed = "%s.%020d" % (path, lsn)
    with open(sealed, "r+b") as handle:
        handle.seek(len(LOG_HEADER) + _FRAME.size)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes((byte[0] ^ 0x40,)))
    with pytest.raises(RecoveryError, match=os.path.basename(sealed)):
        WriteAheadLog(path)


def test_a_sealed_segment_of_another_format_is_refused(tmp_path):
    path = str(tmp_path / "db")
    db, _ = _open(path)
    db.close()
    with open(os.path.join(path, "wal.log.%020d" % 10**6), "wb") as handle:
        handle.write(b"MDM-WAL\x04")
    with pytest.raises(RecoveryError, match="format-%d" % LOG_FORMAT):
        Database(path)


@pytest.mark.parametrize("name", [
    "wal.log.x", "wal.log.", "wal.log.tmp", "wal.log.²",
    "wal.log." + "9" * 30,  # more digits than an LSN has
])
def test_a_stray_file_beside_the_log_is_ignored(tmp_path, name):
    path = str(tmp_path / "db")
    db, _ = _open(path)
    live = table_state(db)
    db.close()
    with open(os.path.join(path, name), "wb") as handle:
        handle.write(b"not a segment")
    with Database(path) as reopened:
        assert table_state(reopened) == live
        reopened.checkpoint()
    assert name in os.listdir(path)


def test_a_roll_that_cannot_write_its_header_poisons_the_log(tmp_path):
    """An I/O error on the new segment's header poisons the log, as a
    failed write does: the next commit is refused and degrades the
    database.  A reopen has every acknowledged commit, and so does the
    live database once the disk is repaired and degraded mode left."""
    path = str(tmp_path / "db")
    plan = FaultPlan(seed=1)
    db, table = _open(path, opener=plan.opener)
    acknowledged = table_state(db)
    plan.io_error_at_write = plan.write_count + 1  # the roll's header
    with pytest.raises(OSError):
        db.checkpoint()
    assert len(_sealed(path)) == 1  # it failed past the rename
    with pytest.raises(OSError):
        table.insert({"k": -1})
    assert db.degraded
    with Database(path) as reopened:
        assert table_state(reopened) == acknowledged
    plan.io_error_at_write = None
    plan.heal_io()
    db.exit_degraded()  # starts the new live segment over
    table.insert({"k": 51})
    live = table_state(db)
    db.close()
    with Database(path) as reopened:
        assert table_state(reopened) == live
        reopened.checkpoint()
    assert sorted(os.listdir(path)) == ["image.mdm", "wal.log"]
    with Database(path) as reopened:
        assert table_state(reopened) == live


def test_a_posting_stream_dumped_in_the_roll_matches_the_next_open(tmp_path):
    """``change_lsn`` after a roll is the rolled LSN, what an open past
    the image computes, so the stream two back-to-back checkpoints leave
    is loaded, not rebuilt."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string")])
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [{"title": "Opus %d" % i} for i in range(40)])
    db.checkpoint()
    db.checkpoint()  # the last record before this roll is a marker
    db.close()
    with Database(path) as reopened:
        value = reopened.metrics.value
        assert value("db.recovery.indexes_loaded") == 1
        assert value("db.recovery.indexes_rebuilt") == 0


def _lsns(frames):
    return [lsn for lsn, _ in frames]


def test_stream_frames_reads_sealed_segments_until_they_are_dropped(tmp_path):
    path = str(tmp_path / "s.wal")
    with WriteAheadLog(path) as log:
        for _ in range(3):
            log.append_batch([], {})
        with log.rolled() as lsn:
            pass
        log.append_batch([], {})
        log.flush()
        assert _lsns(log.stream_frames(2)) == [2, 3, 4]
        log.drop_through(lsn)
        with pytest.raises(ReplicationError):
            log.stream_frames(lsn)
        assert _lsns(log.stream_frames(lsn + 1)) == [4]


class _RollBeforeRead:
    """A read handle on the live segment that rolls the log -- on
    another thread, the roll needing the append mutex -- just before it
    reads."""

    def __init__(self, handle, log):
        self._handle = handle
        self._log = log

    def read(self, size=-1):
        thread = threading.Thread(target=self._roll)
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive()
        return self._handle.read(size)

    def _roll(self):
        with self._log.rolled():
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False


def test_stream_frames_reads_a_handle_a_roll_renamed(tmp_path):
    """The handles are opened in the hold and read outside it: a roll
    between the two renames the live segment under the reader, which
    still reads the durable bytes it was handed."""
    path = str(tmp_path / "r.wal")
    with WriteAheadLog(path) as log:
        for _ in range(3):
            log.append_batch([], {})
        log.flush()

        def opener(name, mode="rb"):
            handle = open(name, mode)
            if name == path and mode == "rb":
                return _RollBeforeRead(handle, log)
            return handle

        log._opener = opener
        assert _lsns(log.stream_frames(1)) == [1, 2, 3]
        assert os.path.exists("%s.%020d" % (path, 3))
        assert os.path.getsize(path) == len(LOG_HEADER)
