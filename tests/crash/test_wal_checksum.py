"""Checksummed WAL framing: bit-flips are detected and the tail discarded.

The acceptance test for the harness PR: a deliberately bit-flipped WAL
record must be caught by its CRC32, the log truncated to the valid
prefix, and recovery must complete without raising.
"""

import os
import struct

import pytest

from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.faults import FaultPlan
from repro.storage.wal import WriteAheadLog

_FRAME = struct.Struct("<II")


def frame_spans(path):
    """Byte spans [(offset, size), ...] of each record frame in the log."""
    with open(path, "rb") as handle:
        data = handle.read()
    spans = []
    offset = len(wal_module.LOG_HEADER)
    while offset < len(data):
        length, _ = _FRAME.unpack_from(data, offset)
        spans.append((offset, _FRAME.size + length))
        offset += _FRAME.size + length
    assert offset == len(data), "probe log should be clean"
    return spans


def flip_byte(path, offset, mask=0x08):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ mask]))


@pytest.mark.crash
class TestChecksum:
    def test_bit_flip_truncates_tail_and_lsns_continue(self, tmp_path, caplog):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            for _ in range(4):
                log.append_batch([], {})
            log.flush()
        spans = frame_spans(path)
        assert len(spans) == 4
        # Flip one bit inside the payload of record 3.
        flip_byte(path, spans[2][0] + _FRAME.size + 3)
        with caplog.at_level("WARNING", logger="repro.storage.wal"):
            with WriteAheadLog(path) as log:  # must not raise
                # Only the prefix before the corrupt record survives ...
                assert [lsn for lsn, _ in log.stream_frames(1)] == [1, 2]
                # ... the tail is physically gone ...
                assert os.path.getsize(path) == spans[2][0]
                # ... and LSN assignment continues rather than restarting
                # at 1 (which would mint duplicate LSNs).
                assert log.append_batch([], {}) == 3
        assert any("checksum mismatch" in msg for msg in caplog.messages)

    def test_flip_in_frame_header_is_also_fatal_for_the_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            for _ in range(2):
                log.append_batch([], {})
            log.flush()
        spans = frame_spans(path)
        # Corrupt record 2's declared length: reads as torn/inconsistent.
        flip_byte(path, spans[1][0], mask=0x80)
        with WriteAheadLog(path) as log:
            assert [lsn for lsn, _ in log.stream_frames(1)] == [1]
            assert os.path.getsize(path) == spans[1][0]


def _seed_three_txns(db_dir):
    db = Database(db_dir)
    db.create_table("notes", [("name", "string")])
    for name in ("a", "b", "c"):
        with db.begin():
            db.table("notes").insert({"name": name})
    db.close()


@pytest.mark.crash
class TestDatabaseRecovery:
    def test_flipped_record_loses_tail_not_recovery(self, tmp_path):
        db_dir = str(tmp_path / "mdm")
        _seed_three_txns(db_dir)
        log_path = os.path.join(db_dir, "wal.log")
        spans = frame_spans(log_path)
        # The table's DDL commit, then three txns, a frame each.
        assert len(spans) == 1 + 3
        # Corrupt txn 2's payload: txns 2 and 3 are discarded with the
        # tail.
        flip_byte(log_path, spans[2][0] + _FRAME.size + 5)
        db = Database(db_dir)  # recovery must not raise
        try:
            assert sorted(r["name"] for r in db.table("notes")) == ["a"]
        finally:
            db.close()

    def test_flip_injected_on_read_path(self, tmp_path):
        """Same detection when the flip comes from the fault plan (the
        on-disk bytes stay good, the *read* is corrupt)."""
        db_dir = str(tmp_path / "mdm")
        _seed_three_txns(db_dir)
        log_path = os.path.join(db_dir, "wal.log")
        spans = frame_spans(log_path)
        plan = FaultPlan(bit_flips=[("wal.log", spans[2][0] + _FRAME.size + 5, 0x10)])
        db = Database(db_dir, opener=plan.opener)
        try:
            assert sorted(r["name"] for r in db.table("notes")) == ["a"]
        finally:
            db.close()


def _state(path):
    with Database(path) as db:
        return {
            name: sorted(row["v"] for row in db.table(name)) for name in "ab"
        }


@pytest.mark.crash
def test_a_commit_frame_lands_whole_or_not_at_all(tmp_path):
    """One commit of three changes over two tables -- a row into ``a``,
    one into ``b``, a delete from ``a`` -- is one frame: torn at every
    byte, or bit-flipped once, recovery holds all of it or none."""
    path = str(tmp_path / "db")
    log_path = os.path.join(path, "wal.log")
    with Database(path) as db:
        a, b = (db.create_table(name, [("v", "integer")]) for name in "ab")
        old = a.insert({"v": 0})
    before = os.path.getsize(log_path)
    with Database(path) as db:
        with db.begin():
            db.table("a").insert({"v": 1})
            db.table("b").insert({"v": 2})
            db.table("a").delete(old.rowid)
    with open(log_path, "rb") as handle:
        data = handle.read()
    assert frame_spans(log_path)[-1] == (before, len(data) - before)
    none, whole = {"a": [0], "b": []}, {"a": [1], "b": [2]}
    assert _state(path) == whole
    for cut in range(before, len(data)):
        with open(log_path, "wb") as handle:
            handle.write(data[:cut])
        assert _state(path) == none, cut
    with open(log_path, "wb") as handle:
        handle.write(data)
    flip_byte(log_path, (before + len(data)) // 2)
    assert _state(path) == none
