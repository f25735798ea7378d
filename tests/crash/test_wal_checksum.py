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
    offset = 0
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
            for txn in (1, 2, 3):
                log.append(txn, wal_module.BEGIN)
                log.append(txn, wal_module.COMMIT, flush=True)
        spans = frame_spans(path)
        assert len(spans) == 6
        # Flip one bit inside the payload of record 3 (txn 2's BEGIN).
        flip_byte(path, spans[2][0] + _FRAME.size + 3)
        with caplog.at_level("WARNING", logger="repro.storage.wal"):
            with WriteAheadLog(path) as log:  # must not raise
                # Only the prefix before the corrupt record survives ...
                assert [lsn for lsn, _ in log.stream_frames(1)] == [1, 2]
                # ... the tail is physically gone ...
                assert os.path.getsize(path) == spans[2][0]
                # ... and LSN assignment continues rather than restarting
                # at 1 (which would mint duplicate LSNs).
                assert log.append(9, wal_module.BEGIN).lsn == 3
        assert any("checksum mismatch" in msg for msg in caplog.messages)

    def test_flip_in_frame_header_is_also_fatal_for_the_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as log:
            for txn in (1, 2):
                log.append(txn, wal_module.BEGIN)
                log.append(txn, wal_module.COMMIT, flush=True)
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
        assert len(spans) == 9  # three txns of BEGIN/INSERT/COMMIT
        # Corrupt txn 2's INSERT payload: txn 2's COMMIT is behind the
        # bad record, so txns 2 and 3 are discarded with the tail.
        flip_byte(log_path, spans[4][0] + _FRAME.size + 5)
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
        plan = FaultPlan(bit_flips=[("wal.log", spans[4][0] + _FRAME.size + 5, 0x10)])
        db = Database(db_dir, opener=plan.opener)
        try:
            assert sorted(r["name"] for r in db.table("notes")) == ["a"]
        finally:
            db.close()
