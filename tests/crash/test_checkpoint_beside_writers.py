"""``checkpoint()`` beside other threads' transactions.

The image, ``roots.json`` and the log truncation run inside one hold of
the log's append mutex, the image read through a snapshot pinned at the
LSN that hold made durable.  Two ways this used to go wrong, both
deterministic here: an open transaction's rows were written into the
image (and survived its abort), and a commit that landed after its
table's image and before the truncation was acknowledged and then lost.
"""

import threading

import pytest

from repro.storage import wal as wal_module
from repro.storage.database import Database

pytestmark = pytest.mark.crash

ROWS = 300


def _open(tmp_path):
    db = Database(str(tmp_path / "db"))
    table = db.create_table("t", [("k", "integer")])
    db.bulk_ingest("t", [{"k": k} for k in range(ROWS)])
    return db, table


def _keys(db):
    return sorted(row["k"] for row in db.table("t"))


def test_an_open_transaction_stays_out_of_the_image(tmp_path):
    db, table = _open(tmp_path)
    inserted, finish = threading.Event(), threading.Event()

    def bystander():
        txn = db.begin()
        table.insert({"k": -1})
        table.delete(table.select_eq("k", 0)[0].rowid)
        inserted.set()
        finish.wait(10.0)
        txn.abort()

    thread = threading.Thread(target=bystander)
    thread.start()
    assert inserted.wait(10.0)
    db.checkpoint()  # the bystander holds X on "t"; the image needs no lock
    finish.set()
    thread.join(10.0)
    assert not thread.is_alive()
    assert _keys(db) == list(range(ROWS))
    db.close()
    with Database(db.path) as reopened:
        assert _keys(reopened) == list(range(ROWS))


def test_a_commit_cannot_land_between_image_and_truncation(tmp_path):
    db, table = _open(tmp_path)
    publish = db._write_json_atomic
    writer = threading.Thread(target=table.insert, args=({"k": -7},))

    def publish_after_a_commit_tries(filename, obj):
        if filename == "roots.json":
            # Every table's image is written; the log is not truncated
            # yet.  The commit either lands now (and must survive the
            # truncation) or waits for the checkpoint to finish.
            writer.start()
            writer.join(0.3)
        publish(filename, obj)

    db._write_json_atomic = publish_after_a_commit_tries
    db.checkpoint()
    writer.join(10.0)
    assert not writer.is_alive()
    assert _keys(db) == [-7] + list(range(ROWS))
    db.close()
    with Database(db.path) as reopened:
        assert _keys(reopened) == [-7] + list(range(ROWS))


def test_checkpoint_does_not_wait_on_a_leader_parked_on_the_mutex(tmp_path):
    """A group-commit leader that claimed the flush and then lost the
    race for the append mutex to a checkpoint sits parked until the
    checkpoint lets go.  A ticket wait (``sync_to``) from inside the
    checkpoint's hold would wait for that leader for ever, so the hold
    fsyncs by itself -- and in passing makes the leader's commit
    durable."""
    db, table = _open(tmp_path)
    log = db._log
    roles = []

    def checkpointer():
        # An outer hold keeps the mutex away from the leader while it
        # parks; the checkpoint re-enters it and, at the last step
        # inside its own hold, drops the outer one.
        log._mutex.acquire()
        record = log.append(0, wal_module.CHECKPOINT)  # not yet durable
        leader = threading.Thread(
            target=lambda: roles.append(log.commit_flush(record.lsn))
        )
        leader.start()
        while not log._flush_leading:
            leader.join(0.001)
        truncate = log.truncate

        def truncate_and_drop_the_outer_hold():
            truncate()
            log._mutex.release()

        log.truncate = truncate_and_drop_the_outer_hold
        db.checkpoint()
        leader.join(10.0)

    thread = threading.Thread(target=checkpointer, daemon=True)
    thread.start()
    thread.join(20.0)
    assert not thread.is_alive(), "checkpoint waited on the parked leader"
    assert roles == ["led"]  # it led an fsync of the emptied log, harmlessly
    assert log.flushed_lsn == log.last_lsn
    db.close()
    with Database(db.path) as reopened:
        assert _keys(reopened) == list(range(ROWS))
