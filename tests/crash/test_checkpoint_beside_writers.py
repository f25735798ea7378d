"""``checkpoint()`` beside other threads' transactions.

One short hold of the log's append mutex seals the live segment and
pins the image's snapshot at the LSN it made durable; the image is
written after the hold.  Deterministic here: an open transaction's rows
stay out of the image (they once survived its abort), a commit issued
while the image is written is acknowledged then and survives a reopen,
and the hold never waits on a group-commit leader parked on the mutex.
"""

import contextlib
import threading

import pytest

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


def test_a_commit_lands_while_the_image_is_written(tmp_path):
    """The image is written outside the append mutex: a writer started
    while it is published is acknowledged before the publication ends,
    into the new live segment, and a reopen holds its row."""
    db, table = _open(tmp_path)
    publish = db._write_atomic
    writer = threading.Thread(target=table.insert, args=({"k": -7},))
    finished_in_hook = []

    def publish_beside_a_commit(filename, pieces):
        if filename == "image.mdm":
            writer.start()
            writer.join(10.0)
            finished_in_hook.append(not writer.is_alive())
        return publish(filename, pieces)

    db._write_atomic = publish_beside_a_commit
    db.checkpoint()
    writer.join(10.0)
    assert finished_in_hook == [True]
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
        lsn = log.append()  # a CHECKPOINT marker, not yet durable
        leader = threading.Thread(
            target=lambda: roles.append(log.commit_flush(lsn))
        )
        leader.start()
        while not log._flush_leading:
            leader.join(0.001)
        rolled = log.rolled

        @contextlib.contextmanager
        def rolled_and_drop_the_outer_hold():
            with rolled() as lsn:
                log._mutex.release()
                yield lsn

        log.rolled = rolled_and_drop_the_outer_hold
        db.checkpoint()
        leader.join(10.0)

    thread = threading.Thread(target=checkpointer, daemon=True)
    thread.start()
    thread.join(20.0)
    assert not thread.is_alive(), "checkpoint waited on the parked leader"
    assert roles == ["led"]  # it led an fsync of the new segment, harmlessly
    assert log.flushed_lsn == log.last_lsn
    db.close()
    with Database(db.path) as reopened:
        assert _keys(reopened) == list(range(ROWS))
