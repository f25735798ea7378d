"""A commit that was reported failed stays failed.

When a write or an fsync of a commit raises ``OSError`` the client is
told so, memory is rolled back and the database degrades -- but the
frame may already sit in ``wal.log``.  The log remembers the byte its
last successful fsync covered, refuses everything after the first
failure (so no later fsync can make a failed neighbour durable while
acknowledging a rider), and ``exit_degraded()`` cuts the file back to
that byte before writes resume.  After it, what the live database
serves is what a reopen recovers.
"""

import os
import threading
import time

import pytest

from repro.errors import ReadOnlyError
from repro.storage.database import Database
from repro.storage.faults import FaultPlan

pytestmark = pytest.mark.crash


def _in_a_transaction(db, k):
    with db.begin():
        db.table("t").insert({"k": k})
        db.table("t").insert({"k": k})


WRITERS = {
    # name -> (a commit of rows keyed k, the log writes it makes: one
    # frame, whatever wrote it)
    "transaction": (_in_a_transaction, 1),
    "auto-commit": (lambda db, k: db.table("t").insert({"k": k}), 1),
    "bulk batch": (lambda db, k: db.bulk_ingest("t", [{"k": k}] * 3), 1),
}


def _open(path, **options):
    db = Database(path, **options)
    if not db.has_table("t"):
        db.create_table("t", [("k", "integer")])
    return db


def _keys(db):
    return sorted({row["k"] for row in db.table("t")})


def _fail_then_repair(tmp_path, writer, arm):
    """Commit 1; *arm* the plan; the commit of 2 fails; repair; commit
    4.  Returns ``(live keys, reopened keys)``."""
    write, _ = WRITERS[writer]
    path = str(tmp_path / "db")
    plan = FaultPlan()
    db = _open(path, opener=plan.opener)
    write(db, 1)
    arm(plan)
    with pytest.raises(OSError):
        write(db, 2)
    assert db.degraded
    assert _keys(db) == [1]  # rolled back in memory
    with pytest.raises(ReadOnlyError):
        write(db, 3)

    plan.io_error_at_write = plan.io_error_at_sync = None
    plan.heal_io()
    db.exit_degraded()
    write(db, 4)
    live = _keys(db)
    db.close()
    with _open(path) as reopened:
        return live, _keys(reopened)


@pytest.mark.parametrize(
    "writer, nth_write",
    [
        (writer, nth)
        for writer, (_, writes) in sorted(WRITERS.items())
        for nth in range(1, writes + 1)
    ],
)
def test_commit_whose_log_write_failed_does_not_come_back(
    tmp_path, writer, nth_write
):
    """At every log write of the commit -- the last one is the commit
    point itself, whose bytes reach the file before the error does."""
    def arm(plan):
        plan.io_error_at_write = plan.write_count + nth_write

    live, reopened = _fail_then_repair(tmp_path, writer, arm)
    assert live == reopened == [1, 4]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_commit_whose_fsync_failed_does_not_come_back(tmp_path, writer):
    def arm(plan):
        plan.io_error_at_sync = plan.sync_count + 1

    live, reopened = _fail_then_repair(tmp_path, writer, arm)
    assert live == reopened == [1, 4]


def test_the_matrix_reaches_every_log_write(tmp_path):
    """``WRITERS`` states how many log writes each commit makes; were
    it to fall short, the matrix above would stop before the commit
    point without anything failing."""
    plan = FaultPlan()
    db = _open(str(tmp_path / "db"), opener=plan.opener)
    for name, (write, writes) in sorted(WRITERS.items()):
        before = plan.write_count
        write(db, 9)
        assert plan.write_count - before == writes, name
    db.close()


def test_exit_degraded_stays_degraded_while_the_disk_refuses_the_cut(tmp_path):
    plan = FaultPlan()
    db = _open(str(tmp_path / "db"), opener=plan.opener)
    _in_a_transaction(db, 1)
    plan.io_failing = True
    with pytest.raises(OSError):
        _in_a_transaction(db, 2)
    with pytest.raises(OSError):
        db.exit_degraded()  # the disk is still dead
    assert db.degraded
    with pytest.raises(ReadOnlyError):
        _in_a_transaction(db, 3)
    plan.heal_io()
    db.exit_degraded()
    assert not db.degraded
    _in_a_transaction(db, 4)
    assert _keys(db) == [1, 4]
    db.close()


class _FlakyFsyncFile:
    """A real file whose next fsync, once *box* is armed, dawdles and
    then fails -- once.  The disk is fine again straight away: the case
    where a retry by the next leader would succeed."""

    def __init__(self, handle, box):
        self._handle = handle
        self._box = box

    def fsync(self):
        self._handle.flush()
        if self._box.pop("armed", False):
            time.sleep(0.05)  # let the other committer queue up behind us
            raise OSError("injected one-off fsync failure")
        os.fsync(self._handle.fileno())

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False


def test_a_rider_is_not_acknowledged_past_a_failed_leader(tmp_path):
    """Two commits are appended, one leads the fsync and it fails.  A
    second fsync would succeed -- and would make the leader's frame,
    reported failed, as durable as the rider's.  So the rider fails
    too, and the cut removes both."""
    box = {}
    path = str(tmp_path / "db")
    db = Database(
        path, opener=lambda p, mode="rb": _FlakyFsyncFile(open(p, mode), box)
    )
    tables = [db.create_table(name, [("k", "integer")]) for name in "ab"]
    for table in tables:
        table.insert({"k": 1})
    # Both frames are in the log before either thread asks for a flush.
    appended = threading.Barrier(2)
    commit_flush = db._log.commit_flush

    def flush_together(lsn, deadline=None):
        appended.wait(10.0)
        return commit_flush(lsn, deadline=deadline)

    db._log.commit_flush = flush_together
    outcomes = {}

    def commit(table):
        try:
            table.insert({"k": 2})
            outcomes[table.name] = "acknowledged"
        except OSError:
            outcomes[table.name] = "failed"

    box["armed"] = True
    threads = [threading.Thread(target=commit, args=(t,)) for t in tables]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)
    del db._log.commit_flush
    assert outcomes == {"a": "failed", "b": "failed"}
    assert db.degraded

    db.exit_degraded()
    tables[0].insert({"k": 4})
    live = {t.name: sorted(row["k"] for row in t) for t in tables}
    assert live == {"a": [1, 4], "b": [1]}
    db.close()
    with Database(path) as reopened:
        assert live == {
            t.name: sorted(row["k"] for row in reopened.table(t.name))
            for t in tables
        }


DEFINES = {
    "entity": lambda s: s.define_entity("B", [("y", "string")]),
    "ordering": lambda s: s.define_ordering("a_under_a", ["A"], under="A"),
    "relationship": lambda s: s.define_relationship(
        "R", [("left", "A"), ("right", "A")], [("w", "integer")]
    ),
    "add_attribute": lambda s: s.entity_type("A").add_attribute(("y", "string")),
}


def _schema_state(schema):
    database = schema.database
    return (
        schema.definitions(),
        {name: database.table(name).schema.column_names()
         for name in database.table_names()},
        schema.instance_count(),
    )


@pytest.mark.parametrize("define", sorted(DEFINES))
def test_a_define_whose_commit_failed_leaves_nothing_behind(tmp_path, define):
    """Its catalog rows, meta rows, table and type go together: the
    failed fsync leaves the schema, the tables and their shapes as they
    were, live and reopened, and the same define then succeeds."""
    from repro.core.schema import Schema

    path = str(tmp_path / "db")
    plan = FaultPlan()
    schema = Schema("s", database=Database(path, opener=plan.opener))
    schema.define_entity("A", [("x", "integer")])
    schema.entity_type("A").create(x=1)
    before = _schema_state(schema)
    plan.io_error_at_sync = plan.sync_count + 1
    with pytest.raises(OSError):
        DEFINES[define](schema)
    assert _schema_state(schema) == before
    plan.io_error_at_sync = None
    plan.heal_io()
    schema.database.exit_degraded()
    DEFINES[define](schema)
    after = _schema_state(schema)
    assert after != before
    schema.database.close()
    reopened = Database(path)
    try:
        assert _schema_state(Schema("s", database=reopened)) == after
    finally:
        reopened.close()
