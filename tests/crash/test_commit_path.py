"""The commit path's invariant, and what stopped happening.

A transaction reaches the log once, whole, at commit: as one frame,
appended under the log's append mutex, which the fsync takes too.  So,
whatever the threads do,

* every commit -- a transaction's, a statement's, a bulk batch's -- is
  one frame in ``wal.log`` and an aborted transaction leaves none;
* ``flushed_lsn``, the last LSN of every ``stream_frames()`` batch and
  hence every pinned snapshot and seed LSN is a commit point (or the
  base LSN) -- never a frame inside a transaction;
* ``begin()``, an empty commit, an abort and a read through
  ``MdmSession.run`` append nothing and fsync nothing, on a healthy and
  on a degraded database.
"""

import os
import random
import sys
import threading

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.faults import FaultPlan
from repro.storage.transaction import TransactionState
from tests.stress.harness import NOTE_TABLE, build_mdm

pytestmark = pytest.mark.crash

def _commit_points(path):
    """The LSNs of *path*'s commit points: every non-``CHECKPOINT``
    frame."""
    with open(path, "rb") as handle:
        data = handle.read()
    points = set()
    offset = len(wal_module.LOG_HEADER)
    while offset < len(data):
        (lsn, kind, _), offset = wal_module._parse_frame(data, offset)
        if kind != wal_module.CHECKPOINT:
            points.add(lsn)
    return points


def _contiguity_run(tmp_path, seed, threads, ops):
    db = Database(str(tmp_path / "db"))
    tables = [
        db.create_table(name, [("k", "integer"), ("v", "integer")])
        for name in ("a", "b")
    ]
    log = db._log
    flushed_seen, batch_ends = {log.flushed_lsn}, []
    committed = [0] * threads
    errors = []
    stop = threading.Event()

    def sampler():
        next_lsn = log.base_lsn + 1
        while True:
            done = stop.is_set()  # one last round after the workers end
            flushed_seen.add(log.flushed_lsn)
            frames = log.stream_frames(next_lsn)
            if frames:
                batch_ends.append(frames[-1][0])
                next_lsn = frames[-1][0] + 1
            if done:
                return

    def worker(index):
        rng = random.Random(seed * 1000 + index)
        mine = []  # (table, rowid) this worker inserted and committed
        try:
            for op in range(ops):
                roll = rng.random()
                if roll < 0.55:
                    txn, fresh, gone = db.begin(), [], []
                    try:
                        for _ in range(rng.randint(1, 4)):
                            table = rng.choice(tables)
                            if mine and rng.random() < 0.4:
                                victim = mine.pop(rng.randrange(len(mine)))
                                gone.append(victim)
                                victim[0].delete(victim[1])
                            elif mine and rng.random() < 0.5:
                                owner, rowid = rng.choice(mine)
                                owner.update(rowid, {"v": op})
                            else:
                                row = table.insert({"k": index, "v": op})
                                fresh.append((table, row.rowid))
                        if rng.random() < 0.15:
                            raise DeadlockError("a client changing its mind")
                        txn.commit()
                        committed[index] += 1
                        mine.extend(fresh)
                    except (DeadlockError, LockTimeoutError):
                        txn.abort()  # wait-die victim: leaves no frame
                        mine.extend(gone)
                    continue
                # Statements, a commit each; one that dies in wait-die
                # does so in the guard, before it touched anything.
                table = rng.choice(tables)
                try:
                    if roll < 0.85:
                        with db.transactions.statement():
                            rows = [table.insert({"k": index, "v": op})]
                    else:
                        rows = db.bulk_ingest(
                            table.name, [{"k": index, "v": op}] * 3
                        )
                    committed[index] += 1
                    mine.extend((table, row.rowid) for row in rows)
                except (DeadlockError, LockTimeoutError):
                    pass
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    watcher = threading.Thread(target=sampler)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads mid-commit, often
    try:
        for thread in [watcher] + workers:
            thread.start()
        for thread in workers:
            thread.join(120.0)
        stop.set()
        watcher.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers + [watcher])
    assert not errors, errors
    state = {t.name: {r.rowid: r.as_dict() for r in t} for t in tables}
    base = log.base_lsn
    db.close()

    points = _commit_points(os.path.join(db.path, "wal.log"))
    # One frame per table's DDL commit and per commit, none per abort.
    assert len(points) == len(tables) + sum(committed) > len(tables)
    assert flushed_seen <= points | {base}, sorted(flushed_seen - points)
    assert set(batch_ends) <= points, sorted(set(batch_ends) - points)
    assert len(batch_ends) > 1
    with Database(db.path) as reopened:
        assert state == {
            name: {r.rowid: r.as_dict() for r in reopened.table(name)}
            for name in state
        }


@pytest.mark.props
@pytest.mark.parametrize("seed", range(3))
def test_transactions_are_contiguous_and_the_durable_prefix_ends_between_them(
    tmp_path, seed
):
    _contiguity_run(tmp_path, seed, threads=4, ops=25)


@pytest.mark.props
@pytest.mark.crash_slow
@pytest.mark.parametrize("seed", range(10, 14))
def test_contiguity_at_size(tmp_path, seed):
    """The size axis: more writers than the admission default, and
    enough commits that every thread both leads and rides flushes."""
    _contiguity_run(tmp_path, seed, threads=8, ops=150)


# -- what stopped happening ----------------------------------------------------


def _create_note(name):
    return lambda m: m.schema.entity_type("NOTE").create(name=name, pitch=60)


def _log_counters(mdm):
    metrics = mdm.database.metrics
    return tuple(
        metrics.value(name)
        for name in ("wal.appends", "wal.append_bytes", "wal.fsyncs")
    )


@pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
def test_begin_empty_commit_abort_and_read_write_nothing(tmp_path, degraded):
    plan = FaultPlan()
    mdm = build_mdm(path=str(tmp_path / "db"), opener=plan.opener)
    session = mdm.connect("reader", seed=1)
    session.run(_create_note(1))
    if degraded:
        plan.io_failing = True
        with pytest.raises(OSError):
            session.run(_create_note(2))
        assert mdm.database.degraded
    before = _log_counters(mdm)
    assert before[0] > 0

    txn = mdm.begin()
    assert _log_counters(mdm) == before
    txn.commit()  # empty write set: the commit is the lock release
    assert txn.state is TransactionState.COMMITTED
    mdm.begin().abort()
    rows = session.run(
        lambda m: m.retrieve("range of n is NOTE\nretrieve (n.name)")
    )
    assert [row["n.name"] for row in rows] == [1]
    assert _log_counters(mdm) == before
    mdm.close()


def test_abort_on_a_dead_disk_succeeds(tmp_path):
    """An abort touches no file: with the disk gone it still undoes,
    releases its locks and leaves the database healthy -- no
    ``abandon``, no degraded flip for a transaction that wrote nothing
    durable."""
    plan = FaultPlan()
    mdm = build_mdm(path=str(tmp_path / "db"), opener=plan.opener)
    table = mdm.database.table(NOTE_TABLE)
    txn = mdm.begin()
    mdm.schema.entity_type("NOTE").create(name=5, pitch=60)
    assert len(table) == 1
    plan.io_failing = True
    txn.abort()
    assert txn.state is TransactionState.ABORTED
    assert len(table) == 0
    assert not mdm.database.degraded
    assert not mdm.database.transactions.lock_manager.locks_held(txn.txn_id)
    # A transaction can begin, read and commit on the dead disk.
    other = mdm.begin()
    assert len(mdm.database.read_table(NOTE_TABLE)) == 0
    other.commit()
    mdm.close()


def test_a_commit_asks_only_the_tables_it_names_for_their_columns(
    tmp_path, monkeypatch
):
    """The log encodes a commit's rows by their tables' schemas; it once
    took the column order of every table in the database (61 on the CMN
    schema) for every commit."""
    db = Database(str(tmp_path / "db"))
    tables = [db.create_table("t%d" % i, [("v", "integer")]) for i in range(8)]
    asked = []
    append_batch = wal_module.WriteAheadLog.append_batch
    monkeypatch.setattr(
        wal_module.WriteAheadLog, "append_batch",
        lambda log, changes, schemas, request: (
            asked.extend(schemas) or append_batch(log, changes, schemas, request)
        ),
    )
    tables[0].insert({"v": 1})  # auto-commit, one frame
    assert set(asked) == {"t0"}
    del asked[:]
    with db.begin():
        tables[1].insert({"v": 1})
        tables[2].insert({"v": 2})
        tables[1].update(1, {"v": 3})
    assert set(asked) == {"t1", "t2"}
    del asked[:]
    db.bulk_ingest("t3", [{"v": i} for i in range(5)])
    assert set(asked) == {"t3"}
    monkeypatch.undo()
    db.close()
    reopened = Database(str(tmp_path / "db"))
    assert [len(reopened.table("t%d" % i)) for i in range(4)] == [1, 1, 1, 5]
    reopened.close()
