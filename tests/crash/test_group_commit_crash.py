"""Crash schedules for the group-commit write path.

Two shapes beyond the oracle's workload, run and crashed by its drivers
(``tests/crash/oracle.py``: ``probe``, then ``crash`` at each barrier):

* **bulk ingest**: each batch is one commit, one frame, so recovery after a crash at any barrier must produce a
  whole-batch prefix of the load — never a partial batch;
* **concurrent commits through one leader**: several threads
  auto-commit while sharing flushes; a crash during the leader's fsync
  (followers still parked on the flush ticket) must recover a state
  where every *acknowledged* insert survived and every recovered
  insert was at least attempted.
"""

import threading

import pytest

from repro.storage.database import Database
from repro.storage.faults import SimulatedCrash

from tests.crash.oracle import crash, probe

COLUMNS = [("k", "integer"), ("v", "string")]


def prepare_plain(db_dir, tables=("bulk",)):
    """DDL with real files so crash schedules cover only data ops."""
    db = Database(db_dir)
    for name in tables:
        db.create_table(name, COLUMNS)
    db.close()


def ingest_rows(total):
    return [{"k": i, "v": "v%d" % i} for i in range(total)]


def bulk_run(total, batch_rows):
    """One ``bulk_ingest`` call a batch; returns the keys acknowledged."""
    def run(directory, plan):
        prepare_plain(directory)
        db = Database(directory, opener=plan.opener)
        acknowledged = []
        try:
            for start in range(0, total, batch_rows):
                db.bulk_ingest(
                    "bulk", ingest_rows(total)[start:start + batch_rows]
                )
                acknowledged.extend(range(start, start + batch_rows))
        except SimulatedCrash:
            pass
        db.close()
        return acknowledged
    return run


@pytest.mark.crash
@pytest.mark.parametrize("seed", range(4))
def test_bulk_ingest_recovers_whole_batches(tmp_path, seed):
    total, batch_rows = 50, 10
    run = bulk_run(total, batch_rows)
    syncpoints = probe(tmp_path / "probe", run, seed)[0].sync_count
    assert syncpoints >= total // batch_rows
    for sync_index in range(1, syncpoints + 1):
        crash_dir = str(tmp_path / ("crash-%d" % sync_index))
        plan, acknowledged = crash(crash_dir, run, seed, sync_index)
        assert plan.crashed
        recovered = Database(crash_dir)
        try:
            keys = sorted(r["k"] for r in recovered.table("bulk"))
        finally:
            recovered.close()
        # All-or-nothing per batch: a whole-batch prefix of the load,
        # covering at least everything acknowledged before the crash.
        assert len(keys) % batch_rows == 0, (
            "seed %d sync %d: partial batch recovered (%d rows)"
            % (seed, sync_index, len(keys))
        )
        assert keys == list(range(len(keys)))
        assert len(keys) >= len(acknowledged)


@pytest.mark.crash
@pytest.mark.parametrize("seed", range(4))
def test_concurrent_commit_crash_preserves_acknowledged(tmp_path, seed):
    """Crash between the leader's fsync and its followers' wakeup.

    With several threads committing through one leader, crash_at_sync
    lands mid-group-flush: the leader dies inside fsync, followers are
    woken onto a dead plan and die trying to lead.  Recovery must honor
    exactly the acknowledged-⊆-recovered-⊆-attempted contract, per
    thread."""
    thread_count, per_thread = 4, 6
    tables = tuple("w%d" % i for i in range(thread_count))

    def run(directory, plan):
        prepare_plain(directory, tables)
        db = Database(directory, opener=plan.opener)
        outcome = commit_concurrently(db, tables, per_thread)
        db.close()
        return outcome

    syncpoints = probe(tmp_path / "probe", run, seed)[0].sync_count
    assert syncpoints >= 1
    for sync_index in range(1, syncpoints + 1):
        crash_dir = str(tmp_path / ("crash-%d" % sync_index))
        _, (acknowledged, attempted) = crash(crash_dir, run, seed, sync_index)
        recovered = Database(crash_dir)
        try:
            for table in tables:
                got = set(r["k"] for r in recovered.table(table))
                acked = acknowledged[table]
                tried = attempted[table]
                assert acked <= got, (
                    "seed %d sync %d table %s: acknowledged %s lost (got %s)"
                    % (seed, sync_index, table, sorted(acked - got), sorted(got))
                )
                assert got <= tried, (
                    "seed %d sync %d table %s: phantom rows %s"
                    % (seed, sync_index, table, sorted(got - tried))
                )
        finally:
            recovered.close()


def commit_concurrently(db, tables, per_thread):
    """N threads auto-commit inserts into their own tables; returns
    per-table acknowledged and attempted key sets."""
    acknowledged = {table: set() for table in tables}
    attempted = {table: set() for table in tables}
    barrier = threading.Barrier(len(tables))

    def hammer(table_name):
        table = db.table(table_name)
        barrier.wait()
        for k in range(per_thread):
            attempted[table_name].add(k)
            try:
                table.insert({"k": k, "v": "t%s-%d" % (table_name, k)})
            except BaseException:
                return  # crashed (or degraded): stop this thread
            acknowledged[table_name].add(k)

    threads = [
        threading.Thread(target=hammer, args=(table,)) for table in tables
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return acknowledged, attempted
