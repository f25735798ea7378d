"""Group commit, coalesced auto-commit, and truncation durability.

The slow-fsync opener stretches every durability barrier so concurrent
committers provably pile up behind the in-flight flush — the schedule
group commit exists for — without depending on scheduler luck.
"""

import os
import threading
import time

import pytest

from repro.errors import ReadOnlyError
from repro.obs.metrics import MetricsRegistry
from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.wal import WriteAheadLog


class _SlowFsyncFile:
    """A real binary file whose fsync dawdles before hitting the disk."""

    def __init__(self, handle, delay):
        self._handle = handle
        self._delay = delay

    def fsync(self):
        self._handle.flush()
        time.sleep(self._delay)
        os.fsync(self._handle.fileno())

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False


def slow_opener(delay):
    def _open(path, mode="rb"):
        return _SlowFsyncFile(open(path, mode), delay)
    return _open


class TestGroupCommit:
    def test_concurrent_commits_share_fsyncs(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            str(tmp_path / "g.wal"), opener=slow_opener(0.02),
            metrics=registry,
        )
        commits = 8
        barrier = threading.Barrier(commits)
        roles = []

        def commit_one(txn_id):
            # Append, *then* meet: the leader fsyncs holding the append
            # mutex, so a thread still appending when the first leader
            # takes it can only lead a round of its own -- and whether
            # any commit rides would be the scheduler's call.  With all
            # eight frames in before anyone flushes, the first arrival
            # leads for everyone.
            record = wal.append(txn_id, wal_module.COMMIT)
            barrier.wait()
            roles.append(wal.commit_flush(record.lsn))

        threads = [
            threading.Thread(target=commit_one, args=(txn_id,))
            for txn_id in range(1, commits + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wal.close()

        assert len(roles) == commits
        leaders = registry.value("wal.group_commits")
        assert 0 < leaders < commits
        assert registry.value("wal.group_commit_riders") >= 1
        assert registry.value("wal.commits_synced") == commits
        assert registry.value("wal.commits_per_fsync") > 1.0
        waits = registry.get("wal.flush_wait_seconds")
        assert waits is not None and waits.count >= 1
        # Every commit was durable when acknowledged.
        assert wal.flushed_lsn >= max(
            1, commits
        )

    def test_sequential_commits_lead_every_flush(self, tmp_path):
        registry = MetricsRegistry()
        with WriteAheadLog(str(tmp_path / "s.wal"), metrics=registry) as wal:
            for txn_id in range(1, 6):
                record = wal.append(txn_id, wal_module.COMMIT)
                assert wal.commit_flush(record.lsn) == "led"
        assert registry.value("wal.group_commits") == 5
        assert registry.value("wal.group_commit_riders") == 0
        assert registry.value("wal.commits_per_fsync") == 1.0

    def test_sync_to_is_noop_when_already_durable(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "n.wal")) as wal:
            record = wal.append(1, wal_module.COMMIT, flush=True)
            assert wal.sync_to(record.lsn) == "noop"

    def test_expired_deadline_still_flushes(self, tmp_path):
        """A deadline in the past shortens the wait, never the fsync."""
        with WriteAheadLog(str(tmp_path / "d.wal")) as wal:
            record = wal.append(1, wal_module.COMMIT)
            role = wal.commit_flush(record.lsn, deadline=time.monotonic() - 1.0)
            assert role == "led"
            assert wal.flushed_lsn >= record.lsn


class TestTruncationDurability:
    def test_truncate_fsyncs_emptied_log(self, tmp_path):
        registry = MetricsRegistry()
        with WriteAheadLog(str(tmp_path / "t.wal"), metrics=registry) as wal:
            wal.append(1, wal_module.BEGIN)
            wal.append(1, wal_module.COMMIT, flush=True)
            before = registry.value("wal.fsyncs")
            wal.truncate()
            # One barrier for the base-LSN sidecar, one for the emptied
            # log file itself.
            assert registry.value("wal.fsyncs") >= before + 2
            assert registry.value("wal.truncations") == 1

    def test_truncate_syncs_are_plan_syncpoints(self, tmp_path):
        """The crash oracle sees truncation's new barriers as schedule
        points, so crash-at-truncate is an enumerable state."""
        plan = FaultPlan(seed=3)
        with WriteAheadLog(str(tmp_path / "p.wal"), opener=plan.opener) as wal:
            wal.append(1, wal_module.COMMIT, flush=True)
            before = plan.sync_count
            wal.truncate()
            assert plan.sync_count >= before + 2

    def test_lsns_monotone_across_truncate(self, tmp_path):
        path = str(tmp_path / "m.wal")
        with WriteAheadLog(path) as wal:
            for txn_id in range(1, 5):
                wal.append(txn_id, wal_module.COMMIT)
            high = wal.last_lsn
            wal.truncate()
            record = wal.append(9, wal_module.CHECKPOINT, flush=True)
            assert record.lsn == high + 1
        # Continuity also survives close/reopen after the truncation.
        with WriteAheadLog(path) as wal:
            assert wal.append(10, wal_module.BEGIN).lsn == high + 2

    def test_lsns_monotone_when_truncated_log_reopens_empty(self, tmp_path):
        """Regression: an empty post-checkpoint log must not restart
        LSN assignment at 1."""
        path = str(tmp_path / "e.wal")
        with WriteAheadLog(path) as wal:
            for txn_id in range(1, 8):
                wal.append(txn_id, wal_module.COMMIT)
            high = wal.last_lsn
            wal.truncate()
        with WriteAheadLog(path) as wal:
            assert wal.append(1, wal_module.BEGIN).lsn == high + 1

    def test_unreadable_sidecar_falls_back_to_scan(self, tmp_path):
        path = str(tmp_path / "b.wal")
        with WriteAheadLog(path) as wal:
            wal.append(1, wal_module.COMMIT, flush=True)
        with open(path + ".base", "wb") as handle:
            handle.write(b"not a number")
        with WriteAheadLog(path) as wal:
            assert wal.append(2, wal_module.BEGIN).lsn == 2


class TestAutoCommitPath:
    def test_auto_commit_writes_one_frame(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            table = database.create_table("t", [("k", "integer")])
            before = database.metrics.value("wal.appends")
            table.insert({"k": 1})
            assert database.metrics.value("wal.appends") == before + 1
        finally:
            database.close()
        reopened = Database(str(tmp_path / "db"))
        try:
            assert len(reopened.table("t")) == 1
        finally:
            reopened.close()

    def test_auto_commit_update_and_delete_replay(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            table = database.create_table("t", [("k", "integer")])
            a = table.insert({"k": 1})
            b = table.insert({"k": 2})
            table.update(a.rowid, {"k": 10})
            table.delete(b.rowid)
        finally:
            database.close()
        reopened = Database(str(tmp_path / "db"))
        try:
            rows = list(reopened.table("t"))
            assert len(rows) == 1 and rows[0]["k"] == 10
        finally:
            reopened.close()

    def test_journal_undoes_on_non_io_error(self, tmp_path, monkeypatch):
        """Regression: a non-I/O failure mid-journal (a value that will
        not serialize, say) must roll the table back — the mutation has
        no durable frame — without degrading the database."""
        database = Database(str(tmp_path / "db"))
        try:
            table = database.create_table("t", [("k", "integer")])
            table.insert({"k": 1})
            log = database.transactions._log

            def explode(*args, **kwargs):
                raise ValueError("unserializable value")

            monkeypatch.setattr(log, "append", explode)
            with pytest.raises(ValueError):
                table.insert({"k": 2})
            monkeypatch.undo()
            assert len(table) == 1
            assert not database.degraded
            # The database is still fully writable afterwards.
            table.insert({"k": 3})
            assert len(table) == 2
        finally:
            database.close()

    def test_journal_degrades_on_io_error(self, tmp_path):
        plan = FaultPlan(seed=1, io_error_at_sync=2)
        database = Database(str(tmp_path / "db"), opener=plan.opener)
        table = database.create_table("t", [("k", "integer")])
        with pytest.raises(OSError):
            table.insert({"k": 1})
        assert len(table) == 0
        assert database.degraded
        with pytest.raises(ReadOnlyError):
            table.insert({"k": 2})

    def test_journal_leaves_tables_alone_on_simulated_crash(self, tmp_path):
        """The crash oracle reads the torn in-memory state as its
        candidate: a SimulatedCrash must not trigger the undo."""
        plan = FaultPlan(seed=2, crash_at_sync=2)
        database = Database(str(tmp_path / "db"), opener=plan.opener)
        table = database.create_table("t", [("k", "integer")])
        with pytest.raises(SimulatedCrash):
            table.insert({"k": 1})
        assert len(table) == 1
