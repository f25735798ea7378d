"""Group commit, coalesced auto-commit, and segment roll durability.

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

        def commit_one():
            # Append, *then* meet: the leader fsyncs holding the append
            # mutex, so a thread still appending when the first leader
            # takes it can only lead a round of its own -- and whether
            # any commit rides would be the scheduler's call.  With all
            # eight frames in before anyone flushes, the first arrival
            # leads for everyone.
            lsn = wal.append_batch([], {})
            barrier.wait()
            roles.append(wal.commit_flush(lsn))

        threads = [threading.Thread(target=commit_one) for _ in range(commits)]
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
            for _ in range(5):
                lsn = wal.append_batch([], {})
                assert wal.commit_flush(lsn) == "led"
        assert registry.value("wal.group_commits") == 5
        assert registry.value("wal.group_commit_riders") == 0
        assert registry.value("wal.commits_per_fsync") == 1.0

    def test_sync_to_is_noop_when_already_durable(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "n.wal")) as wal:
            lsn = wal.append_batch([], {})
            wal.flush()
            assert wal.sync_to(lsn) == "noop"

    def test_expired_deadline_still_flushes(self, tmp_path):
        """A deadline in the past shortens the wait, never the fsync."""
        with WriteAheadLog(str(tmp_path / "d.wal")) as wal:
            lsn = wal.append_batch([], {})
            role = wal.commit_flush(lsn, deadline=time.monotonic() - 1.0)
            assert role == "led"
            assert wal.flushed_lsn >= lsn


class TestRollDurability:
    def test_a_roll_fsyncs_the_new_segment_header(self, tmp_path, monkeypatch):
        registry = MetricsRegistry()
        path = str(tmp_path / "t.wal")
        directories = []
        monkeypatch.setattr(wal_module, "fsync_directory", directories.append)
        with WriteAheadLog(path, metrics=registry) as wal:
            lsn = wal.append_batch([], {})
            wal.flush()
            before = registry.value("wal.fsyncs")
            with wal.rolled() as rolled:
                # The log's own fsync, then the new segment's header and
                # its directory entry, before any commit can land in it.
                assert registry.value("wal.fsyncs") == before + 2
                assert directories == [str(tmp_path)]
                assert registry.value("wal.rolls") == 1
            assert rolled == lsn
            with open(path, "rb") as handle:
                assert handle.read() == wal_module.LOG_HEADER
            assert os.path.exists("%s.%020d" % (path, lsn))

    def test_roll_syncs_are_plan_syncpoints(self, tmp_path):
        """The crash oracle sees the roll's barriers as schedule points,
        so a crash at the new segment's header is an enumerable state."""
        plan = FaultPlan(seed=3)
        with WriteAheadLog(str(tmp_path / "p.wal"), opener=plan.opener) as wal:
            wal.append_batch([], {})
            wal.flush()
            before = plan.sync_count
            with wal.rolled():
                assert plan.sync_count == before + 2

    def test_lsns_monotone_across_a_roll(self, tmp_path):
        path = str(tmp_path / "m.wal")
        with WriteAheadLog(path) as wal:
            for _ in range(4):
                wal.append_batch([], {})
            high = wal.last_lsn
            with wal.rolled() as lsn:
                assert lsn == high
            assert wal.append(flush=True) == high + 1
        # Continuity also survives close/reopen after the roll.
        with WriteAheadLog(path) as wal:
            assert wal.append_batch([], {}) == high + 2

    def test_lsns_monotone_when_an_empty_live_segment_reopens(self, tmp_path):
        """Regression: an empty post-checkpoint log must not restart
        LSN assignment at 1; the base it is opened with is where the
        image left off."""
        path = str(tmp_path / "e.wal")
        with WriteAheadLog(path) as wal:
            for _ in range(7):
                wal.append_batch([], {})
            high = wal.last_lsn
            with wal.rolled():
                pass
            wal.drop_through(high)  # as a checkpoint does, its image durable
        assert sorted(os.listdir(tmp_path)) == ["e.wal"]
        with WriteAheadLog(path, base_lsn=high) as wal:
            assert wal.last_lsn == wal.base_lsn == high
            assert wal.append_batch([], {}) == high + 1

    def test_lsns_continue_past_the_image_over_a_log_of_only_its_header(
        self, tmp_path
    ):
        """Regression: a checkpoint whose ``CHECKPOINT`` frame never
        reached the disk leaves a log of only its header.  LSNs once
        restarted at 1 there, and the next open's redo skipped the
        acknowledged commit that followed as one the image held."""
        path = str(tmp_path / "db")
        db = Database(path)
        table = db.create_table("t", [("k", "integer")])
        for k in range(5):
            table.insert({"k": k})
        db.checkpoint()
        image_lsn = db._log.base_lsn
        db.close()
        with open(os.path.join(path, "wal.log"), "wb") as handle:
            handle.write(wal_module.LOG_HEADER)
        assert sorted(os.listdir(path)) == ["image.mdm", "wal.log"]
        db = Database(path)
        db.table("t").insert({"k": 99})
        assert db._log.last_lsn > image_lsn
        db.close()
        with Database(path) as db:
            assert sorted(row["k"] for row in db.table("t")) == [0, 1, 2, 3, 4, 99]
            assert db._log.base_lsn == image_lsn < db._log.last_lsn


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

            monkeypatch.setattr(log, "append_batch", explode)
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
