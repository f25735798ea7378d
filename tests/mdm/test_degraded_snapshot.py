"""Degraded mode serves snapshot reads without touching the lock manager.

Regression battery for the PR's bug fix: a database in read-only
degraded mode used to route ``retrieve`` through the normal
statement-lock path — pointless (nothing can write) and fragile (a
lock row abandoned by the failing writer could block every reader).
Now :meth:`QuelSession._with_statement_locks` detects degraded mode and
serves every retrieve from a pinned snapshot: zero lock-manager calls,
``snapshot scan`` plans, and writes still refused.
"""

import pytest

from repro.errors import QueryError, ReadOnlyError
from repro.mdm.manager import MusicDataManager
from repro.storage.lock import LockMode


def _mdm_with_notes(count=5):
    mdm = MusicDataManager(with_cmn=False)
    mdm.schema.define_entity(
        "NOTE", [("name", "integer"), ("pitch", "integer")]
    )
    for i in range(count):
        mdm.schema.entity_type("NOTE").create(name=i, pitch=60 + i)
    mdm.session.execute("range of n is NOTE")
    return mdm


def _count_lock_calls(mdm, fn):
    """Run *fn* with ``locks.acquire`` wrapped; returns (result, calls)."""
    locks = mdm.database.transactions.lock_manager
    original = locks.acquire
    calls = []

    def counting(owner, resource, mode, deadline=None):
        calls.append((owner, resource, mode))
        return original(owner, resource, mode, deadline=deadline)

    locks.acquire = counting
    try:
        return fn(), len(calls)
    finally:
        locks.acquire = original


class TestDegradedSnapshotReads:
    def test_retrieve_serves_rows_without_lock_manager(self):
        mdm = _mdm_with_notes()
        mdm.database.enter_degraded(OSError("disk gone"))
        rows, lock_calls = _count_lock_calls(
            mdm, lambda: mdm.session.execute("retrieve (n.name, n.pitch)")
        )
        assert [row["n.name"] for row in rows] == [0, 1, 2, 3, 4]
        assert lock_calls == 0
        assert "snapshot scan" in mdm.session.last_plan

    def test_retrieve_ignores_stale_exclusive_lock(self):
        """The original failure: the writer that broke the disk died
        holding an X lock; degraded reads must not queue behind it."""
        mdm = _mdm_with_notes()
        locks = mdm.database.transactions.lock_manager
        locks.acquire(10**9, "entity:NOTE", LockMode.EXCLUSIVE)
        try:
            mdm.database.enter_degraded(OSError("disk gone"))
            rows = mdm.session.execute("retrieve (n.pitch) where n.name = 2")
            assert [row["n.pitch"] for row in rows] == [62]
        finally:
            locks.release_all(10**9)

    def test_qualified_retrieve_matches_locked_path_results(self):
        mdm = _mdm_with_notes(8)
        expected = mdm.session.execute("retrieve (n.name) where n.pitch > 63")
        mdm.database.enter_degraded(OSError("disk gone"))
        degraded = mdm.session.execute("retrieve (n.name) where n.pitch > 63")
        assert [r["n.name"] for r in degraded] == [r["n.name"] for r in expected]

    def test_read_only_session_run_works_degraded(self):
        mdm = _mdm_with_notes()
        mdm.database.enter_degraded(OSError("disk gone"))
        session = mdm.connect("analyst", seed=1)

        def scan(m):
            return sorted(
                row["pitch"] for row in m.database.table("entity:NOTE")
            )

        assert session.run(scan, read_only=True) == [60, 61, 62, 63, 64]
        assert mdm.statistics()["snapshot_reads"] == 1

    def test_writes_still_refused(self):
        mdm = _mdm_with_notes()
        mdm.database.enter_degraded(OSError("disk gone"))
        with pytest.raises(ReadOnlyError):
            mdm.schema.entity_type("NOTE").create(name=99, pitch=0)
        with pytest.raises((QueryError, ReadOnlyError)):
            mdm.session.execute('append to NOTE (name = 99, pitch = 0)')

    def test_exit_degraded_restores_locked_reads(self):
        mdm = _mdm_with_notes()
        mdm.database.enter_degraded(OSError("disk gone"))
        mdm.session.execute("retrieve (n.name)")
        assert "snapshot scan" in mdm.session.last_plan
        mdm.database.exit_degraded()
        _, lock_calls = _count_lock_calls(
            mdm, lambda: mdm.session.execute("retrieve (n.name)")
        )
        assert lock_calls > 0
        assert "snapshot scan" not in mdm.session.last_plan
        mdm.schema.entity_type("NOTE").create(name=5, pitch=65)

    def test_degraded_read_inside_open_transaction_keeps_locking(self):
        """A transaction already holding locks must not silently switch
        to snapshot reads mid-flight: its own uncommitted writes would
        vanish from its view.  Degraded snapshot mode applies only
        outside transactions."""
        mdm = _mdm_with_notes()
        txn = mdm.begin()
        try:
            mdm.session.execute("retrieve (n.name)")
            before = mdm.session.last_plan
            assert "snapshot scan" not in before
        finally:
            txn.abort()
