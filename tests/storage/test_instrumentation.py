"""Storage-layer metrics: every durability component publishes to the
database's registry, so ``\\metrics`` shows the whole stack."""

import threading
import time

from repro.obs.metrics import MetricsRegistry
from repro.storage.database import Database
from repro.storage.lock import LockManager, LockMode
from repro.storage.wal import WriteAheadLog


class TestDatabaseRegistry:
    def test_in_memory_database_has_a_registry(self):
        database = Database()
        assert database.metrics.value("table.inserts") == 0
        table = database.create_table("t", [("k", "integer")])
        assert database.metrics.value("table.inserts") == 1  # its catalog row
        table.insert({"k": 1})
        table.insert({"k": 2})
        assert database.metrics.value("table.inserts") == 3

    def test_shared_registry_can_be_injected(self):
        registry = MetricsRegistry()
        database = Database(metrics=registry)
        assert database.metrics is registry

    def test_durable_stack_publishes_to_one_registry(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            table = database.create_table("t", [("k", "integer")])
            table.insert({"k": 1})
            row = table.insert({"k": 2})
            table.update(row.rowid, {"k": 3})
            table.delete(row.rowid)
            metrics = database.metrics
            assert metrics.value("table.inserts") == 1 + 2  # a catalog row
            assert metrics.value("table.updates") == 1
            assert metrics.value("table.deletes") == 1
            assert metrics.value("wal.appends") > 0
            assert metrics.value("wal.fsyncs") > 0
            before = metrics.value("db.checkpoints")
            database.checkpoint()
            assert metrics.value("db.checkpoints") == before + 1
            assert metrics.value("wal.rolls") > 0
        finally:
            database.close()

    def test_degraded_entries_counted(self):
        database = Database()
        database.enter_degraded("test reason")
        assert database.metrics.value("db.degraded_entries") == 1


class TestWalCounters:
    def test_append_and_fsync_counters(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path / "t.wal"), metrics=registry)
        try:
            wal.append_batch([], {})
            wal.append()
            wal.flush()
            assert registry.value("wal.appends") == 2
            assert registry.value("wal.append_bytes") > 0
            assert registry.value("wal.fsyncs") == 1
            with wal.rolled():
                pass
            assert registry.value("wal.rolls") == 1
        finally:
            wal.close()


class TestLockCounters:
    def test_grants_and_waits(self):
        registry = MetricsRegistry()
        manager = LockManager(timeout=2.0, metrics=registry)
        manager.acquire(2, "t", LockMode.SHARED)
        assert registry.value("lock.grants") == 1
        assert registry.value("lock.waits") == 0

        # Under wait-die only an *older* transaction may wait: txn 1
        # blocks on the exclusive lock until txn 2 releases.
        started = threading.Event()

        def contend():
            started.set()
            manager.acquire(1, "t", LockMode.EXCLUSIVE)
            manager.release_all(1)

        thread = threading.Thread(target=contend)
        thread.start()
        started.wait()
        while registry.value("lock.waits") == 0 and thread.is_alive():
            time.sleep(0.001)  # until the waiter has registered
        manager.release_all(2)
        thread.join()
        assert registry.value("lock.waits") == 1
        assert registry.value("lock.grants") == 2
        histogram = registry.get("lock.wait_seconds")
        assert histogram is not None and histogram.count >= 1
        # stats() keys stay as the service layer expects them.
        stats = manager.stats()
        assert set(stats) == {"grants", "waits", "deadlock_aborts", "timeouts"}
        assert stats["grants"] == 2 and stats["waits"] == 1
