"""The COPY-style bulk-load path: Table.insert_many / Database.bulk_ingest."""

import pytest

from repro.errors import (
    ReadOnlyError,
    StorageError,
    TransactionError,
    TypeMismatchError,
)
from repro.mdm.manager import MusicDataManager
from repro.storage.database import Database


def make_table():
    return Database().create_table("t", [("k", "integer"), ("v", "string")])


class TestInsertMany:
    def test_inserts_and_returns_rows(self):
        table = make_table()
        rows = table.insert_many(
            [{"k": i, "v": "v%d" % i} for i in range(30)]
        )
        assert len(rows) == 30 and len(table) == 30
        assert table.get(rows[5].rowid)["v"] == "v5"

    def test_empty_batch_is_a_noop(self):
        table = make_table()
        assert table.insert_many([]) == []
        assert len(table) == 0

    def test_deferred_index_builds_stay_consistent(self):
        table = make_table()
        table.create_index("k")
        table.create_index("v")
        table.create_index(("k", "v"))
        table.insert({"k": 0, "v": "seed"})
        rows = table.insert_many(
            [{"k": i % 7, "v": "v%d" % i} for i in range(1, 40)]
        )
        assert len(table) == 40
        # Every access path agrees with a straight scan.
        for k in range(7):
            expect = sorted(r.rowid for r in table.scan(lambda r, k=k: r["k"] == k))
            assert sorted(table.index_for("k").lookup(k)) == expect
        for row in rows[::5]:
            assert table.index_for("v").lookup(row["v"]) == [row.rowid]
        composite = table.index_for(("k", "v"))
        assert sorted(composite.lookup((rows[3]["k"], rows[3]["v"]))) == [
            rows[3].rowid
        ]

    def test_bad_value_rejects_whole_batch(self):
        table = make_table()
        table.create_index("k")
        with pytest.raises((StorageError, TypeMismatchError)):
            table.insert_many(
                [{"k": 1, "v": "ok"}, {"k": "not-an-int", "v": "bad"}]
            )
        assert len(table) == 0
        assert len(table.index_for("k")) == 0

    def test_inside_transaction_abort_undoes_batch(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            table = database.create_table(
                "t", [("k", "integer"), ("v", "string")]
            )
            txn = database.begin()
            table.insert_many([{"k": i, "v": "x"} for i in range(20)])
            assert len(table) == 20
            txn.abort()
            assert len(table) == 0
        finally:
            database.close()

    def test_inside_transaction_commit_is_durable(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            table = database.create_table(
                "t", [("k", "integer"), ("v", "string")]
            )
            with database.begin():
                table.insert_many([{"k": i, "v": "x"} for i in range(20)])
        finally:
            database.close()
        reopened = Database(str(tmp_path / "db"))
        try:
            assert len(reopened.table("t")) == 20
        finally:
            reopened.close()


class TestBulkIngest:
    def test_durable_with_one_fsync_per_batch(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            database.create_table("t", [("k", "integer"), ("v", "string")])
            before = database.metrics.value("wal.fsyncs")
            out = database.bulk_ingest(
                "t",
                [{"k": i, "v": "v%d" % i} for i in range(250)],
                batch_rows=100,
            )
            assert len(out) == 250
            # 3 batches -> 3 commit flushes, not 250.
            assert database.metrics.value("wal.fsyncs") - before <= 3
            assert database.metrics.value("wal.appends") >= 3
        finally:
            database.close()
        reopened = Database(str(tmp_path / "db"))
        try:
            assert sorted(r["k"] for r in reopened.table("t")) == list(range(250))
        finally:
            reopened.close()

    def test_refused_inside_explicit_transaction(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            database.create_table("t", [("k", "integer"), ("v", "string")])
            with database.begin():
                with pytest.raises(TransactionError):
                    database.bulk_ingest("t", [{"k": 1, "v": "a"}])
        finally:
            database.close()

    def test_refused_when_degraded(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            database.create_table("t", [("k", "integer"), ("v", "string")])
            database.enter_degraded("test reason")
            with pytest.raises(ReadOnlyError):
                database.bulk_ingest("t", [{"k": 1, "v": "a"}])
        finally:
            database.close()

    def test_empty_input(self, tmp_path):
        database = Database(str(tmp_path / "db"))
        try:
            database.create_table("t", [("k", "integer"), ("v", "string")])
            assert database.bulk_ingest("t", []) == []
        finally:
            database.close()

    def test_in_memory_database_supported(self):
        database = Database()
        database.create_table("t", [("k", "integer"), ("v", "string")])
        out = database.bulk_ingest(
            "t", [{"k": i, "v": "x"} for i in range(5)]
        )
        assert len(out) == 5 and len(database.table("t")) == 5


class TestSessionBulkIngest:
    def test_session_bulk_ingest_counts_rows(self):
        with MusicDataManager(with_cmn=False) as mdm:
            mdm.database.create_table(
                "songs", [("k", "integer"), ("v", "string")]
            )
            session = mdm.connect("loader")
            out = session.bulk_ingest(
                "songs", [{"k": i, "v": "s%d" % i} for i in range(120)],
                batch_rows=50,
            )
            assert len(out) == 120
            assert len(mdm.database.table("songs")) == 120
            assert mdm.statistics()["bulk_rows"] == 120

    def test_session_refuses_degraded(self):
        with MusicDataManager(with_cmn=False) as mdm:
            mdm.database.create_table("songs", [("k", "integer")])
            mdm.database.enter_degraded("test reason")
            session = mdm.connect("loader")
            with pytest.raises(ReadOnlyError):
                session.bulk_ingest("songs", [{"k": 1}])
