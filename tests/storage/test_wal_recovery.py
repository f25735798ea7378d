"""Write-ahead logging and crash recovery."""

import os

import pytest

from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.wal import WriteAheadLog


@pytest.fixture
def db_dir(tmp_path):
    return str(tmp_path / "mdm")


def make_db(path):
    db = Database(path)
    if not db.has_table("notes"):
        db.create_table("notes", [("name", "string"), ("pitch", "integer")])
    return db


class TestWal:
    def test_committed_survive_reopen(self, db_dir):
        db = make_db(db_dir)
        with db.begin():
            db.table("notes").insert({"name": "c", "pitch": 60})
        db.close()
        db2 = make_db(db_dir)
        assert len(db2.table("notes")) == 1
        db2.close()

    def test_uncommitted_lost_on_crash(self, db_dir):
        db = make_db(db_dir)
        txn = db.begin()
        db.table("notes").insert({"name": "c", "pitch": 60})
        # Simulated crash: no commit, no close flush of changes.
        del txn
        db.close()
        db2 = make_db(db_dir)
        assert len(db2.table("notes")) == 0
        db2.close()

    def test_abort_undoes_in_memory(self, db_dir):
        db = make_db(db_dir)
        table = db.table("notes")
        with db.begin():
            kept = table.insert({"name": "keep", "pitch": 1})
        txn = db.begin()
        table.insert({"name": "gone", "pitch": 2})
        table.update(kept.rowid, {"pitch": 99})
        table.delete(kept.rowid)
        txn.abort()
        assert len(table) == 1
        assert table.get(kept.rowid)["pitch"] == 1
        db.close()

    def test_updates_and_deletes_replay(self, db_dir):
        db = make_db(db_dir)
        table = db.table("notes")
        with db.begin():
            a = table.insert({"name": "a", "pitch": 1})
            b = table.insert({"name": "b", "pitch": 2})
        with db.begin():
            table.update(a.rowid, {"pitch": 10})
            table.delete(b.rowid)
        db.close()
        db2 = make_db(db_dir)
        rows = list(db2.table("notes"))
        assert len(rows) == 1
        assert rows[0]["pitch"] == 10
        db2.close()

    def test_checkpoint_truncates_log(self, db_dir):
        db = make_db(db_dir)
        with db.begin():
            for i in range(20):
                db.table("notes").insert({"name": str(i), "pitch": i})
        db.checkpoint()
        log_size_after = os.path.getsize(os.path.join(db_dir, "wal.log"))
        db.close()
        db2 = make_db(db_dir)
        assert len(db2.table("notes")) == 20
        db2.close()
        assert log_size_after < 200  # just the checkpoint record

    def test_checkpoint_image_of_8000_rows(self, db_dir):
        """8,000 rows, some 263,000 bytes of image: the smallest load a
        checkpoint once lost whole, reading it back empty."""
        from repro.obs.metrics import MetricsRegistry
        from repro.text.index import TrigramIndex

        db = make_db(db_dir)
        db.create_text_index("notes", "name")
        db.bulk_ingest(
            "notes",
            [{"name": "opus %d" % i, "pitch": i % 128} for i in range(8000)],
        )
        before = {row.rowid: row.as_dict() for row in db.table("notes")}
        db.checkpoint()
        db.close()
        db2 = make_db(db_dir)
        table = db2.table("notes")
        assert {row.rowid: row.as_dict() for row in table} == before
        oracle = TrigramIndex(MetricsRegistry())
        for row in table:
            oracle.insert(row["name"], row.rowid)
        assert table.text_index_for("name")._postings == oracle._postings
        db2.close()

    def test_changes_after_checkpoint_replay(self, db_dir):
        db = make_db(db_dir)
        with db.begin():
            db.table("notes").insert({"name": "early", "pitch": 1})
        db.checkpoint()
        with db.begin():
            db.table("notes").insert({"name": "late", "pitch": 2})
        db.close()
        db2 = make_db(db_dir)
        names = sorted(r["name"] for r in db2.table("notes"))
        assert names == ["early", "late"]
        db2.close()

    def test_torn_tail_discarded(self, db_dir):
        db = make_db(db_dir)
        with db.begin():
            db.table("notes").insert({"name": "good", "pitch": 1})
        db.close()
        # Corrupt the log tail: half a record.
        log_path = os.path.join(db_dir, "wal.log")
        with open(log_path, "ab") as handle:
            handle.write(b"\xff\xff\xff\x7f partial")
        db2 = make_db(db_dir)
        assert len(db2.table("notes")) == 1
        db2.close()

    def test_auto_commit_durable(self, db_dir):
        db = make_db(db_dir)
        db.table("notes").insert({"name": "auto", "pitch": 5})
        db.close()
        db2 = make_db(db_dir)
        assert len(db2.table("notes")) == 1
        db2.close()


class TestLogFile:
    def test_lsns_monotonic(self, tmp_path):
        path = str(tmp_path / "test.log")
        with WriteAheadLog(path) as log:
            first = log.append_batch([], {})
            second = log.append(flush=True)
            assert second == first + 1
        with WriteAheadLog(path) as log:
            assert log.append_batch([], {}) > second

    def test_replay_filters_uncommitted(self, tmp_path):
        """A commit whose frame a crash tore never happened."""
        from repro.storage.row import Row

        path = str(tmp_path / "test.log")
        db = Database()
        schema = db.create_table("t", [("a", "integer")]).schema
        with WriteAheadLog(path) as log:
            for rowid in (1, 2):
                row = Row(rowid, schema.coerce({"a": rowid}), schema.layout)
                log.append_batch([("insert", "t", row, None)], {"t": schema})
            log.flush()
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 1)
        with WriteAheadLog(path) as log:
            db.table("t").defer_index_upkeep()  # replay is a load's
            wal_module.replay(log, db)
            db.table("t").build_deferred_indexes()
            assert [row.rowid for row in db.table("t")] == [1]
