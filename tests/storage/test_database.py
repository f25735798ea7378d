"""Database catalog and durability facade."""

import pytest

from repro.errors import StorageError
from repro.storage.database import Database


class TestCatalog:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table("a", [("x", "integer")])
        assert db.has_table("a")
        assert db.table("a").name == "a"

    def test_duplicate_table(self):
        db = Database()
        db.create_table("a", [("x", "integer")])
        with pytest.raises(StorageError):
            db.create_table("a", [("x", "integer")])

    def test_missing_table(self):
        db = Database()
        with pytest.raises(StorageError):
            db.table("nope")

    def test_drop(self):
        db = Database()
        db.create_table("a", [("x", "integer")])
        db.drop_table("a")
        assert not db.has_table("a")
        with pytest.raises(StorageError):
            db.drop_table("a")

    def test_table_names_sorted(self):
        db = Database()
        for name in ("zeta", "alpha", "mid"):
            db.create_table(name, [("x", "integer")])
        assert db.table_names() == ["alpha", "mid", "zeta"]

    def test_in_memory_cannot_checkpoint(self):
        db = Database()
        with pytest.raises(StorageError):
            db.checkpoint()


class TestDurability:
    def test_checkpoint_round_trip_multiple_tables(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("notes", [("pitch", "integer")])
        db.create_table("chords", [("label", "string")])
        with db.begin():
            for i in range(10):
                db.table("notes").insert({"pitch": i})
            db.table("chords").insert({"label": "I"})
        db.checkpoint()
        db.close()

        db2 = Database(path)
        assert db2.table_names() == ["chords", "notes"]
        assert len(db2.table("notes")) == 10
        assert list(db2.table("chords"))[0]["label"] == "I"
        db2.close()

    def test_rowids_preserved_across_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("v", "integer")])
        with db.begin():
            rows = [db.table("t").insert({"v": i}) for i in range(5)]
        db.checkpoint()
        db.close()
        db2 = Database(path)
        for row in rows:
            assert db2.table("t").get(row.rowid)["v"] == row["v"]
        # New inserts don't collide with recovered rowids.
        fresh = db2.table("t").insert({"v": 99})
        assert fresh.rowid > max(r.rowid for r in rows)
        db2.close()
