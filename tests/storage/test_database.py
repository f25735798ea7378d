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


def test_rows_made_before_a_column_read_it_as_null_live_and_reopened(tmp_path):
    """Live, log-reopened and checkpoint-reopened rows all hold the
    column a row predates as null, and an index or sort over it takes
    every row.  Live and log-reopened rows once lacked the key (an index
    build raised ``KeyError``) while an image-reopened row held None."""
    path = str(tmp_path / "db")
    db = Database(path)
    table = db.create_table("t", [("k", "integer")])
    table.insert({"k": 1})
    db.add_column("t", "v", "integer")
    table.insert({"k": 2, "v": 5})
    assert [row["k"] for row in table.sorted_by("v")] == [1, 2]
    table.create_index("v")
    assert [row["k"] for row in table.select_eq("v", 5)] == [2]
    live = {row.rowid: row.as_dict() for row in table}
    assert live == {1: {"k": 1, "v": None}, 2: {"k": 2, "v": 5}}
    db.close()
    with Database(path) as reopened:
        assert {row.rowid: row.as_dict() for row in reopened.table("t")} == live
        assert [row["k"] for row in reopened.table("t").sorted_by("v")] == [1, 2]
        reopened.checkpoint()
    with Database(path) as reopened:
        assert {row.rowid: row.as_dict() for row in reopened.table("t")} == live
        reopened.table("t").create_index("v")
        assert [row["k"] for row in reopened.table("t").select_eq("v", None)] == [1]
