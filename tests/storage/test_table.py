"""Heap table behaviour: mutation, indexes, scans, selections."""

import pytest

from repro.errors import StorageError, TypeMismatchError
from repro.storage.database import Database


def make_table(journal=None):
    """A table of an in-memory database; *journal*, if given, sees each
    change list the table hands the database's transaction journal."""
    db = Database()
    if journal is not None:
        # A table binds its database's journal when it is created.
        publish = db.transactions.journal

        def observed(changes):
            journal(changes)
            publish(changes)

        db.transactions.journal = observed
    return db.create_table("notes", [("name", "string"), ("pitch", "integer")])


class TestBasics:
    def test_insert_get(self):
        table = make_table()
        row = table.insert({"name": "c", "pitch": 60})
        assert table.get(row.rowid)["name"] == "c"
        assert len(table) == 1

    def test_insert_coerces(self):
        table = make_table()
        with pytest.raises(TypeMismatchError):
            table.insert({"name": "c", "pitch": "sixty"})

    def test_insert_unknown_column(self):
        table = make_table()
        with pytest.raises(TypeMismatchError):
            table.insert({"name": "c", "octave": 4})

    def test_update(self):
        table = make_table()
        row = table.insert({"name": "c", "pitch": 60})
        table.update(row.rowid, {"pitch": 62})
        assert table.get(row.rowid)["pitch"] == 62

    def test_update_missing_row(self):
        table = make_table()
        with pytest.raises(StorageError):
            table.update(404, {"pitch": 1})

    def test_delete(self):
        table = make_table()
        row = table.insert({"name": "c", "pitch": 60})
        table.delete(row.rowid)
        assert table.get(row.rowid) is None
        assert len(table) == 0

    def test_rowids_unique_after_delete(self):
        table = make_table()
        first = table.insert({"name": "a", "pitch": 1})
        table.delete(first.rowid)
        second = table.insert({"name": "b", "pitch": 2})
        assert second.rowid != first.rowid

    def test_explicit_rowid_collision(self):
        table = make_table()
        table.insert({"name": "a", "pitch": 1}, rowid=7)
        with pytest.raises(StorageError):
            table.insert({"name": "b", "pitch": 2}, rowid=7)


class TestIndexes:
    def test_hash_index_consistency(self):
        table = make_table()
        table.create_index("pitch")
        rows = [table.insert({"name": str(i), "pitch": i % 3}) for i in range(9)]
        assert len(table.select_eq("pitch", 1)) == 3
        table.update(rows[0].rowid, {"pitch": 1})
        assert len(table.select_eq("pitch", 1)) == 4
        table.delete(rows[1].rowid)  # removes one pitch-1 row
        assert len(table.select_eq("pitch", 1)) == 3

    def test_index_created_on_existing_data(self):
        table = make_table()
        for i in range(5):
            table.insert({"name": str(i), "pitch": i % 3})
        table.create_index("pitch")
        assert [r["name"] for r in table.select_eq("pitch", 1)] == ["1", "4"]

    @pytest.mark.parametrize("column", ["pitch", ("name", "pitch")])
    def test_backfilled_index_equals_one_maintained_row_by_row(self, column):
        """``create_index`` over existing rows builds in bulk
        (``insert_many``); the result is the index per-row ``insert``s
        would have built: same keys, same order, same postings."""
        values = [
            {"name": "n%d" % (i % 5), "pitch": None if i % 11 == 0 else (i * 7) % 13}
            for i in range(40)
        ]
        maintained = make_table()
        kept = maintained.create_index(column)
        backfilled = make_table()
        for table in (maintained, backfilled):
            for row in values:
                table.insert(row)
        built = backfilled.create_index(column)
        assert type(built) is type(kept)
        assert len(built) == len(kept) == 40
        assert vars(built) == vars(kept)

    def test_select_eq_without_index(self):
        table = make_table()
        table.insert({"name": "a", "pitch": 60})
        assert len(table.select_eq("pitch", 60)) == 1

    def test_select_range_without_index(self):
        table = make_table()
        for i in range(10):
            table.insert({"name": str(i), "pitch": i})
        rows = table.select_range("pitch", 3, 6)
        assert sorted(r["pitch"] for r in rows) == [3, 4, 5, 6]

    def test_select_range_open_ended(self):
        table = make_table()
        for i in range(10):
            table.insert({"name": str(i), "pitch": i})
        assert len(table.select_range("pitch", low=7)) == 3
        assert len(table.select_range("pitch", high=2)) == 3

    def test_select_range_orders_by_key_then_rowid(self):
        table = make_table()
        rows = [
            table.insert({"name": str(i), "pitch": pitch})
            for i, pitch in enumerate([2, 1, 3, 1, 2, 0])
        ]
        assert [r.rowid for r in table.select_range("pitch", 1, 2)] == [
            rows[1].rowid, rows[3].rowid, rows[0].rowid, rows[4].rowid,
        ]

    def test_sorted_by(self):
        table = make_table()
        for pitch in (5, 1, 3):
            table.insert({"name": "x", "pitch": pitch})
        assert [r["pitch"] for r in table.sorted_by("pitch")] == [1, 3, 5]
        assert [r["pitch"] for r in table.sorted_by("pitch", descending=True)] == [
            5, 3, 1,
        ]


class TestScan:
    def test_scan_predicate(self):
        table = make_table()
        for i in range(10):
            table.insert({"name": str(i), "pitch": i})
        assert sum(1 for _ in table.scan(lambda r: r["pitch"] % 2 == 0)) == 5

    def test_journal_callback(self):
        events = []
        table = make_table(
            journal=lambda changes: events.extend(c[0] for c in changes)
        )
        row = table.insert({"name": "a", "pitch": 1})
        table.update(row.rowid, {"pitch": 2})
        table.delete(row.rowid)
        table.insert_many([{"name": "b", "pitch": 3}] * 2)
        assert events == ["insert", "update", "delete", "insert", "insert"]

    def test_load_row_bypasses_journal(self):
        events = []
        table = make_table(journal=events.extend)
        from repro.storage.row import Row

        schema = table.schema
        row = Row(3, schema.coerce({"name": "x", "pitch": 9}), schema.layout)
        table.defer_index_upkeep()
        table.install_committed(0, [row])
        table.build_deferred_indexes()
        assert events == []
        assert table.get(3)["pitch"] == 9
        # allocator stays ahead
        new = table.insert({"name": "y", "pitch": 1})
        assert new.rowid > 3
