"""Heap table behaviour: mutation, indexes, scans, selections."""

import pytest

from repro.errors import StorageError, TypeMismatchError
from repro.storage.table import Column, Table, TableSchema


def make_table(journal=None):
    schema = TableSchema(
        "notes",
        [Column("name", "string"), Column("pitch", "integer")],
    )
    return Table(schema, journal=journal)


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

    def test_truncate(self):
        table = make_table()
        for i in range(5):
            table.insert({"name": str(i), "pitch": i})
        table.truncate()
        assert len(table) == 0


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
            table.insert({"name": str(i), "pitch": i})
        table.create_index("pitch", ordered=True)
        assert [r["pitch"] for r in table.select_range("pitch", 1, 3)] == [1, 2, 3]

    @pytest.mark.parametrize("column, ordered", [
        ("pitch", False), ("pitch", True), (("name", "pitch"), True),
    ])
    def test_backfilled_index_equals_one_maintained_row_by_row(
        self, column, ordered
    ):
        """``create_index`` over existing rows builds in bulk
        (``insert_many``); the result is the index per-row ``insert``s
        would have built: same keys, same order, same postings."""
        values = [
            {"name": "n%d" % (i % 5), "pitch": None if i % 11 == 0 else (i * 7) % 13}
            for i in range(40)
        ]
        maintained = make_table()
        kept = maintained.create_index(column, ordered=ordered)
        backfilled = make_table()
        for table in (maintained, backfilled):
            for row in values:
                table.insert(row)
        built = backfilled.create_index(column, ordered=ordered)
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
        table.create_index("pitch", ordered=True)
        for i in range(10):
            table.insert({"name": str(i), "pitch": i})
        assert len(table.select_range("pitch", low=7)) == 3
        assert len(table.select_range("pitch", high=2)) == 3

    def test_sorted_by(self):
        table = make_table()
        for pitch in (5, 1, 3):
            table.insert({"name": "x", "pitch": pitch})
        assert [r["pitch"] for r in table.sorted_by("pitch")] == [1, 3, 5]
        assert [r["pitch"] for r in table.sorted_by("pitch", descending=True)] == [
            5, 3, 1,
        ]

    def test_any_index_prefers_ordered(self):
        table = make_table()
        hash_index = table.create_index("pitch")
        ordered = table.create_index("pitch", ordered=True)
        assert table.any_index_for("pitch") is ordered
        assert table.index_for("pitch") is hash_index


class TestScan:
    def test_scan_predicate(self):
        table = make_table()
        for i in range(10):
            table.insert({"name": str(i), "pitch": i})
        assert sum(1 for _ in table.scan(lambda r: r["pitch"] % 2 == 0)) == 5

    def test_journal_callback(self):
        events = []
        table = make_table(journal=lambda *a: events.append(a[0]))
        row = table.insert({"name": "a", "pitch": 1})
        table.update(row.rowid, {"pitch": 2})
        table.delete(row.rowid)
        assert events == ["insert", "update", "delete"]

    def test_load_row_bypasses_journal(self):
        events = []
        table = make_table(journal=lambda *a: events.append(a[0]))
        from repro.storage.row import Row

        table.install_committed(0, 3, Row(3, {"name": "x", "pitch": 9}))
        assert events == []
        assert table.get(3)["pitch"] == 9
        # allocator stays ahead
        new = table.insert({"name": "y", "pitch": 1})
        assert new.rowid > 3
