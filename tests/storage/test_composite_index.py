"""OrderedCompositeIndex and the table mutation-version counter.

These are the storage primitives behind the gap-based order-key
encoding: a composite ``(parent, order_key)`` index answering prefix and
rank queries, and a ``Table.version`` counter that derived caches (the
ordering's position memo) use to detect *any* row mutation -- including
the non-journalled recovery/undo paths that bypass the ordering layer.
"""

import pytest

from repro.errors import StorageError
from repro.storage.index import AFTER_ALL, OrderedCompositeIndex
from repro.storage.table import Column, Table, TableSchema


@pytest.fixture
def index():
    idx = OrderedCompositeIndex(("parent", "key"))
    for rowid, (parent, key) in enumerate(
        [(1, 10), (1, 20), (1, 30), (2, 5), (2, 15)], start=1
    ):
        idx.insert((parent, key), rowid)
    return idx


class TestCompositeIndex:
    def test_len_and_lookup(self, index):
        assert len(index) == 5
        assert index.lookup((1, 20)) == [2]
        assert index.lookup((1, 99)) == []

    def test_prefix_bounds(self, index):
        assert index.prefix_bounds((1,)) == (0, 3)
        assert index.prefix_bounds((2,)) == (3, 5)
        assert index.prefix_bounds((3,)) == (5, 5)

    def test_rank_is_absolute_slot(self, index):
        assert index.rank((1, 10)) == 0
        assert index.rank((1, 30)) == 2
        assert index.rank((2, 5)) == 3

    def test_rowids_slice_follows_key_order(self, index):
        assert index.rowids_slice(0, 3) == [1, 2, 3]
        assert index.rowids_slice(3, 5) == [4, 5]

    def test_key_at(self, index):
        assert index.key_at(1) == index.make_key((1, 20))

    def test_delete_and_reinsert(self, index):
        index.delete((1, 20), 2)
        assert index.prefix_bounds((1,)) == (0, 2)
        index.insert((1, 12), 2)
        assert index.rowids_slice(0, 3) == [1, 2, 3]
        with pytest.raises(StorageError):
            index.delete((1, 99), 9)

    def test_negative_keys_sort_before_positive(self, index):
        index.insert((1, -7), 9)
        assert index.rank((1, -7)) == 0
        assert index.prefix_bounds((1,)) == (0, 4)

    def test_arity_checked(self, index):
        with pytest.raises(StorageError):
            index.make_key((1,))

    def test_after_all_sentinel_orders_last(self):
        assert AFTER_ALL > 10**30
        assert not AFTER_ALL < "z"
        assert AFTER_ALL >= AFTER_ALL


def make_table():
    table = Table(
        TableSchema(
            "t",
            [
                Column("parent", "integer"),
                Column("key", "integer"),
                Column("label", "string"),
            ],
        )
    )
    index = table.create_index(("parent", "key"))
    return table, index


class TestTableCompositeMaintenance:
    def test_insert_update_delete_maintain_index(self):
        table, index = make_table()
        a = table.insert({"parent": 1, "key": 10, "label": "a"})
        b = table.insert({"parent": 1, "key": 20, "label": "b"})
        assert index.rowids_slice(*index.prefix_bounds((1,))) == [a.rowid, b.rowid]
        # Moving a past b via its key: one update, order flips.
        table.update(a.rowid, {"key": 30})
        assert index.rowids_slice(*index.prefix_bounds((1,))) == [b.rowid, a.rowid]
        # A non-key update must not disturb the index.
        table.update(a.rowid, {"label": "a2"})
        assert index.rowids_slice(*index.prefix_bounds((1,))) == [b.rowid, a.rowid]
        table.delete(b.rowid)
        assert index.prefix_bounds((1,)) == (0, 1)

    def test_create_index_is_idempotent(self):
        table, index = make_table()
        assert table.create_index(("parent", "key")) is index
        assert table.index_for(["parent", "key"]) is index

    def test_recovery_paths_maintain_index(self):
        table, index = make_table()
        row = table.insert({"parent": 1, "key": 10, "label": "a"})
        table.install_committed(0, row.rowid, None)
        assert len(index) == 0
        table.install_committed(0, row.rowid, row)
        assert index.lookup((1, 10)) == [row.rowid]
        moved = row.replaced({"key": 20})
        table.install_committed(0, row.rowid, moved)
        assert index.lookup((1, 10)) == []
        assert index.lookup((1, 20)) == [row.rowid]


class TestVersionCounter:
    def test_every_mutation_bumps_version(self):
        table, _ = make_table()
        versions = [table.version]

        def bumped():
            versions.append(table.version)
            assert versions[-1] > versions[-2]

        row = table.insert({"parent": 1, "key": 10, "label": "a"})
        bumped()
        table.update(row.rowid, {"label": "b"})
        bumped()
        table.delete(row.rowid)
        bumped()
        table.install_committed(0, row.rowid, row)
        bumped()
        table.install_committed(0, row.rowid, None)
        bumped()
