"""OrderedCompositeIndex and the table mutation-version counter.

These are the storage primitives behind the gap-based order-key
encoding: a composite ``(parent, order_key)`` index holding each
parent's sibling list, which answers counts, positions and key ranges
within one parent, and a ``Table.version`` counter that derived caches
(the ordering's position memo) use to detect *any* row mutation --
including the non-journalled recovery/undo paths that bypass the
ordering layer.
"""

import pytest

from repro.errors import StorageError
from repro.storage.index import OrderedCompositeIndex
from repro.storage.database import Database
from repro.storage.row import Row


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

    def test_count_per_parent(self, index):
        assert index.count(1) == 3
        assert index.count(2) == 2
        assert index.count(3) == 0

    def test_position_is_within_the_parent(self, index):
        assert index.position(1, 10) == 0
        assert index.position(1, 30) == 2
        assert index.position(2, 5) == 0
        assert index.position(3, 5) == 0

    def test_between_follows_key_order(self, index):
        assert index.between(1) == [1, 2, 3]
        assert index.between(2) == [4, 5]
        assert index.between(1, after=10) == [2, 3]
        assert index.between(1, before=30) == [1, 2]
        assert index.between(1, after=10, before=30) == [2]
        assert index.between(3) == []

    def test_key_at(self, index):
        assert index.key_at(1, 1) == 20

    def test_delete_and_reinsert(self, index):
        index.delete((1, 20), 2)
        assert index.count(1) == 2
        index.insert((1, 12), 2)
        assert index.between(1) == [1, 2, 3]
        with pytest.raises(StorageError):
            index.delete((1, 99), 9)

    def test_negative_keys_sort_before_positive(self, index):
        index.insert((1, -7), 9)
        assert index.position(1, -7) == 0
        assert index.count(1) == 4
        assert index.between(1) == [9, 1, 2, 3]

    def test_equal_keys_order_by_rowid(self, index):
        index.insert((1, 20), 7)
        index.insert((1, 20), 0)
        assert index.between(1) == [1, 0, 2, 7, 3]
        assert index.lookup((1, 20)) == [0, 2, 7]
        index.delete((1, 20), 2)
        assert index.between(1) == [1, 0, 7, 3]

    def test_arity_checked(self):
        for columns in (("parent",), ("parent", "key", "extra")):
            with pytest.raises(StorageError):
                OrderedCompositeIndex(columns)

    def test_open_bounds_reach_past_every_key(self, index):
        index.insert((1, 10**30), 9)
        index.insert((1, -10**30), 8)
        assert index.between(1, after=30) == [9]
        assert index.between(1, before=-10**30) == []
        assert index.between(1)[0] == 8 and index.between(1)[-1] == 9

    def test_null_keys_are_held_apart(self, index):
        index.insert((1, None), 9)
        assert len(index) == 6
        assert index.lookup((1, None)) == [9]
        assert index.count(1) == 3 and index.between(1) == [1, 2, 3]
        index.delete((1, None), 9)
        assert len(index) == 5
        with pytest.raises(StorageError):
            index.delete((1, None), 9)


def make_table():
    table = Database().create_table(
        "t", [("parent", "integer"), ("key", "integer"), ("label", "string")]
    )
    index = table.create_index(("parent", "key"))
    return table, index


class TestTableCompositeMaintenance:
    def test_insert_update_delete_maintain_index(self):
        table, index = make_table()
        a = table.insert({"parent": 1, "key": 10, "label": "a"})
        b = table.insert({"parent": 1, "key": 20, "label": "b"})
        assert index.between(1) == [a.rowid, b.rowid]
        # Moving a past b via its key: one update, order flips.
        table.update(a.rowid, {"key": 30})
        assert index.between(1) == [b.rowid, a.rowid]
        # A non-key update must not disturb the index.
        table.update(a.rowid, {"label": "a2"})
        assert index.between(1) == [b.rowid, a.rowid]
        table.delete(b.rowid)
        assert index.count(1) == 1

    def test_create_index_is_idempotent(self):
        table, index = make_table()
        assert table.create_index(("parent", "key")) is index
        assert table.index_for(["parent", "key"]) is index

    def test_recovery_paths_maintain_index(self):
        """A load's LSN-0 installs, index upkeep deferred, and a
        replica's installs above LSN 0 leave the index describing the
        row map."""
        table, index = make_table()
        schema = table.schema
        row = Row(1, schema.coerce({"parent": 1, "key": 10, "label": "a"}),
                  schema.layout)
        table.defer_index_upkeep()
        table.install_committed(0, [row])
        table.install_committed(0, (), (row.rowid,))
        table.build_deferred_indexes()
        assert len(index) == 0
        table.defer_index_upkeep()
        table.install_committed(0, [row])
        table.build_deferred_indexes()
        assert index.lookup((1, 10)) == [row.rowid]
        moved = row.replaced({"key": 20})
        table.install_committed(1, [moved])
        assert index.lookup((1, 10)) == []
        assert index.lookup((1, 20)) == [row.rowid]
        table.install_committed(2, (), (row.rowid,))
        assert len(index) == 0


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
        table.install_committed(1, [row])
        bumped()
        table.install_committed(2, (), (row.rowid,))
        bumped()
