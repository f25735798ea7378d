"""Hash and composite index behaviour."""

import pytest

from repro.errors import StorageError
from repro.storage.index import HashIndex, OrderedCompositeIndex


@pytest.mark.parametrize("make", [
    lambda: (HashIndex("k"), "x"),
    lambda: (OrderedCompositeIndex(("g", "k")), (1, "x")),
    # a null order value is held apart from the positional lists
    lambda: (OrderedCompositeIndex(("g", "k")), (1, None)),
])
def test_lookup_answers_ascending_whatever_the_insert_order(make):
    """The QUEL executor uses a lone lookup's list as its ascending
    candidate list, without sorting it again."""
    (one_by_one, key), (bulk, _) = make(), make()
    rowids = [40, 3, 17, 99, 1, 64, 22, 8, 70, 5, 31, 12, 88, 2, 51, 9, 77, 4]
    for rowid in rowids:
        one_by_one.insert(key, rowid)
    bulk.insert_many([(key, rowid) for rowid in rowids])  # the bulk path
    bulk.delete(key, 17)
    assert one_by_one.lookup(key) == sorted(rowids)
    assert bulk.lookup(key) == sorted(set(rowids) - {17})


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex("k")
        index.insert("x", 1)
        index.insert("x", 2)
        assert index.lookup("x") == [1, 2]
        assert index.lookup("y") == []

    def test_delete(self):
        index = HashIndex("k")
        index.insert("x", 1)
        index.delete("x", 1)
        assert index.lookup("x") == []
        assert len(index) == 0

    def test_delete_missing_raises(self):
        index = HashIndex("k")
        with pytest.raises(StorageError):
            index.delete("x", 1)

    def test_numeric_normalization(self):
        index = HashIndex("k")
        index.insert(1, 10)
        assert index.lookup(1.0) == [10]

    def test_distinct_values(self):
        index = HashIndex("k")
        for i in range(10):
            index.insert(i % 4, i)
        assert index.distinct_values() == 4
