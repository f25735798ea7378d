"""Hash and ordered index behaviour."""

import pytest

from repro.errors import StorageError
from repro.storage.index import HashIndex, OrderedCompositeIndex, OrderedIndex


@pytest.mark.parametrize("make", [
    lambda: HashIndex("k"), lambda: OrderedIndex("k"),
    lambda: OrderedCompositeIndex(("k",)),
])
def test_lookup_answers_ascending_whatever_the_insert_order(make):
    """The QUEL executor uses a lone lookup's list as its ascending
    candidate list, without sorting it again."""
    composite = isinstance(make(), OrderedCompositeIndex)
    key = ("x",) if composite else "x"
    rowids = [40, 3, 17, 99, 1, 64, 22, 8, 70, 5, 31, 12, 88, 2, 51, 9, 77, 4]
    one_by_one, bulk = make(), make()
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


class TestOrderedIndex:
    def test_range_scan(self):
        index = OrderedIndex("k")
        for i in (5, 1, 9, 3, 7):
            index.insert(i, i * 10)
        assert list(index.range(3, 7)) == [30, 50, 70]

    def test_range_inclusive_bounds(self):
        index = OrderedIndex("k")
        for i in range(5):
            index.insert(i, i)
        assert list(index.range(1, 3)) == [1, 2, 3]

    def test_range_open(self):
        index = OrderedIndex("k")
        for i in range(5):
            index.insert(i, i)
        assert list(index.range()) == [0, 1, 2, 3, 4]
        assert list(index.range(low=3)) == [3, 4]
        assert list(index.range(high=1)) == [0, 1]

    def test_duplicate_keys_sorted_postings(self):
        index = OrderedIndex("k")
        index.insert(1, 30)
        index.insert(1, 10)
        index.insert(1, 20)
        assert index.lookup(1) == [10, 20, 30]

    def test_delete_maintains_keys(self):
        index = OrderedIndex("k")
        index.insert(1, 1)
        index.insert(2, 2)
        index.delete(1, 1)
        assert list(index.range()) == [2]
        assert index.min_key() == index.max_key()

    def test_delete_missing_raises(self):
        index = OrderedIndex("k")
        index.insert(1, 1)
        with pytest.raises(StorageError):
            index.delete(1, 99)

    def test_min_max(self):
        index = OrderedIndex("k")
        assert index.min_key() is None
        index.insert(4, 1)
        index.insert(2, 2)
        assert index.min_key()[1] == 2
        assert index.max_key()[1] == 4

    def test_mixed_numeric_types(self):
        from fractions import Fraction

        index = OrderedIndex("k")
        index.insert(1, 1)
        index.insert(1.5, 2)
        index.insert(Fraction(7, 4), 3)
        index.insert(2, 4)
        assert list(index.range(1, 2)) == [1, 2, 3, 4]
