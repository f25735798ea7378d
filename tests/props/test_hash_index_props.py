"""Property battery: ``HashIndex`` against a dict-of-sets model.

Programs run on the shared runner (``tests/props/program.py``): random
``insert``, ``delete`` and ``insert_many`` steps over values that are
equal across types (``1``, ``1.0``, ``Fraction(1)``, ``True``), values
that only look alike (``"1"``, ``b"1"``) and integers a float cannot
tell apart (2**53 and 2**53 + 1).  The model keys a number by its exact
``Fraction`` and anything else by its type and value, so it decides
equality without the index's own rule.  After every step:

* a bucket of one rowid is that bare int and any other is a strictly
  ascending list of two or more -- and an index built from the model's
  pairs in one ``insert_many``, fed in descending rowid order, holds the
  same buckets, so whichever path built it, a content has one form (the
  crash oracle compares ``_buckets``);
* ``lookup`` of every value answers the model's rowids, ascending;
* ``len`` and ``distinct_values`` are the model's.
"""

from fractions import Fraction

import pytest

from repro.errors import StorageError
from repro.storage.index import HashIndex
from tests.props.program import assert_passes, generate

pytestmark = pytest.mark.props

VALUES = [
    1, 1.0, Fraction(1), True, "1", b"1", 0, 0.0, -0.0, False, None,
    Fraction(5, 2), 2.5, "a", 2 ** 53, 2 ** 53 + 1, float(2 ** 53),
]
ROWIDS = 12


def _model_key(value):
    if isinstance(value, (int, float, Fraction)):  # bool is an int
        return ("number", Fraction(value))
    return (type(value).__name__, value)


class HashIndexState:
    def __init__(self):
        self.index = HashIndex("v")
        self.model = {}  # model key -> set of rowids

    def _pairs(self, op, count):
        return [
            (VALUES[(op[1] + 7 * i) % len(VALUES)], 1 + (op[2] + 5 * i) % ROWIDS)
            for i in range(count)
        ]

    def _add(self, pairs):
        for value, rowid in pairs:
            self.model.setdefault(_model_key(value), set()).add(rowid)

    def apply(self, op):
        kind = op[0] % 4
        if kind == 0:
            (value, rowid), = self._pairs(op, 1)
            self.index.insert(value, rowid)
            self._add([(value, rowid)])
        elif kind == 1:  # a bulk insert, fed as a generator, some pairs twice
            pairs = self._pairs(op, 1 + op[3] % 6)
            self.index.insert_many(pair for pair in pairs + pairs[::-2])
            self._add(pairs)
        else:  # delete, under any value equal to the one inserted
            value, rowid = self._pairs(op, 1)[0]
            held = self.model.get(_model_key(value), set())
            if kind == 2 and held:
                rowid = sorted(held)[op[3] % len(held)]
            if rowid not in held:
                with pytest.raises(StorageError):
                    self.index.delete(value, rowid)
                return
            self.index.delete(value, rowid)
            held.discard(rowid)
            if not held:
                del self.model[_model_key(value)]

    def check(self):
        buckets = self.index._buckets
        for bucket in buckets.values():
            assert type(bucket) is int or (
                type(bucket) is list and len(bucket) > 1
                and all(a < b for a, b in zip(bucket, bucket[1:]))
            ), "bucket %r is not in its one form" % (bucket,)
        rebuilt = HashIndex("v")
        rebuilt.insert_many(
            (value, rowid)
            for value in VALUES
            for rowid in sorted(self.model.get(_model_key(value), ()), reverse=True)
        )
        assert buckets == rebuilt._buckets
        for value in VALUES:
            assert self.index.lookup(value) == sorted(
                self.model.get(_model_key(value), ())
            ), "lookup(%r)" % (value,)
        assert len(self.index) == sum(len(held) for held in self.model.values())
        assert self.index.distinct_values() == len(self.model)


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_match_the_dict_of_sets_model(seed):
    assert_passes(HashIndexState, generate(seed, 80))


def test_equal_numbers_share_a_bucket_and_a_string_does_not():
    index = HashIndex("v")
    for rowid, value in enumerate([1, 1.0, Fraction(1), True], start=1):
        index.insert(value, rowid)
    index.insert("1", 9)
    assert index.distinct_values() == 2
    for value in (1, 1.0, Fraction(1), True):
        assert index.lookup(value) == [1, 2, 3, 4]
    assert index.lookup("1") == [9]
    for rowid in (4, 2, 3):
        index.delete(1, rowid)
    assert index._buckets == {1: 1, "1": 9}
