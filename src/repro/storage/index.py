"""Secondary indexes: hash (equality) and ordered (range) access paths.

Section 5.2 of the paper observes that relational systems use key
ordering "purely as a performance optimization" for selections on key
values or ranges.  These two index types provide exactly those access
paths; the QUEL planner chooses between them and heap scans.
"""

import bisect

from repro.errors import StorageError
from repro.storage.values import value_sort_key


class HashIndex:
    """Equality index: value -> rowids.  A bucket is keyed by the value,
    so equal numbers (``1``, ``1.0``, ``Fraction(1)``, ``True``) share one;
    a lone rowid is held bare, two or more as an ascending list -- one
    form a content, which ``lookup`` answers with a copy, not a sort."""

    def __init__(self, column):
        self.column = column
        self._buckets = {}

    def __len__(self):
        return sum(
            1 if type(bucket) is int else len(bucket)
            for bucket in self._buckets.values()
        )

    def insert(self, value, rowid):
        buckets = self._buckets
        bucket = buckets.setdefault(value, rowid)
        if bucket is rowid:
            return
        if type(bucket) is int:
            if bucket != rowid:
                buckets[value] = [bucket, rowid] if bucket < rowid else [rowid, bucket]
        elif rowid > bucket[-1]:
            bucket.append(rowid)
        else:
            position = bisect.bisect_left(bucket, rowid)
            if bucket[position] != rowid:
                bucket.insert(position, rowid)

    def insert_many(self, pairs):
        """Insert each ``(value, rowid)`` of the iterable *pairs*.  A
        rowid above its bucket's last is appended, as every pair of a
        walk in rowid order is; a bucket that took any other is sorted
        once, at the end."""
        buckets = self._buckets
        setdefault = buckets.setdefault
        unsorted = {}
        for value, rowid in pairs:
            bucket = setdefault(value, rowid)
            if bucket is rowid:
                continue
            if type(bucket) is int:
                if bucket != rowid:
                    buckets[value] = [bucket, rowid] if bucket < rowid else [rowid, bucket]
                continue
            if rowid > bucket[-1]:
                bucket.append(rowid)
            elif rowid != bucket[-1]:
                bucket.append(rowid)
                unsorted[id(bucket)] = bucket
        for bucket in unsorted.values():
            bucket[:] = sorted(set(bucket))

    def delete(self, value, rowid):
        buckets = self._buckets
        bucket = buckets.get(value)
        if bucket == rowid:
            del buckets[value]
            return
        if type(bucket) is list:
            position = bisect.bisect_left(bucket, rowid)
            if position < len(bucket) and bucket[position] == rowid:
                del bucket[position]
                if len(bucket) == 1:
                    buckets[value] = bucket[0]
                return
        raise StorageError(
            "index on %r: row #%s not present under %r" % (self.column, rowid, value)
        )

    def lookup(self, value):
        """Return the rowids stored under *value* (a new list,
        ascending, as every index's ``lookup`` answers)."""
        bucket = self._buckets.get(value)
        if bucket is None:
            return []
        if type(bucket) is int:
            return [bucket]
        return bucket[:]

    def max_key(self):
        """The largest value held (None: none), of values that compare
        with each other, as an entity's surrogates do."""
        return max(self._buckets, default=None)

    def distinct_values(self):
        return len(self._buckets)


class _AfterAll:
    """Open upper bound: compares greater than every index key."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return self is other

    def __gt__(self, other):
        return self is not other

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "<after-all>"


#: Singleton used to pad prefix probes in composite-index bisects.
AFTER_ALL = _AfterAll()


def _post(postings, keyed):
    """Add each ``(key, rowid)`` of *keyed* to the sorted posting lists
    *postings*; returns the keys it made a list for."""
    new_keys = []
    for key, rowid in keyed:
        posting = postings.get(key)
        if posting is None:
            postings[key] = [rowid]
            new_keys.append(key)
        else:
            bisect.insort(posting, rowid)
    return new_keys


def _add_keys(keys, new_keys):
    """Merge *new_keys* into the sorted list *keys*: an insort each for a
    few, one sort for many."""
    if len(new_keys) < 16:
        for key in new_keys:
            bisect.insort(keys, key)
    else:
        keys.extend(new_keys)
        keys.sort()


class OrderedIndex:
    """Sorted index supporting range scans.

    Keys are kept in a sorted list (bisect); each key maps to a sorted
    list of rowids.  This plays the role a B-tree plays in a disk-based
    system: logarithmic point lookup, linear-in-result range scans.
    """

    def __init__(self, column):
        self.column = column
        self._keys = []
        self._postings = {}

    def __len__(self):
        return sum(len(p) for p in self._postings.values())

    def insert(self, value, rowid):
        key = value_sort_key(value)
        postings = self._postings.get(key)
        if postings is None:
            bisect.insort(self._keys, key)
            self._postings[key] = [rowid]
        else:
            bisect.insort(postings, rowid)

    def insert_many(self, pairs):
        """Bulk insert of the iterable *pairs*, ``(value, rowid)`` each.

        Many unseen keys pay one key-list sort instead of a
        ``bisect.insort`` (O(n) list shift) each.
        """
        _add_keys(self._keys, _post(self._postings, (
            (value_sort_key(value), rowid) for value, rowid in pairs
        )))

    def delete(self, value, rowid):
        key = value_sort_key(value)
        postings = self._postings.get(key)
        if postings is None or rowid not in postings:
            raise StorageError(
                "index on %r: row #%s not present under %r" % (self.column, rowid, value)
            )
        postings.remove(rowid)
        if not postings:
            del self._postings[key]
            position = bisect.bisect_left(self._keys, key)
            del self._keys[position]

    def lookup(self, value):
        """Rowids stored exactly under *value*."""
        return list(self._postings.get(value_sort_key(value), ()))

    def range(self, low=None, high=None):
        """Yield rowids with low <= value <= high in ascending key order."""
        if low is None:
            start = 0
        else:
            start = bisect.bisect_left(self._keys, value_sort_key(low))
        if high is None:
            stop = len(self._keys)
        else:
            stop = bisect.bisect_right(self._keys, value_sort_key(high))
        for key in self._keys[start:stop]:
            for rowid in self._postings[key]:
                yield rowid

    def min_key(self):
        return self._keys[0] if self._keys else None

    def max_key(self):
        return self._keys[-1] if self._keys else None

    def distinct_values(self):
        return len(self._keys)


class OrderedCompositeIndex:
    """Sorted index over a tuple of columns, e.g. ``(parent, order_key)``.

    Keys are tuples of per-column sort keys kept in one flat sorted list,
    which gives this index a property a per-key B-tree would not: within
    the contiguous run of keys sharing a prefix, the k-th entry is plain
    list indexing -- O(1) after the O(log n) bisect that locates the run.
    Hierarchical orderings lean on that for positional (ordinal) access
    to siblings without scanning them.
    """

    def __init__(self, columns):
        self.columns = tuple(columns)
        if not self.columns:
            raise StorageError("composite index needs at least one column")
        self._keys = []
        self._postings = {}

    def __len__(self):
        return sum(len(p) for p in self._postings.values())

    def make_key(self, values):
        if len(values) != len(self.columns):
            raise StorageError(
                "composite index on %r takes %d values, got %d"
                % (self.columns, len(self.columns), len(values))
            )
        return tuple(value_sort_key(v) for v in values)

    def insert(self, values, rowid):
        key = self.make_key(values)
        postings = self._postings.get(key)
        if postings is None:
            bisect.insort(self._keys, key)
            self._postings[key] = [rowid]
        else:
            bisect.insort(postings, rowid)

    def insert_many(self, pairs):
        """Bulk insert of the iterable *pairs*, ``(values, rowid)`` each
        (as :meth:`OrderedIndex.insert_many`)."""
        make_key = self.make_key
        _add_keys(self._keys, _post(self._postings, (
            (make_key(values), rowid) for values, rowid in pairs
        )))

    def delete(self, values, rowid):
        key = self.make_key(values)
        postings = self._postings.get(key)
        if postings is None or rowid not in postings:
            raise StorageError(
                "index on %r: row #%s not present under %r"
                % (self.columns, rowid, values)
            )
        postings.remove(rowid)
        if not postings:
            del self._postings[key]
            position = bisect.bisect_left(self._keys, key)
            del self._keys[position]

    def lookup(self, values):
        """Rowids stored exactly under the full key *values*."""
        return list(self._postings.get(self.make_key(values), ()))

    def prefix_bounds(self, prefix):
        """The slot range [start, stop) of keys beginning with *prefix*."""
        if len(prefix) > len(self.columns):
            raise StorageError(
                "prefix of %d values exceeds composite index on %r"
                % (len(prefix), self.columns)
            )
        probe = tuple(value_sort_key(v) for v in prefix)
        start = bisect.bisect_left(self._keys, probe)
        pad = (AFTER_ALL,) * (len(self.columns) - len(probe))
        stop = bisect.bisect_left(self._keys, probe + pad)
        return start, stop

    def rank(self, values):
        """Absolute slot of the full key *values* in the sorted key list."""
        return bisect.bisect_left(self._keys, self.make_key(values))

    def key_at(self, slot):
        return self._keys[slot]

    def rowids_at(self, slot):
        """Rowids stored under the key occupying *slot* (a new list)."""
        return list(self._postings[self._keys[slot]])

    def rowids_slice(self, start, stop):
        """Rowids of slots [start, stop) in ascending key order."""
        out = []
        for key in self._keys[start:stop]:
            out.extend(self._postings[key])
        return out

    def distinct_values(self):
        return len(self._keys)
