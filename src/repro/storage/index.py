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
    """Equality index: value -> set of rowids."""

    def __init__(self, column):
        self.column = column
        self._buckets = {}

    def __len__(self):
        return sum(len(b) for b in self._buckets.values())

    def insert(self, value, rowid):
        key = self._key(value)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {rowid}
        else:
            bucket.add(rowid)

    def insert_many(self, pairs):
        """Bulk insert of ``(value, rowid)`` pairs; a bucket is made
        only for a key not yet held (no ``setdefault`` default per row)."""
        buckets, key_of = self._buckets, self._key
        for value, rowid in pairs:
            key = key_of(value)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {rowid}
            else:
                bucket.add(rowid)

    def delete(self, value, rowid):
        key = self._key(value)
        bucket = self._buckets.get(key)
        if bucket is None or rowid not in bucket:
            raise StorageError(
                "index on %r: row #%s not present under %r" % (self.column, rowid, value)
            )
        bucket.discard(rowid)
        if not bucket:
            del self._buckets[key]

    def lookup(self, value):
        """Return the rowids stored under *value* (a new list,
        ascending, as every index's ``lookup`` answers)."""
        return sorted(self._buckets.get(self._key(value), ()))

    def max_key(self):
        return max(self._buckets, default=None)

    def distinct_values(self):
        return len(self._buckets)

    # Normalize numerics so 1, 1.0 and Fraction(1) share a bucket,
    # matching the comparison semantics of the executor.
    _key = staticmethod(value_sort_key)


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
        """Bulk insert of ``(value, rowid)`` pairs.

        Large batches pay one key-list sort instead of a
        ``bisect.insort`` (O(n) list shift) per previously unseen key.
        """
        if len(pairs) < 16:
            for value, rowid in pairs:
                self.insert(value, rowid)
            return
        new_keys = []
        for value, rowid in pairs:
            key = value_sort_key(value)
            postings = self._postings.get(key)
            if postings is None:
                self._postings[key] = [rowid]
                new_keys.append(key)
            else:
                bisect.insort(postings, rowid)
        if new_keys:
            self._keys.extend(new_keys)
            self._keys.sort()

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
        """Bulk insert of ``(values, rowid)`` pairs (one sort, as in
        :meth:`OrderedIndex.insert_many`)."""
        if len(pairs) < 16:
            for values, rowid in pairs:
                self.insert(values, rowid)
            return
        new_keys = []
        for values, rowid in pairs:
            key = self.make_key(values)
            postings = self._postings.get(key)
            if postings is None:
                self._postings[key] = [rowid]
                new_keys.append(key)
            else:
                bisect.insort(postings, rowid)
        if new_keys:
            self._keys.extend(new_keys)
            self._keys.sort()

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
