"""Secondary indexes: a column's hash index and an ordering's composite.

Section 5.2 of the paper observes that relational systems use key
ordering "purely as a performance optimization".  A column has one
index kind, :class:`HashIndex`: the QUEL planner asks
``Table.index_for`` for it on an equality restriction and builds it
when there is none.  :class:`OrderedCompositeIndex` serves an
ordering's sibling walk.
"""

import bisect

from repro.errors import StorageError


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

    def lookup_many(self, values):
        """The rowids stored under each of *values* in turn, each
        value's ascending (one new list)."""
        out = []
        for bucket in map(self._buckets.get, values):
            if type(bucket) is int:
                out.append(bucket)
            elif bucket:
                out.extend(bucket)
        return out

    def max_key(self):
        """The largest value held (None: none), of values that compare
        with each other, as an entity's surrogates do."""
        return max(self._buckets, default=None)

    def distinct_values(self):
        return len(self._buckets)


class OrderedCompositeIndex:
    """Sorted index over two columns, ``(group, order)``, e.g. an
    ordering's ``(parent, order_key)``: per group value, two aligned
    lists -- the order values ascending and their rowids, equal values
    by ascending rowid.

    A group's siblings are one dict hit away, and everything positional
    about them -- how many, the k-th one's key, the slice strictly
    between two keys -- is list indexing or a bisect inside that one
    group's keys, which hold the stored values themselves: a column
    holds one domain, so they compare as they are.  A row whose order
    value is null is held apart, by group: ``lookup`` and ``len`` count
    it, no positional read sees it (an ordering's keys are never null).
    """

    def __init__(self, columns):
        self.columns = tuple(columns)
        if len(self.columns) != 2:
            raise StorageError(
                "composite index takes two columns (group, order), got %r"
                % (self.columns,)
            )
        self._groups = {}  # group value -> (keys, rowids)
        self._nulls = {}  # group value -> ascending rowids of null keys

    def __len__(self):
        return sum(len(keys) for keys, _ in self._groups.values()) + sum(
            len(rowids) for rowids in self._nulls.values()
        )

    def insert(self, values, rowid):
        group, key = values
        if key is None:
            bisect.insort(self._nulls.setdefault(group, []), rowid)
            return
        held = self._groups.get(group)
        if held is None:
            self._groups[group] = ([key], [rowid])
            return
        keys, rowids = held
        if key > keys[-1] or key == keys[-1] and rowid > rowids[-1]:
            keys.append(key)
            rowids.append(rowid)
            return
        low = bisect.bisect_left(keys, key)
        high = bisect.bisect_right(keys, key, low)
        at = bisect.bisect_left(rowids, rowid, low, high)
        keys.insert(at, key)
        rowids.insert(at, rowid)

    def insert_many(self, pairs):
        """Bulk insert of the iterable *pairs*, ``(values, rowid)`` each:
        a group that took any is sorted once."""
        added = {}
        for (group, key), rowid in pairs:
            if key is None:
                bisect.insort(self._nulls.setdefault(group, []), rowid)
            else:
                added.setdefault(group, []).append((key, rowid))
        groups = self._groups
        for group, entries in added.items():
            held = groups.get(group)
            if held is not None:
                entries.extend(zip(*held))
            entries.sort()
            groups[group] = (
                [key for key, _ in entries], [rowid for _, rowid in entries]
            )

    def delete(self, values, rowid):
        group, key = values
        if key is None:
            rowids = self._nulls.get(group, ())
            if rowid in rowids:
                rowids.remove(rowid)
                if not rowids:
                    del self._nulls[group]
                return
        else:
            keys, rowids = self._groups.get(group, ((), ()))
            low = bisect.bisect_left(keys, key)
            high = bisect.bisect_right(keys, key, low)
            at = bisect.bisect_left(rowids, rowid, low, high)
            if at < high and rowids[at] == rowid:
                del keys[at], rowids[at]
                if not keys:
                    del self._groups[group]
                return
        raise StorageError(
            "index on %r: row #%s not present under %r"
            % (self.columns, rowid, values)
        )

    def lookup(self, values):
        """Rowids stored exactly under *values* (a new list, ascending)."""
        group, key = values
        if key is None:
            return list(self._nulls.get(group, ()))
        held = self._groups.get(group)
        if held is None:
            return []
        keys, rowids = held
        low = bisect.bisect_left(keys, key)
        return rowids[low:bisect.bisect_right(keys, key, low)]

    # -- positional reads within one group ---------------------------------

    def count(self, group):
        """How many rows of *group* have an order value."""
        held = self._groups.get(group)
        return 0 if held is None else len(held[0])

    def key_at(self, group, position):
        """The order value at 0-based *position* within *group*."""
        return self._groups[group][0][position]

    def position(self, group, key):
        """The 0-based position *key* holds, or would, within *group*:
        how many of its order values are less than *key*."""
        held = self._groups.get(group)
        return 0 if held is None else bisect.bisect_left(held[0], key)

    def between(self, group, after=None, before=None):
        """Rowids of *group* whose order value lies strictly between
        *after* and *before* (None: unbounded), in order (a new list)."""
        held = self._groups.get(group)
        if held is None:
            return []
        keys, rowids = held
        start = 0 if after is None else bisect.bisect_right(keys, after)
        stop = None if before is None else bisect.bisect_left(keys, before)
        return rowids[start:stop]
