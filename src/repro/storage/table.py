"""Heap tables: the physical relations of the data manager.

A :class:`Table` stores rows by rowid, maintains secondary indexes, and
supports predicate scans.  Nothing here knows about entities or music --
this is the relational substrate the ER layer compiles down to.

MVCC version chains
-------------------
Besides the current-row map, every rowid owns a *version chain*: an
immutable tuple of :class:`RowVersion` entries (oldest first), replaced
wholesale on mutation so lock-free snapshot readers can walk a chain
without synchronizing with writers.  A version's lifetime is the
half-open commit-LSN interval ``[begin_lsn, end_lsn)``:

* ``begin_lsn is None`` -- created by a transaction that has not
  committed yet; invisible to every snapshot;
* ``begin_lsn == 0`` -- installed from a checkpoint image, a replica
  seed or crash recovery's redo; visible to all snapshots (its creator
  committed before the image, seed or crash);
* ``end_lsn is None`` -- still current (no committed delete/update
  supersedes it).

A thread that pinned a snapshot ``S`` (via the transaction manager's
``pin_snapshot``) sees exactly the versions with
``begin_lsn <= S < end_lsn``; every read method consults the injected
*snapshot* callable and routes to the chains when one is pinned,
bypassing the row map *and every secondary index* (indexes reflect the
live table and are not safe to read without a lock).  Superseded
versions are pruned opportunistically on the rowid being rewritten and
in bulk at checkpoint, never past the horizon of an active snapshot.
"""

import itertools
import threading

from repro.errors import StorageError, TypeMismatchError
from repro.storage.index import HashIndex, OrderedCompositeIndex, OrderedIndex
from repro.storage.row import Row
from repro.storage.values import Domain, coerce_value, value_sort_key
from repro.text.index import TrigramIndex


class RowVersion:
    """One entry of a rowid's version chain: a row image plus the
    half-open ``[begin_lsn, end_lsn)`` commit-LSN interval it covers."""

    __slots__ = ("row", "begin_lsn", "end_lsn")

    def __init__(self, row, begin_lsn=None, end_lsn=None):
        self.row = row
        self.begin_lsn = begin_lsn
        self.end_lsn = end_lsn

    def __repr__(self):
        return "RowVersion(#%s, [%s, %s))" % (
            self.row.rowid, self.begin_lsn, self.end_lsn
        )


class Column:
    """A named, typed column of a table."""

    __slots__ = ("name", "domain")

    def __init__(self, name, domain):
        if isinstance(domain, str):
            domain = Domain.from_name(domain)
        self.name = name
        self.domain = domain

    def __repr__(self):
        return "Column(%r, %s)" % (self.name, self.domain.value)

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return self.name == other.name and self.domain is other.domain

    def __hash__(self):
        return hash((self.name, self.domain))


class TableSchema:
    """Ordered collection of columns defining a table's shape."""

    def __init__(self, name, columns):
        self.name = name
        self.columns = list(columns)
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            raise StorageError("duplicate column in table %r" % name)

    def column(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise StorageError("table %r has no column %r" % (self.name, name))

    def has_column(self, name):
        return name in self._by_name

    def column_names(self):
        return [c.name for c in self.columns]

    def coerce(self, values):
        """Validate and coerce a dict of values against this schema."""
        out = {}
        for column in self.columns:
            out[column.name] = coerce_value(column.domain, values.get(column.name))
        extra = set(values) - set(self._by_name)
        if extra:
            raise TypeMismatchError(
                "unknown column(s) %s for table %r" % (sorted(extra), self.name)
            )
        return out


class Table:
    """A heap of rows plus secondary indexes.

    Mutations go through ``insert``/``update``/``delete`` so indexes stay
    consistent; the optional *journal* callback receives change records
    the transaction layer turns into WAL entries and undo actions.
    """

    def __init__(self, schema, journal=None, guard=None, metrics=None,
                 on_schema_change=None, journal_batch=None, snapshot=None,
                 prune_horizon=None):
        self.schema = schema
        self.name = schema.name
        self._rows = {}
        self._next_rowid = itertools.count(1)
        self._indexes = {}
        self._journal = journal
        # MVCC: rowid -> immutable tuple of RowVersions, oldest first.
        # Writers replace a rowid's tuple wholesale (under _chains_mutex,
        # which orders them against checkpoint pruning); lock-free
        # snapshot readers walk whatever tuple they atomically observe.
        self._chains = {}
        self._chains_mutex = threading.Lock()
        # *snapshot* returns the pinned snapshot LSN of the calling
        # thread (or None); *prune_horizon* returns the LSN below which
        # no active or future snapshot can look.  Bare tables (tests)
        # leave both None: reads are always current, chains still grow
        # but are pruned aggressively on rewrite.
        self._snapshot = snapshot
        self._prune_horizon = prune_horizon
        # Optional bulk journal hook ``(table_name, rows)``: lets
        # insert_many log one batched WAL record instead of one frame
        # per row; absent, the batch journals row by row.
        self._journal_batch = journal_batch
        # Pre-mutation hook (lock acquisition, read-only refusal): runs
        # before any row or index changes, so its exceptions leave the
        # table exactly as it was.
        self._guard = guard
        # Mutation counters ("table.*"), shared across every table of a
        # database; None (bare tables in tests) means no counting.
        self._metrics = metrics
        if metrics is not None:
            self._inserts = metrics.counter("table.inserts")
            self._updates = metrics.counter("table.updates")
            self._deletes = metrics.counter("table.deletes")
            self._pruned = metrics.counter("mvcc.versions_pruned")
        else:
            self._inserts = self._updates = self._deletes = None
            self._pruned = None
        # Bumped on EVERY row mutation, including the non-journalled
        # recovery/undo paths, so derived caches can detect staleness.
        self.version = 0
        # Notified when the table's queryable shape changes (new index,
        # widened schema); the database routes this to its schema epoch.
        self._on_schema_change = on_schema_change

    # -- snapshot visibility ----------------------------------------------

    def _current_snapshot(self):
        if self._snapshot is None:
            return None
        return self._snapshot()

    def snapshot_active(self):
        """True when the calling thread reads through a pinned snapshot."""
        return self._current_snapshot() is not None

    @staticmethod
    def _visible_row(chain, snapshot):
        """The row of *chain* visible at *snapshot*, or None.

        Walks newest-to-oldest; at most one version of a chain satisfies
        ``begin_lsn <= snapshot < end_lsn`` because committed intervals
        partition the rowid's history.
        """
        for version in reversed(chain):
            begin = version.begin_lsn
            if begin is None or begin > snapshot:
                continue
            end = version.end_lsn
            if end is not None and end <= snapshot:
                continue
            return version.row
        return None

    def _snapshot_rows(self, snapshot):
        """Every row visible at *snapshot* (lock-free, index-free)."""
        visible = self._visible_row
        out = []
        # list() of dict items is atomic under the GIL; each chain tuple
        # is immutable, so concurrent writers can only swap in new
        # tuples we either see whole or not at all.
        for _rowid, chain in list(self._chains.items()):
            row = visible(chain, snapshot)
            if row is not None:
                out.append(row)
        return out

    # -- introspection ----------------------------------------------------

    def __len__(self):
        snapshot = self._current_snapshot()
        if snapshot is None:
            return len(self._rows)
        return len(self._snapshot_rows(snapshot))

    def __iter__(self):
        snapshot = self._current_snapshot()
        if snapshot is None:
            return iter(list(self._rows.values()))
        return iter(self._snapshot_rows(snapshot))

    def rowids(self):
        snapshot = self._current_snapshot()
        if snapshot is None:
            return list(self._rows.keys())
        return [row.rowid for row in self._snapshot_rows(snapshot)]

    def get(self, rowid):
        """Return the row with *rowid*, or None."""
        snapshot = self._current_snapshot()
        if snapshot is None:
            return self._rows.get(rowid)
        chain = self._chains.get(rowid)
        if chain is None:
            return None
        return self._visible_row(chain, snapshot)

    def get_many(self, rowids):
        """Rows for *rowids*, in the given order, skipping missing ones.

        One pass over a snapshot of the row map: callers holding a read
        lock materialize a whole candidate list without a per-rowid
        ``get`` round trip each.
        """
        snapshot = self._current_snapshot()
        out = []
        if snapshot is None:
            rows = self._rows
            for rowid in rowids:
                row = rows.get(rowid)
                if row is not None:
                    out.append(row)
            return out
        chains = self._chains
        for rowid in rowids:
            chain = chains.get(rowid)
            if chain is None:
                continue
            row = self._visible_row(chain, snapshot)
            if row is not None:
                out.append(row)
        return out

    def require(self, rowid):
        row = self.get(rowid)
        if row is None:
            raise StorageError("table %r has no row #%s" % (self.name, rowid))
        return row

    # -- indexes -----------------------------------------------------------

    @staticmethod
    def _index_value(column, row):
        """The key a row contributes to an index: a single column value,
        or a tuple of them for a composite index."""
        if isinstance(column, tuple):
            return tuple(row[c] for c in column)
        return row[column]

    def _reindex(self, old, new):
        """Index upkeep for one row image change: *old* -> *new*.

        Either side may be None (insert, delete).  A key that did not
        change is left alone, so its posting is neither duplicated nor
        dropped and a trigram index's entry tally cannot drift.
        """
        for (column, _), index in self._indexes.items():
            if old is None:
                index.insert(self._index_value(column, new), new.rowid)
            elif new is None:
                index.delete(self._index_value(column, old), old.rowid)
            else:
                old_value = self._index_value(column, old)
                new_value = self._index_value(column, new)
                if old_value != new_value:
                    index.delete(old_value, old.rowid)
                    index.insert(new_value, new.rowid)

    def create_index(self, column, ordered=False):
        """Create (or return) an index over *column*.

        *column* may also be a tuple/list of column names, producing an
        ordered composite index (always ordered -- composite hash
        indexes would add nothing over per-column hashes here).
        """
        if isinstance(column, (tuple, list)):
            column = tuple(column)
            for name in column:
                self.schema.column(name)
            key = (column, True)
            if key in self._indexes:
                return self._indexes[key]
            index = OrderedCompositeIndex(column)
        else:
            self.schema.column(column)
            key = (column, ordered)
            if key in self._indexes:
                return self._indexes[key]
            index = OrderedIndex(column) if ordered else HashIndex(column)
        for row in self._rows.values():
            index.insert(self._index_value(column, row), row.rowid)
        self._indexes[key] = index
        self.notify_schema_change()
        return index

    def notify_schema_change(self):
        if self._on_schema_change is not None:
            self._on_schema_change()

    def index_for(self, column, ordered=False):
        if isinstance(column, (tuple, list)):
            return self._indexes.get((tuple(column), True))
        return self._indexes.get((column, ordered))

    def any_index_for(self, column):
        """Return any index over *column* (ordered preferred), or None."""
        ordered = self._indexes.get((column, True))
        if ordered is not None:
            return ordered
        return self._indexes.get((column, False))

    def indexes(self):
        """Every registered index, keyed by ``(column, kind)``.

        *kind* is ``False`` (hash), ``True`` (ordered / composite), or
        ``"text"`` (trigram).  Read-only view for introspection
        (``\\indexes`` in the shell).
        """
        return dict(self._indexes)

    # Text (trigram) indexes share the generic ``_indexes`` map under
    # the kind tag ``"text"``, so ``_reindex`` maintains them for every
    # mutation, undo and redo path exactly like the equality indexes —
    # inside the same transaction as the row effect.  The
    # equality probes (``index_for`` / ``any_index_for``) only look at
    # the True/False kinds and never see them.

    def create_text_index(self, column):
        """Create (or return) a trigram inverted index over *column*.

        The column must be string-typed: trigram postings over
        non-text domains would index their repr, which no query
        normalization could ever hit coherently.
        """
        schema_column = self.schema.column(column)
        if schema_column.domain is not Domain.STRING:
            raise StorageError(
                "text index needs a string column; %r.%r is %s"
                % (self.name, column, schema_column.domain.value)
            )
        key = (column, "text")
        existing = self._indexes.get(key)
        if existing is not None:
            return existing
        index = TrigramIndex(metrics=self._metrics)
        # One bulk build instead of a per-row insort storm: at catalog
        # scale the backfill is the dominant cost of this DDL.
        index.insert_many(
            (self._index_value(column, row), row.rowid)
            for row in self._rows.values()
        )
        self._indexes[key] = index
        self.notify_schema_change()
        return index

    def drop_text_index(self, column):
        """Drop the trigram index over *column*; returns it (or None)."""
        index = self._indexes.pop((column, "text"), None)
        if index is not None:
            index.detach()
            self.notify_schema_change()
        return index

    def text_index_for(self, column):
        """The trigram index over *column*, or None."""
        return self._indexes.get((column, "text"))

    def text_index_columns(self):
        """Sorted column names carrying a trigram index."""
        return sorted(
            column for (column, kind) in self._indexes if kind == "text"
        )

    # -- mutation ----------------------------------------------------------

    def insert(self, values, rowid=None):
        """Insert a row; returns the new Row."""
        if self._guard is not None:
            self._guard()
        coerced = self.schema.coerce(values)
        if rowid is None:
            rowid = next(self._next_rowid)
            while rowid in self._rows:
                rowid = next(self._next_rowid)
        elif rowid in self._rows:
            raise StorageError("duplicate rowid #%d in table %r" % (rowid, self.name))
        else:
            # Keep the allocator ahead of explicitly provided rowids.
            self._next_rowid = itertools.count(max(rowid + 1, next(self._next_rowid)))
        row = Row(rowid, coerced)
        self._rows[rowid] = row
        self._chain_append(rowid, RowVersion(row))
        self._reindex(None, row)
        self.version += 1
        if self._inserts is not None:
            self._inserts.inc()
        if self._journal is not None:
            self._journal("insert", self.name, row, None)
        return row

    def insert_many(self, values_list):
        """Bulk insert; returns the list of new Rows.

        The COPY-style fast path: the pre-mutation guard runs once for
        the whole batch, every values dict is coerced *before* any row
        is installed (a bad row rejects the batch with the table
        untouched), secondary-index maintenance is deferred to one
        bulk build per index after all rows land, and the batch is
        journalled as a unit through *journal_batch* when the table
        has one (else row by row).
        """
        if not values_list:
            return []
        if self._guard is not None:
            self._guard()
        coerced_list = [self.schema.coerce(values) for values in values_list]
        rows = []
        for coerced in coerced_list:
            rowid = next(self._next_rowid)
            while rowid in self._rows:
                rowid = next(self._next_rowid)
            row = Row(rowid, coerced)
            self._rows[rowid] = row
            self._chain_append(rowid, RowVersion(row))
            rows.append(row)
        for (column, _), index in self._indexes.items():
            index.insert_many(
                [(self._index_value(column, row), row.rowid) for row in rows]
            )
        self.version += 1
        if self._inserts is not None:
            self._inserts.inc(len(rows))
        if self._journal_batch is not None:
            self._journal_batch(self.name, rows)
        elif self._journal is not None:
            for row in rows:
                self._journal("insert", self.name, row, None)
        return rows

    def update(self, rowid, updates):
        """Apply *updates* to the row with *rowid*; returns the new Row."""
        if self._guard is not None:
            self._guard()
        old = self.require(rowid)
        coerced = {}
        for column, value in updates.items():
            coerced[column] = coerce_value(self.schema.column(column).domain, value)
        new = old.replaced(coerced)
        self._rows[rowid] = new
        # The old version stays open (end_lsn None) until the commit
        # stamps it; snapshot readers keep seeing it meanwhile.
        self._chain_append(rowid, RowVersion(new))
        self._prune_rowid(rowid)
        self._reindex(old, new)
        self.version += 1
        if self._updates is not None:
            self._updates.inc()
        if self._journal is not None:
            self._journal("update", self.name, new, old)
        return new

    def delete(self, rowid):
        """Delete the row with *rowid*; returns the deleted Row."""
        if self._guard is not None:
            self._guard()
        old = self.require(rowid)
        del self._rows[rowid]
        # No chain change: the victim version stays open until the
        # commit stamps its end_lsn, so pinned snapshots still see it.
        self._prune_rowid(rowid)
        self._reindex(old, None)
        self.version += 1
        if self._deletes is not None:
            self._deletes.inc()
        if self._journal is not None:
            self._journal("delete", self.name, None, old)
        return old

    def truncate(self):
        """Delete every row (journalled individually)."""
        for rowid in list(self._rows):
            self.delete(rowid)

    # -- MVCC maintenance --------------------------------------------------
    #
    # Chain mutations happen under _chains_mutex because the rewrite is
    # read-modify-write on the chain tuple: per-table X locks serialize
    # writers against each other, but checkpoint pruning runs outside
    # the lock table and must not lose a concurrently appended version.
    # Stamping only assigns version attributes (atomic under the GIL)
    # and needs no mutex.

    def _chain_append(self, rowid, version):
        with self._chains_mutex:
            self._chains[rowid] = self._chains.get(rowid, ()) + (version,)

    def _chain_drop(self, rowid, row):
        """Remove the version holding exactly *row* (by identity)."""
        with self._chains_mutex:
            chain = self._chains.get(rowid, ())
            kept = tuple(v for v in chain if v.row is not row)
            if kept:
                self._chains[rowid] = kept
            else:
                self._chains.pop(rowid, None)

    def _chain_version_of(self, row):
        for version in reversed(self._chains.get(row.rowid, ())):
            if version.row is row:
                return version
        return None

    def stamp_change(self, lsn, action, new_row, old_row):
        """Stamp one committed change's versions with commit LSN *lsn*.

        Called by the transaction manager for every change of a
        committing transaction, inside the WAL append critical section
        (so the stamp lands before the commit's LSN can become the
        durable snapshot of any reader).  Versions are matched by row
        identity: an insert→update→delete sequence on one rowid inside
        a single transaction leaves intermediate versions stamped
        ``[lsn, lsn)``, which no snapshot can ever see.
        """
        if action in ("update", "delete"):
            version = self._chain_version_of(old_row)
            if version is not None:
                version.end_lsn = lsn
        if action in ("insert", "update"):
            version = self._chain_version_of(new_row)
            if version is not None:
                version.begin_lsn = lsn

    # Undo paths: invoked while rolling back an uncommitted (or
    # failed-to-flush) transaction.  The mutating thread still holds its
    # X locks, so the row map and indexes are private to it; chains are
    # shared with snapshot readers, hence the identity-targeted drop /
    # reopen instead of wholesale replacement.

    def undo_insert(self, row):
        """Roll back an uncommitted insert of *row*."""
        rowid = row.rowid
        if self._rows.get(rowid) is row:
            del self._rows[rowid]
            self._reindex(row, None)
        self._chain_drop(rowid, row)
        self.version += 1

    def undo_update(self, new_row, old_row):
        """Roll back an uncommitted update *old_row* -> *new_row*."""
        rowid = new_row.rowid
        self._rows[rowid] = old_row
        self._reindex(new_row, old_row)
        self._chain_drop(rowid, new_row)
        version = self._chain_version_of(old_row)
        if version is not None:
            version.end_lsn = None  # reopen: the commit stamp never took
        self.version += 1

    def undo_delete(self, old_row):
        """Roll back an uncommitted delete of *old_row*."""
        rowid = old_row.rowid
        self._rows[rowid] = old_row
        self._reindex(None, old_row)
        version = self._chain_version_of(old_row)
        if version is not None:
            version.end_lsn = None
        self.version += 1

    def _prune_rowid(self, rowid):
        if self._prune_horizon is None:
            # Bare table (no transaction manager): nothing stamps or
            # snapshots versions, so superseded images can go at once.
            with self._chains_mutex:
                chain = self._chains.get(rowid)
                if chain is None:
                    return
                if rowid in self._rows:
                    self._chains[rowid] = (chain[-1],)
                else:
                    del self._chains[rowid]
            return
        self._prune_chain(rowid, self._prune_horizon())

    def _prune_chain(self, rowid, horizon):
        """Drop versions of *rowid* invisible to every snapshot >= horizon."""
        pruned = 0
        with self._chains_mutex:
            chain = self._chains.get(rowid)
            if chain is None:
                return 0
            kept = tuple(
                v for v in chain
                if v.end_lsn is None or v.end_lsn > horizon
            )
            if len(kept) == len(chain):
                return 0
            pruned = len(chain) - len(kept)
            if kept:
                self._chains[rowid] = kept
            else:
                del self._chains[rowid]
        if self._pruned is not None:
            self._pruned.inc(pruned)
        return pruned

    def prune_versions(self, horizon):
        """Prune every chain against *horizon*; returns versions dropped.

        Safe against concurrent readers because a snapshot pinned from
        now on is at least *horizon* (the caller computes the horizon as
        ``min(active snapshots, current durable LSN)`` with the durable
        LSN read first, and LSNs are monotone), and a version with
        ``end_lsn <= horizon`` is invisible to every snapshot
        ``>= horizon``.
        """
        total = 0
        for rowid, chain in list(self._chains.items()):
            # A lone open version is the steady state of nearly every
            # rowid; skip it without taking the chain mutex.
            if len(chain) > 1 or chain[0].end_lsn is not None:
                total += self._prune_chain(rowid, horizon)
        return total

    def scan(self, predicate=None):
        """Yield rows, optionally filtered by *predicate(row)*."""
        for row in self:
            if predicate is None or predicate(row):
                yield row

    def select_eq(self, column, value):
        """Rows where *column* == *value*, via an index when available.

        Under a pinned snapshot the indexes (which mirror the live
        table and are unsafe to read lock-free) are bypassed in favor
        of a visible-row scan.
        """
        snapshot = self._current_snapshot()
        if snapshot is not None:
            return [
                row for row in self._snapshot_rows(snapshot)
                if row[column] == value
            ]
        index = self.any_index_for(column)
        if index is not None:
            rows = []
            for rowid in index.lookup(value):
                row = self._rows.get(rowid)
                if row is not None:
                    rows.append(row)
            return rows
        return [row for row in self._rows.values() if row[column] == value]

    def select_range(self, column, low=None, high=None):
        """Rows with low <= column <= high, via an ordered index if present."""
        snapshot = self._current_snapshot()
        if snapshot is None:
            index = self.index_for(column, ordered=True)
            if index is not None:
                rows = []
                for rowid in index.range(low, high):
                    row = self._rows.get(rowid)
                    if row is not None:
                        rows.append(row)
                return rows
            source = self._rows.values()
        else:
            source = self._snapshot_rows(snapshot)
        low_key = None if low is None else value_sort_key(low)
        high_key = None if high is None else value_sort_key(high)
        out = []
        for row in source:
            key = value_sort_key(row[column])
            if low_key is not None and key < low_key:
                continue
            if high_key is not None and key > high_key:
                continue
            out.append(row)
        return out

    def sorted_by(self, column, descending=False):
        """All rows sorted by *column* (section 5.2's key ordering)."""
        snapshot = self._current_snapshot()
        source = (
            self._rows.values() if snapshot is None
            else self._snapshot_rows(snapshot)
        )
        return sorted(
            source,
            key=lambda row: value_sort_key(row[column]),
            reverse=descending,
        )

    # -- committed-change install (image load, replica seed, redo) -----------

    def install_committed(self, lsn, rowid, row):
        """Make *row* the current image of *rowid* as of commit *lsn*.

        *row* None deletes the rowid; a rowid already present is
        overwritten (redo of an update, or image load and log replay
        overlapping after a crash between the image commit and the log
        truncation), so the call is idempotent.  The one entry point for
        changes that are committed before they reach this table: a
        checkpoint image row, a replica seed row, a redone log record.
        No journal, guard or lock is involved -- the caller (recovery,
        or a replica's single applier thread) is the only writer.

        The superseded version ends at *lsn* and the new one begins
        there, so a reader pinned below *lsn* keeps its image while the
        change lands; then the rowid's chain is pruned to the horizon,
        as ``update``/``delete`` do.  Recovery and loads pass LSN 0 (the
        horizon is never below it), which leaves exactly one version,
        visible to every snapshot.
        """
        old = self._rows.get(rowid)
        if row is None:
            if old is None:
                return
            del self._rows[rowid]
        else:
            self._rows[rowid] = row
            self._next_rowid = itertools.count(
                max(rowid + 1, next(self._next_rowid))
            )
        self._reindex(old, row)
        if row is not None:
            self._chain_append(rowid, RowVersion(row, lsn, None))
        if old is not None:
            version = self._chain_version_of(old)
            if version is not None:
                version.end_lsn = lsn
            self._prune_rowid(rowid)
        self.version += 1
