"""Heap tables: the physical relations of the data manager.

A :class:`Table` stores rows by rowid, maintains secondary indexes, and
supports predicate scans.  Nothing here knows about entities or music --
this is the relational substrate the ER layer compiles down to.

MVCC version chains
-------------------
A rowid has a *version chain* only while some snapshot that is pinned,
or may yet be pinned, could read something other than its current row:
the first settle after that drops it (the stale set, below).  A
chainless rowid's row (or its absence) is what every such snapshot
reads -- as a load's rows are, which install at LSN 0 (checkpoint
image, replica seed, crash recovery's redo).  A chain is an immutable
tuple of :class:`RowVersion` entries (oldest first), replaced wholesale
on mutation and always set before the row map changes.  A version
covers the commit-LSN interval ``[begin_lsn, end_lsn)``: ``begin_lsn``
None is not yet committed, ``end_lsn`` None still current and
:data:`_PENDING` superseded by a change not yet committed.  A writer
that touches a chainless rowid first gives its row the version
``[0, ...)``: no snapshot that may be pinned can tell it from one that
began at its real LSN.

A thread that pinned snapshot ``S`` (the transaction manager's
``pin_snapshot``) sees the versions with ``begin_lsn <= S < end_lsn``:
it reads a rowid's row, then its chain, and answers from the chain if
there is one.  A chain is dropped (:meth:`Table._settle`) only when it
holds nothing, or one current, committed version that began at or below
the prune horizon -- which the reader's pin holds at or below ``S``.
So a row the reader finds chainless is visible at ``S``: a write that
changed the row map after the pin commits above ``S``, and its chain
outlives the reader.  An undo's change carries no LSN, so it bumps
``_retracted`` after the row map changes, and a read that saw the count
move reads again.

Snapshot reads
--------------
A pinned reader takes no table lock, yet answers from the same indexes
as a locked one.  The indexes describe the *current* rows only, so two
pieces of per-table state bridge the gap:

* the **latch** -- one mutex.  Every path that changes what the
  indexes describe (``insert``/``insert_many``/``update``/``delete``,
  the three undo paths, ``install_committed``, index creation) holds it
  around "row map + ``_reindex`` + chain" and nothing else; a pinned
  reader holds it only while it probes index structures and copies the
  stale set (:meth:`Table.probe`) -- never across a row fetch, a
  predicate, a journal callback, a lock wait, a WAL append or an fsync.
  Lock order is latch -> the snapshot registry mutex, never the reverse.
* the **stale set** -- the chained rowids, queued in latest-write order
  (a rowid written again moves to the back).  Every mutation call and
  every pinned probe settles the front of the queue while its entries
  settle, 256 a latch hold, and stops at the first that cannot: the
  ones behind it were written later.  ``prune_versions`` sweeps all of
  it.  So the set's size follows the writes since the oldest pinned
  snapshot or uncommitted write, not since the last checkpoint.

The invariant is a *verified superset*: for any snapshot ``S`` that may
be pinned and any indexed predicate, the rowids whose version visible
at ``S`` satisfies it are contained in (index probe over current rows)
union (stale set), both taken in one latch hold.  A rowid outside the
stale set is chainless: ``S`` reads its current row, which the index
describes, so the probe decides it exactly.  A stale rowid is a
candidate regardless, and a writer that rewrites it *after* the hold
cannot take the version visible at ``S`` away -- the reader's pin holds
the prune horizon at or below ``S``.  Candidates are fetched at ``S``
(:meth:`Table.fetch`): a stale rowid's visible version, which need not
match what the index says of its current one, is re-checked on every
restriction; the probe decides every other hit.
"""

import itertools
import threading
from collections import OrderedDict
from operator import attrgetter

from repro.errors import StorageError, TypeMismatchError
from repro.storage.index import HashIndex, OrderedCompositeIndex
from repro.storage.row import Layout, Row
from repro.storage.values import Domain, coerce_value, value_sort_key
from repro.text.index import TrigramIndex
from repro.text.normalize import trigrams


#: The ``end_lsn`` of a version a change not yet committed superseded:
#: above every snapshot, as a current version's None is, but not current.
_PENDING = float("inf")

_ROWID = attrgetter("rowid")


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
    """Ordered collection of columns defining a table's shape, and the
    :class:`Layout` its rows are held by."""

    def __init__(self, name, columns):
        self.name = name
        self.layout = Layout()
        self.set_columns(columns)

    def set_columns(self, columns):
        """Reshape in place (the storage catalog widens a table this
        way, and an undone widening narrows it back).  The layout only
        grows, so a row made before a column reads it as null."""
        columns = list(columns)
        by_name = {c.name: c for c in columns}
        if len(by_name) != len(columns):
            raise StorageError("duplicate column in table %r" % self.name)
        for column in columns:
            self.layout.add_column(column.name)
        self.columns, self._by_name = columns, by_name
        # Per layout position, the name and the domain coerce() fills it
        # by: None for a column the table no longer has.
        self._slots = [
            (name, by_name[name].domain if name in by_name else None)
            for name in self.layout
        ]

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
        """Validate and coerce a dict of values against this schema:
        the values tuple of a row over :attr:`layout`."""
        if not values.keys() <= self._by_name.keys():
            raise TypeMismatchError(
                "unknown column(s) %s for table %r"
                % (sorted(values.keys() - self._by_name.keys()), self.name)
            )
        get = values.get
        return tuple([coerce_value(domain, get(name)) for name, domain in self._slots])


class Table:
    """A heap of rows plus secondary indexes.

    Every table belongs to a :class:`~repro.storage.database.Database`.
    Mutations go through ``insert``/``update``/``delete`` so indexes stay
    consistent; each hands its ``(action, table, new_row, old_row)``
    changes as one list to the database's transaction journal, which
    turns them into a commit and undo actions.
    """

    def __init__(self, schema, database):
        self.schema = schema
        self.name = schema.name
        self._database = database
        self._rows = {}
        self._next_rowid = itertools.count(1)
        self._indexes = {}
        transactions = database.transactions
        self._journal = transactions.journal
        # MVCC: rowid -> immutable tuple of RowVersions, oldest first,
        # while a snapshot may need one; every other rowid's one version
        # is its row.  Writers replace a rowid's tuple wholesale (under
        # the latch); lock-free snapshot readers walk whatever tuple
        # they atomically observe.
        self._chains = {}
        # Undos, counted between the row map change and any drop of the
        # chain it allows: a pinned read that saw the count move reads
        # again.
        self._retracted = 0
        # _snapshot() is the calling thread's pinned snapshot LSN (or
        # None); _prune_horizon() the LSN below which no active or
        # future snapshot can look.
        self._snapshot = transactions.current_snapshot
        self._prune_horizon = transactions.prune_horizon
        # Snapshot reads (module docstring): the latch orders index
        # upkeep against pinned readers' probes; the stale set queues
        # the chained rowids, least recently written first.  Re-entrant
        # so an adaptive create_index can run inside a probe.
        self._latch = threading.RLock()
        self._stale = OrderedDict()
        # Pre-mutation hook (lock acquisition, read-only refusal): runs
        # before any row or index changes, so its exceptions leave the
        # table exactly as it was.
        self._guard = database._guard_for(self.name)
        # Mutation counters ("table.*"), shared by the database's tables.
        metrics = self._metrics = database.metrics
        self._inserts = metrics.counter("table.inserts")
        self._updates = metrics.counter("table.updates")
        self._deletes = metrics.counter("table.deletes")
        self._pruned = metrics.counter("mvcc.versions_pruned")
        self._stale_gauge = metrics.gauge("mvcc.stale_rowids")
        # Bumped on EVERY row mutation, including the non-journalled
        # recovery/undo paths, so derived caches can detect staleness.
        self.version = 0
        # Called when the table's queryable shape changes (new index,
        # widened schema): the database's schema epoch.
        self._on_schema_change = database.bump_schema_epoch
        # True between defer_index_upkeep() and build_deferred_indexes():
        # rows install, indexes only register, nothing reads them.
        self._deferring = False
        # Journalled changes applied here that no commit has stamped and
        # no undo taken back: an open transaction's, a statement's on
        # its way to the log, an abandoned transaction's for good.
        # Moved under the latch, with the index upkeep it counts, so
        # whoever holds the latch and reads 0 sees indexes that
        # describe committed rows only (dump_text_indexes).
        self._unstamped = 0

    # -- snapshot visibility ----------------------------------------------

    @staticmethod
    def _visible_row(chain, snapshot):
        """The row of *chain* visible at *snapshot*, or None.

        Walks newest-to-oldest; at most one version of a chain satisfies
        ``begin_lsn <= snapshot < end_lsn`` because committed intervals
        partition the rowid's history.
        """
        version = chain[-1]  # nearly every chain's case, decided first
        begin = version.begin_lsn
        if version.end_lsn is None and begin is not None and begin <= snapshot:
            return version.row
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
        """Every row visible at *snapshot*, in ascending rowid order
        (lock-free, index-free; module docstring)."""
        # rowid -> its row, or its chain where it has one: both copies
        # are atomic under the GIL, and the rows' is taken first.
        retracted = None
        while retracted != self._retracted:
            retracted = self._retracted
            held = self._rows.copy()
            held.update(self._chains)
        out = []
        visible = self._visible_row
        for entry in held.values():
            if type(entry) is not tuple:
                out.append(entry)  # chainless: one version, visible to all
                continue
            row = visible(entry, snapshot)
            if row is not None:
                out.append(row)
        out.sort(key=_ROWID)
        return out

    def _visible_rows(self, rowids, snapshot):
        """The rows of the sequence *rowids* visible at *snapshot*, in
        its order (module docstring)."""
        rows, chains, visible = self._rows, self._chains, self._visible_row
        retracted = None
        while retracted != self._retracted:
            retracted = self._retracted
            out = []
            for rowid in rowids:
                row = rows.get(rowid)
                chain = chains.get(rowid)
                if chain is not None:
                    row = visible(chain, snapshot)
                if row is not None:
                    out.append(row)
        return out

    # -- introspection ----------------------------------------------------

    def __len__(self):
        snapshot = self._snapshot()
        if snapshot is None:
            return len(self._rows)
        return len(self._snapshot_rows(snapshot))

    def __iter__(self):
        snapshot = self._snapshot()
        if snapshot is None:
            return iter(list(self._rows.values()))
        return iter(self._snapshot_rows(snapshot))

    def rowids(self):
        snapshot = self._snapshot()
        if snapshot is None:
            return list(self._rows.keys())
        return [row.rowid for row in self._snapshot_rows(snapshot)]

    def get(self, rowid):
        """Return the row with *rowid*, or None."""
        snapshot = self._snapshot()
        if snapshot is None:
            return self._rows.get(rowid)
        retracted = None
        while retracted != self._retracted:  # module docstring
            retracted = self._retracted
            row = self._rows.get(rowid)
            chain = self._chains.get(rowid)
        return row if chain is None else self._visible_row(chain, snapshot)

    def get_many(self, rowids):
        """Rows for *rowids*, in the given order, skipping missing ones.

        One pass over a snapshot of the row map: callers holding a read
        lock materialize a whole candidate list without a per-rowid
        ``get`` round trip each.
        """
        snapshot = self._snapshot()
        if snapshot is not None:
            return self._visible_rows(rowids, snapshot)
        rows = self._rows
        out = []
        for rowid in rowids:
            row = rows.get(rowid)
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
        if self._deferring:
            return
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

    def create_index(self, column):
        """Create (or return) the index over *column*: a hash index, or,
        for a tuple/list of two column names ``(group, order)``, an
        ordered composite index."""
        if isinstance(column, (tuple, list)):
            column = tuple(column)
            for name in column:
                self.schema.column(name)
            key = (column, True)
        else:
            self.schema.column(column)
            key = (column, False)
        # Under the latch: a pinned reader may build an index adaptively
        # while a writer maintains the others.
        with self._latch:
            if key in self._indexes:
                return self._indexes[key]
            if isinstance(column, tuple):
                index = OrderedCompositeIndex(column)
            else:
                index = HashIndex(column)
            self._index_rows(column, index, self._rows.values())
            self._indexes[key] = index
        self._on_schema_change()
        return index

    def _index_rows(self, column, index, rows):
        """Add *rows* to *index* in one bulk build (one key sort, not an
        insort per row): the adaptive index a first query builds, a text
        index's backfill and ``insert_many`` all pay for this."""
        if self._deferring:
            return
        # _index_value's two cases, decided once and not per row; a
        # column's slot is looked up once a build, not once a row.
        if isinstance(column, tuple):
            pairs = ((tuple(row[c] for c in column), row.rowid) for row in rows)
        else:
            at = self.schema.layout[column]
            pairs = (
                (row.values[at] if at < len(row.values) else None, row.rowid)
                for row in rows
            )
        index.insert_many(pairs)

    # Deferred upkeep: the two loads that fill an empty table before any
    # reader can exist -- recovery (image + redo) and a replica's seed --
    # install their rows with the indexes merely registered, then build
    # each one once from the rows that are left.  A row installed and
    # later deleted or retitled by the log never reaches an index.

    def defer_index_upkeep(self):
        """Stop maintaining indexes until :meth:`build_deferred_indexes`.

        Only an empty table may enter (its registered indexes are then
        empty too, so the build that ends the deferral starts from
        nothing); :meth:`probe` refuses while it lasts.
        """
        if self._rows:
            raise StorageError(
                "table %r holds rows; index upkeep is deferred only while "
                "an empty table is loaded" % self.name
            )
        self._deferring = True

    def _loading(self):
        """Whether a load is filling this table: the one time it may
        take an LSN-0 install (:meth:`install_committed`)."""
        return self._deferring

    def build_deferred_indexes(self, loaded=()):
        """End the deferral: fill every registered index from the
        current rows, one ``insert_many`` each -- but for the text
        indexes over the columns *loaded*, which the caller has filled
        from a dump of these rows (``Database.build_deferred_indexes``).
        Returns how many it built."""
        with self._latch:
            self._deferring = False
            build = [
                (column, index) for (column, kind), index in self._indexes.items()
                if kind != "text" or column not in loaded
            ]
            for column, index in build:
                self._index_rows(column, index, self._rows.values())
        return len(build)

    def index_for(self, column):
        """The index :meth:`create_index` made over *column*, or None."""
        if isinstance(column, (tuple, list)):
            return self._indexes.get((tuple(column), True))
        return self._indexes.get((column, False))

    def indexes(self):
        """Every registered index, keyed by ``(column, kind)``.

        *kind* is ``False`` (hash), ``True`` (composite), or
        ``"text"`` (trigram).  Read-only view for introspection
        (``\\indexes`` in the shell).
        """
        return dict(self._indexes)

    # Text (trigram) indexes share the generic ``_indexes`` map under
    # the kind tag ``"text"``, so ``_reindex`` maintains them for every
    # mutation, undo and redo path exactly like the equality indexes —
    # inside the same transaction as the row effect.  ``index_for``
    # only looks at the True/False kinds and never sees them.

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
        with self._latch:
            existing = self._indexes.get(key)
            if existing is not None:
                return existing
            index = TrigramIndex(metrics=self._metrics)
            # At catalog scale the backfill is the dominant cost of
            # this DDL.
            self._index_rows(column, index, self._rows.values())
            self._indexes[key] = index
        self._on_schema_change()
        return index

    def drop_text_index(self, column):
        """Drop the trigram index over *column*; returns it (or None)."""
        with self._latch:
            index = self._indexes.pop((column, "text"), None)
        if index is not None:
            index.detach()
            self._on_schema_change()
        return index

    def text_index_for(self, column):
        """The trigram index over *column*, or None."""
        return self._indexes.get((column, "text"))

    def text_index_columns(self):
        """Sorted column names carrying a trigram index."""
        return sorted(
            column for (column, kind) in list(self._indexes) if kind == "text"
        )

    def dump_text_indexes(self):
        """``[(column, rows, TrigramIndex.dump() pieces), ...]``, taken in
        one latch hold -- or None while a table that has text indexes
        holds a change no commit has stamped (or is still loading),
        when they describe more than the committed rows.  A caller inside
        the log's roll has every stamped change durable."""
        with self._latch:
            indexes = [
                (column, self._indexes[column, "text"])
                for column in self.text_index_columns()
            ]
            if indexes and (self._unstamped or self._deferring):
                return None
            return [(column, len(index), index.dump()) for column, index in indexes]

    # -- mutation ----------------------------------------------------------

    def insert(self, values, rowid=None):
        """Insert a row; returns the new Row."""
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
        row = Row(rowid, coerced, self.schema.layout)
        with self._latch:
            self._chain_append(rowid, RowVersion(row))
            self._rows[rowid] = row
            self._reindex(None, row)
            self._unstamped += 1
        self._trim()
        self.version += 1
        self._inserts.inc()
        self._journal((("insert", self.name, row, None),))
        return row

    def insert_many(self, values_list):
        """Bulk insert; returns the list of new Rows.

        The COPY-style fast path: the pre-mutation guard runs once for
        the whole batch, every values dict is coerced *before* any row
        is installed (a bad row rejects the batch with the table
        untouched), secondary-index maintenance is deferred to one
        bulk build per index after all rows land, and the batch is
        journalled as one list of changes.
        """
        if not values_list:
            return []
        self._guard()
        coerced_list = [self.schema.coerce(values) for values in values_list]
        layout = self.schema.layout
        rows = []
        with self._latch:
            for coerced in coerced_list:
                rowid = next(self._next_rowid)
                while rowid in self._rows:
                    rowid = next(self._next_rowid)
                row = Row(rowid, coerced, layout)
                self._chain_append(rowid, RowVersion(row))
                self._rows[rowid] = row
                rows.append(row)
            for (column, _), index in self._indexes.items():
                self._index_rows(column, index, rows)
            self._unstamped += len(rows)
        self._trim()
        self.version += 1
        self._inserts.inc(len(rows))
        self._journal([("insert", self.name, row, None) for row in rows])
        return rows

    def update(self, rowid, updates):
        """Apply *updates* to the row with *rowid*; returns the new Row."""
        self._guard()
        old = self.require(rowid)
        coerced = {}
        for column, value in updates.items():
            coerced[column] = coerce_value(self.schema.column(column).domain, value)
        new = old.replaced(coerced)
        with self._latch:
            # The old version stays visible (end_lsn pending) until the
            # commit stamps it; snapshot readers keep seeing it meanwhile.
            self._chain_append(rowid, RowVersion(new))
            self._rows[rowid] = new
            self._reindex(old, new)
            self._unstamped += 1
        self._trim(rowid)
        self.version += 1
        self._updates.inc()
        self._journal((("update", self.name, new, old),))
        return new

    def delete(self, rowid):
        """Delete the row with *rowid*; returns the deleted Row."""
        self._guard()
        old = self.require(rowid)
        with self._latch:
            # The victim version stays visible until the commit stamps
            # its end_lsn, so pinned snapshots still see it.
            self._chain_append(rowid)
            del self._rows[rowid]
            self._reindex(old, None)
            self._unstamped += 1
        self._trim(rowid)
        self.version += 1
        self._deletes.inc()
        self._journal((("delete", self.name, None, old),))
        return old

    # -- MVCC maintenance --------------------------------------------------

    def _chain_append(self, rowid, version=None, end=_PENDING):
        """End *rowid*'s current version (if it has a row) at *end*,
        append *version* (if any) and queue the rowid at the back of the
        stale set.  A chainless rowid's row first enters the chain as its
        LSN-0 version.  Called under the latch, before the row map
        changes (module docstring)."""
        chain = self._chains.get(rowid)
        held = self._rows.get(rowid)
        if chain is None:
            chain = () if held is None else (RowVersion(held, 0, None),)
        if held is not None:
            chain[-1].end_lsn = end
        if version is not None:
            chain += (version,)
        self._chains[rowid] = chain
        stale = self._stale
        if rowid in stale:
            stale.move_to_end(rowid)
        else:
            stale[rowid] = None
            self._stale_gauge.inc()

    def _chain_drop(self, rowid, row):
        """Remove the version holding exactly *row* (by identity);
        called under the latch."""
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
        committing transaction, inside the hold of the WAL append mutex
        (so the stamp lands before the commit's LSN can become the
        durable snapshot of any reader).  Versions are matched by row
        identity: an insert→update→delete sequence on one rowid inside
        a single transaction leaves intermediate versions stamped
        ``[lsn, lsn)``, which no snapshot can ever see.  *lsn* None
        takes the stamp back (an end goes back to pending), for a commit
        whose flush failed and whose changes are about to be undone.  A
        stamp only assigns version attributes (atomic under the GIL), so
        it takes no latch.
        """
        if action in ("update", "delete"):
            version = self._chain_version_of(old_row)
            if version is not None:
                version.end_lsn = _PENDING if lsn is None else lsn
        if action in ("insert", "update"):
            version = self._chain_version_of(new_row)
            if version is not None:
                version.begin_lsn = lsn
        with self._latch:
            self._unstamped += 1 if lsn is None else -1

    # Undo paths: invoked while rolling back an uncommitted (or
    # failed-to-flush) transaction.  The mutating thread still holds its
    # X locks, so no other writer is about; the row map and indexes are
    # shared with pinned readers' probes (hence the latch) and the
    # chains with their fetches, hence the identity-targeted drop /
    # reopen instead of wholesale replacement.  The row map change of
    # an undo carries no LSN, so it bumps ``_retracted`` before the
    # chain it leaves may settle (module docstring).

    def undo_insert(self, row):
        """Roll back an uncommitted insert of *row*."""
        rowid = row.rowid
        with self._latch:
            if self._rows.get(rowid) is row:
                del self._rows[rowid]
                self._reindex(row, None)
            self._retracted += 1
            self._chain_drop(rowid, row)
            self._settle(rowid, self._prune_horizon())
            self._unstamped -= 1
        self.version += 1

    def undo_update(self, new_row, old_row):
        """Roll back an uncommitted update *old_row* -> *new_row*."""
        rowid = new_row.rowid
        with self._latch:
            self._rows[rowid] = old_row
            self._reindex(new_row, old_row)
            self._retracted += 1
            self._chain_drop(rowid, new_row)
            self._reopen(old_row)
            self._unstamped -= 1
        self.version += 1

    def undo_delete(self, old_row):
        """Roll back an uncommitted delete of *old_row*."""
        rowid = old_row.rowid
        with self._latch:
            self._rows[rowid] = old_row
            self._reindex(None, old_row)
            self._retracted += 1
            self._reopen(old_row)
            self._unstamped -= 1
        self.version += 1

    def _reopen(self, row):
        """Make *row*'s version current again (the change that ended it
        never committed) and settle its rowid; under the latch."""
        version = self._chain_version_of(row)
        if version is not None:
            version.end_lsn = None
        self._settle(row.rowid, self._prune_horizon())

    def _prune_chain(self, rowid, horizon):
        """Drop the versions of *rowid* that end at or below *horizon*,
        invisible to every snapshot that may be pinned; under the latch.
        Returns what is left of the chain (None: nothing)."""
        chain = self._chains.get(rowid)
        if chain is None:
            return None
        # Ends never decrease along a chain, so the oldest version
        # decides whether anything can go.
        end = chain[0].end_lsn
        if end is None or end > horizon:
            return chain
        kept = tuple(
            v for v in chain if v.end_lsn is None or v.end_lsn > horizon
        )
        self._pruned.inc(len(chain) - len(kept))
        if kept:
            self._chains[rowid] = kept
            return kept
        del self._chains[rowid]
        return None

    def _settle(self, rowid, horizon):
        """Prune *rowid*'s chain, then drop it and dequeue the rowid if
        no snapshot that may be pinned can read anything but its current
        row: nothing is left, or one current, committed version that
        began at or below *horizon*.  Under the latch; returns whether
        it settled."""
        chain = self._prune_chain(rowid, horizon)
        if chain is not None:
            begin = chain[0].begin_lsn
            if (len(chain) > 1 or chain[0].end_lsn is not None
                    or begin is None or begin > horizon):
                return False
            del self._chains[rowid]
        if rowid in self._stale:
            del self._stale[rowid]
            self._stale_gauge.dec()
        return True

    def _trim(self, rewritten=None):
        """Settle the front of the stale set while its entries settle,
        256 a latch hold, stopping at the first that cannot (the ones
        behind it were written later).  A *rewritten* rowid's chain is
        pruned first: behind an entry that cannot settle, a row
        rewritten in a loop would otherwise keep every version."""
        horizon = self._prune_horizon()
        stale = self._stale
        while True:
            with self._latch:
                if rewritten is not None:
                    self._prune_chain(rewritten, horizon)
                    rewritten = None
                for _ in range(256):
                    if not stale or not self._settle(next(iter(stale)), horizon):
                        return

    def stale_rowids(self):
        """The stale set, least recently written first (introspection)."""
        with self._latch:
            return tuple(self._stale)

    def prune_versions(self, horizon):
        """Settle every stale rowid that can against *horizon*, 256 a
        latch hold.

        Safe against concurrent readers because a snapshot pinned from
        now on is at least *horizon* (the caller computes the horizon as
        ``min(active snapshots, current durable LSN)`` with the durable
        LSN read first, and LSNs are monotone), and a version with
        ``end_lsn <= horizon`` is invisible to every snapshot
        ``>= horizon``.
        """
        pending = self.stale_rowids()
        for start in range(0, len(pending), 256):
            with self._latch:
                for rowid in pending[start:start + 256]:
                    self._settle(rowid, horizon)

    def scan(self, predicate=None):
        """Yield rows, optionally filtered by *predicate(row)*."""
        for row in self:
            if predicate is None or predicate(row):
                yield row

    # -- the one index read path ---------------------------------------------
    #
    # Every read that answers from an index -- select_eq, each QUEL
    # candidate source -- is a probe() followed by a fetch()
    # (or, for the streaming sources, by get_many): the same two steps
    # under a table lock and under a pinned snapshot.

    def row_estimate(self):
        """The current row map's size, for a plan line or a cost rule:
        it visits no row (pinned, ``len(table)`` walks every chain)."""
        return len(self._rows)

    def probe(self, fn, *args):
        """Run ``fn(*args)`` where it may read this table's indexes;
        returns ``(its result, stale)``.

        Without a pinned snapshot the caller's table lock keeps writers
        out, the indexes are exact and *stale* is None.  Pinned, *fn*
        runs under the latch and *stale* is the stale set copied in the
        same hold -- the rowids :meth:`fetch` must consider besides
        whatever *fn* found (module docstring, "Snapshot reads"), however
        many.  *fn* must only read index structures: no row fetch, no
        predicate.
        """
        if self._deferring:
            raise StorageError(
                "table %r is loading with index upkeep deferred; its "
                "indexes cannot answer yet" % self.name
            )
        if self._snapshot() is None:
            return fn(*args), None
        if self._stale:
            # The last write before a quiet spell has no later write to
            # settle it; the readers that follow do.
            self._trim()
        with self._latch:
            return fn(*args), tuple(self._stale)

    def fetch(self, rowids, stale, verify):
        """The rows a :meth:`probe` answered with.

        *stale* None (not pinned): the rows of *rowids*, in the order
        given.  Pinned: the versions visible at the snapshot of *rowids*
        and of the *stale* rowids, which are merged in where *rowids*
        lacks them -- in ascending rowid order then, so callers that
        want the two to agree pass *rowids* ascending.  The probe
        decided every rowid exactly but the stale ones, so a row is
        re-checked by *verify*, the exact predicate the probe stood
        for, only if its rowid is stale.

        A caller that fetches a probe's answer a chunk at a time merges
        the stale rowids into the ascending list once and hands over
        each chunk with the stale rowids inside it.
        """
        if stale is None:
            rows = self._rows
            return [rows[rowid] for rowid in rowids if rowid in rows]
        if stale:
            stale = frozenset(stale)
            missing = stale.difference(rowids)
            if missing:
                rowids = sorted(missing.union(rowids))
        rows = self._visible_rows(rowids, self._snapshot())
        if not stale:
            return rows
        return [row for row in rows if row.rowid not in stale or verify(row)]

    def matching_chunks(self, index, query, sizes):
        """Ascending rowid chunks, *sizes* long in turn, of text
        *index*'s lazy ``matches`` stream for *query*.  Each chunk is a
        probe of its own that opens a fresh intersection past the last
        rowid of the one before, so none is left suspended while a
        pinned reader is off the latch; the stale rowids inside the
        chunk's rowid range (all that are left, once the stream runs
        dry) are merged in.  The caller fetches with :meth:`get_many`
        and re-checks the predicate on every row."""
        after = -1
        grams = trigrams(query)  # folded once; each probe reads postings
        for size in sizes:
            batch, stale = self.probe(
                lambda: list(itertools.islice(
                    index.iter_matching(grams, after), size
                ))
            )
            last = batch[-1] if len(batch) == size else None
            if stale:
                batch = sorted(set(batch).union(
                    rowid for rowid in stale
                    if rowid > after and (last is None or rowid <= last)
                ))
            yield batch
            if last is None:
                return
            after = last

    def _lookup(self, column, value):
        """Rowids an index holds under *column* == *value*; None when
        the column has no index."""
        index = self.index_for(column)
        return None if index is None else index.lookup(value)

    def select_eq(self, column, value):
        """Rows where *column* == *value*, via an index when available
        (locked or pinned: see :meth:`probe`), in ascending rowid order;
        a scan in table order otherwise."""
        rowids, stale = self.probe(self._lookup, column, value)
        if rowids is None:
            return [row for row in self if row[column] == value]
        return self.fetch(
            rowids, stale,
            lambda row: value_sort_key(row[column]) == value_sort_key(value),
        )

    def select_range(self, column, low=None, high=None):
        """Rows with low <= column <= high (None: unbounded), a filtered
        scan, by ascending key, then rowid."""
        low_key = None if low is None else value_sort_key(low)
        high_key = None if high is None else value_sort_key(high)

        def key(row):
            return value_sort_key(row[column]), row.rowid

        def within(row):
            value = value_sort_key(row[column])
            return (low_key is None or value >= low_key) and (
                high_key is None or value <= high_key
            )

        return sorted(filter(within, self), key=key)

    def sorted_by(self, column, descending=False):
        """All rows sorted by *column* (section 5.2's key ordering)."""
        snapshot = self._snapshot()
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

    def install_committed(self, lsn, rows, deleted=()):
        """Make each of *rows* the current image of its rowid as of
        commit *lsn*, in order, then delete the rowids *deleted*.

        The one entry point for changes that are committed before they
        reach this table: a checkpoint image's rows, a replica seed's, a
        redone commit's (each of its runs at once).
        No journal, guard or lock is involved -- the caller (recovery,
        or a replica's single applier thread) is the only writer -- and
        one latch hold covers the run.  A run of rowids the table does
        not hold, none named twice -- every load's -- updates the row
        map (and the chains) once; any other goes row by row.

        A rowid already present (redo of an update, or named earlier in
        the run) is overwritten and a deleted rowid that is absent is
        passed over, so a change installed twice lands once.  LSN 0 is
        a load's, and outside one (:meth:`defer_index_upkeep` to
        :meth:`build_deferred_indexes`, into a table no writer has
        touched) raises ``StorageError``: it only fills or empties the
        row map, each row its rowid's one version, and would leave any
        chain a writer made answering pinned reads.  Above
        it (a replica's redo) the superseded version ends at *lsn* and
        the new one begins there, so a reader pinned below *lsn* keeps
        its image while the change lands; every rowid it touches is
        queued as stale and the call trims as a write does.
        ``version`` grows by one a row installed or deleted.
        """
        if not lsn and not self._loading():
            raise StorageError(
                "table %r is not loading: an LSN-0 install is a load's, "
                "taken only with index upkeep deferred" % self.name
            )
        held, chains = self._rows, self._chains
        changed = 0
        with self._latch:
            if rows:
                run = {row.rowid: row for row in rows}
                if len(run) == len(rows) and held.keys().isdisjoint(run) and (
                    not lsn or chains.keys().isdisjoint(run)
                ):
                    if lsn:
                        chains.update({
                            rowid: (RowVersion(row, lsn, None),)
                            for rowid, row in run.items()
                        })
                        queued = len(self._stale)
                        self._stale.update(dict.fromkeys(run))
                        self._stale_gauge.inc(len(self._stale) - queued)
                    held.update(run)
                    if not self._deferring:
                        for row in rows:
                            self._reindex(None, row)
                else:
                    for row in rows:
                        self._replace_committed(lsn, row.rowid, row)
                self._next_rowid = itertools.count(
                    max(max(run) + 1, next(self._next_rowid))
                )
                changed = len(rows)
            for rowid in deleted:
                if rowid in held:
                    self._replace_committed(lsn, rowid, None)
                    changed += 1
        if lsn:
            self._trim()
        self.version += changed

    def _replace_committed(self, lsn, rowid, row):
        """One change of :meth:`install_committed` over whatever *rowid*
        holds; *row* None deletes it.  The caller holds the latch."""
        old = self._rows.get(rowid)
        if lsn:
            self._chain_append(
                rowid, None if row is None else RowVersion(row, lsn, None), lsn
            )
        if row is None:
            del self._rows[rowid]
        else:
            self._rows[rowid] = row
        self._reindex(old, row)
