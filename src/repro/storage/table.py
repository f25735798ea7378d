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
*snapshot* callable and fetches rows through the chains when one is
pinned.  Superseded versions are pruned opportunistically on the rowid
being rewritten and in bulk at checkpoint, never past the horizon of an
active snapshot.

Snapshot reads
--------------
A pinned reader takes no table lock, yet answers from the same indexes
as a locked one.  The indexes describe the *current* rows only, so two
pieces of per-table state bridge the gap:

* the **latch** -- one mutex.  Every path that changes what the
  indexes describe (``insert``/``insert_many``/``update``/``delete``,
  the three undo paths, ``install_committed``, index creation) holds it
  around "row map + ``_reindex`` + stale mark" and nothing else; a
  pinned reader holds it only while it probes index structures and
  copies the stale set (:meth:`Table.probe`) -- never across a row
  fetch, a predicate, a journal callback, a lock wait, a WAL append or
  an fsync.  Lock order is latch -> ``_chains_mutex`` / the snapshot
  registry mutex, never the reverse.
* the **stale set** -- the rowids whose chain still holds a version the
  indexes no longer describe: one superseded by an update, delete or
  redo install that is uncommitted, or committed above a snapshot that
  may still be pinned.  A rowid leaves the set when pruning has left
  its chain one current version (or nothing).  The set is ordered by
  latest supersede; every rewrite settles up to two of the oldest
  entries against the prune horizon (amortised O(1) per write), a
  pinned probe does the same (the last rewrite before a quiet spell has
  no later one to settle it) and ``prune_versions`` sweeps the rest, so
  the set's size follows the rewrites since the oldest pinned snapshot
  or open transaction, not since the last checkpoint.

The invariant is a *verified superset*: for any snapshot ``S`` that may
be pinned and any indexed predicate, the rowids whose version visible
at ``S`` satisfies it are contained in (index probe over current rows)
union (stale set), both taken in one latch hold.  Proof by cases on a
rowid ``r`` at the moment of the hold: if ``r`` is not stale its chain
is one current version, which the index describes, so the probe decides
it exactly (and the fetch drops it if that version is not visible at
``S``); if ``r`` is stale it is a candidate regardless.  A writer that
rewrites ``r`` *after* the hold cannot take the version visible at ``S``
away -- the reader's registered pin holds the prune horizon at or below
``S`` -- so the fetch through the chain still finds it.  Candidates are
then fetched at ``S`` and **every** restriction is re-checked on the
visible version (:meth:`Table.fetch`), because a stale rowid's visible
version need not satisfy what the index says about its current one.
When the stale set outgrows the planner's candidate cap
(:meth:`Table.candidate_cap`) the read falls back to scanning the
visible rows (:data:`SWAMPED`).
"""

import itertools
import threading
from collections import OrderedDict

from repro.errors import StorageError, TypeMismatchError
from repro.storage.index import HashIndex, OrderedCompositeIndex, OrderedIndex
from repro.storage.row import Row
from repro.storage.values import Domain, coerce_value, value_sort_key
from repro.text.index import TrigramIndex
from repro.text.normalize import trigrams


#: Below this many rows to fetch an index always beats a scan; above it
#: the cap scales with the table (see :meth:`Table.candidate_cap`).
_CANDIDATE_FLOOR = 512

#: What :meth:`Table.probe` hands back in place of the stale rowids once
#: they outnumber the candidate cap: every rowid is a candidate, scan.
SWAMPED = object()

#: Stale entries a single write may settle: each write adds at most
#: one, so any backlog (a long snapshot just unpinned) drains.
_TRIM_PER_WRITE = 2


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
        # Snapshot reads (module docstring): the latch orders index
        # upkeep against pinned readers' probes; the stale set, oldest
        # supersede first, names the rowids whose chain holds a version
        # the indexes no longer describe.  Re-entrant so an adaptive
        # create_index can run inside a probe.
        self._latch = threading.RLock()
        self._stale = OrderedDict()
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
            self._stale_gauge = metrics.gauge("mvcc.stale_rowids")
        else:
            self._inserts = self._updates = self._deletes = None
            self._pruned = self._stale_gauge = None
        # Bumped on EVERY row mutation, including the non-journalled
        # recovery/undo paths, so derived caches can detect staleness.
        self.version = 0
        # Notified when the table's queryable shape changes (new index,
        # widened schema); the database routes this to its schema epoch.
        self._on_schema_change = on_schema_change
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

    def _current_snapshot(self):
        if self._snapshot is None:
            return None
        return self._snapshot()

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
        else:
            self.schema.column(column)
            key = (column, ordered)
        # Under the latch: a pinned reader may build an index adaptively
        # while a writer maintains the others.
        with self._latch:
            if key in self._indexes:
                return self._indexes[key]
            if isinstance(column, tuple):
                index = OrderedCompositeIndex(column)
            else:
                index = OrderedIndex(column) if ordered else HashIndex(column)
            self._index_rows(column, index, self._rows.values())
            self._indexes[key] = index
        self.notify_schema_change()
        return index

    def _index_rows(self, column, index, rows):
        """Add *rows* to *index* in one bulk build (one key sort, not an
        insort per row): the adaptive index a first query builds, a text
        index's backfill and ``insert_many`` all pay for this."""
        if self._deferring:
            return
        index.insert_many(
            [(self._index_value(column, row), row.rowid) for row in rows]
        )

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
        with self._latch:
            existing = self._indexes.get(key)
            if existing is not None:
                return existing
            index = TrigramIndex(metrics=self._metrics)
            # At catalog scale the backfill is the dominant cost of
            # this DDL.
            self._index_rows(column, index, self._rows.values())
            self._indexes[key] = index
        self.notify_schema_change()
        return index

    def drop_text_index(self, column):
        """Drop the trigram index over *column*; returns it (or None)."""
        with self._latch:
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
            column for (column, kind) in list(self._indexes) if kind == "text"
        )

    def dump_text_indexes(self):
        """``[(column, rows, TrigramIndex.dump() pieces), ...]``, taken in
        one latch hold -- or None while a table that has text indexes
        holds a change no commit has stamped (or is still loading),
        when they describe more than the committed rows.  A caller that
        also holds the log quiesced has every stamped change durable."""
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
        with self._latch:
            self._rows[rowid] = row
            self._chain_append(rowid, RowVersion(row))
            self._reindex(None, row)
            self._unstamped += 1
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
        with self._latch:
            for coerced in coerced_list:
                rowid = next(self._next_rowid)
                while rowid in self._rows:
                    rowid = next(self._next_rowid)
                row = Row(rowid, coerced)
                self._rows[rowid] = row
                self._chain_append(rowid, RowVersion(row))
                rows.append(row)
            for (column, _), index in self._indexes.items():
                self._index_rows(column, index, rows)
            self._unstamped += len(rows)
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
        with self._latch:
            self._rows[rowid] = new
            # The old version stays open (end_lsn None) until the commit
            # stamps it; snapshot readers keep seeing it meanwhile.
            self._chain_append(rowid, RowVersion(new))
            self._reindex(old, new)
            self._supersede(rowid)
            self._unstamped += 1
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
        with self._latch:
            del self._rows[rowid]
            # No chain change: the victim version stays open until the
            # commit stamps its end_lsn, so pinned snapshots still see it.
            self._reindex(old, None)
            self._supersede(rowid)
            self._unstamped += 1
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
        committing transaction, inside the hold of the WAL append mutex
        (so the stamp lands before the commit's LSN can become the
        durable snapshot of any reader).  Versions are matched by row
        identity: an insert→update→delete sequence on one rowid inside
        a single transaction leaves intermediate versions stamped
        ``[lsn, lsn)``, which no snapshot can ever see.  *lsn* None
        takes the stamp back, for a commit whose flush failed and whose
        changes are about to be undone.
        """
        if action in ("update", "delete"):
            version = self._chain_version_of(old_row)
            if version is not None:
                version.end_lsn = lsn
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
    # reopen instead of wholesale replacement.  An undo never makes a
    # rowid stale -- the indexes go back to describing a version that
    # never left the chain -- but it may be what leaves a stale rowid
    # with one current version again.

    def undo_insert(self, row):
        """Roll back an uncommitted insert of *row*."""
        rowid = row.rowid
        with self._latch:
            if self._rows.get(rowid) is row:
                del self._rows[rowid]
                self._reindex(row, None)
            self._chain_drop(rowid, row)
            self._settle(rowid, self._horizon())
            self._unstamped -= 1
        self.version += 1

    def undo_update(self, new_row, old_row):
        """Roll back an uncommitted update *old_row* -> *new_row*."""
        rowid = new_row.rowid
        with self._latch:
            self._rows[rowid] = old_row
            self._reindex(new_row, old_row)
            self._chain_drop(rowid, new_row)
            version = self._chain_version_of(old_row)
            if version is not None:
                version.end_lsn = None  # reopen: the commit stamp never took
            self._settle(rowid, self._horizon())
            self._unstamped -= 1
        self.version += 1

    def undo_delete(self, old_row):
        """Roll back an uncommitted delete of *old_row*."""
        rowid = old_row.rowid
        with self._latch:
            self._rows[rowid] = old_row
            self._reindex(None, old_row)
            version = self._chain_version_of(old_row)
            if version is not None:
                version.end_lsn = None
            self._settle(rowid, self._horizon())
            self._unstamped -= 1
        self.version += 1

    def _horizon(self):
        """The LSN below which no snapshot can look; None on a bare
        table (no transaction manager: nothing stamps or snapshots
        versions, so superseded images can go at once)."""
        if self._prune_horizon is None:
            return None
        return self._prune_horizon()

    def _prune_chain(self, rowid, horizon):
        """Drop versions of *rowid* invisible to every snapshot >= horizon."""
        chain = self._chains.get(rowid)
        if chain is None:
            return 0
        if horizon is not None:
            # Ends never decrease along a chain, so the oldest version
            # decides -- without the mutex -- whether anything can go.
            end = chain[0].end_lsn
            if end is None or end > horizon:
                return 0
        with self._chains_mutex:
            chain = self._chains.get(rowid)
            if chain is None:
                return 0
            if horizon is None:
                kept = chain[-1:] if rowid in self._rows else ()
            else:
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

    # Stale-set upkeep; every caller holds the latch.

    def _supersede(self, rowid):
        """*rowid*'s chain now holds a version the indexes no longer
        describe: queue it as stale, prune its chain (as every rewrite
        always has) and settle what has aged out at the front.

        A rowid already queued moves to the back, so the set stays
        ordered by *latest* supersede and a row rewritten in a loop
        cannot park at the front and block the trim of everything
        behind it.
        """
        stale = self._stale
        if rowid in stale:
            stale.move_to_end(rowid)
        else:
            stale[rowid] = None
            if self._stale_gauge is not None:
                self._stale_gauge.inc()
        horizon = self._horizon()
        self._prune_chain(rowid, horizon)
        self._trim_stale(horizon)

    def _trim_stale(self, horizon):
        """Settle the oldest stale rowids, stopping at the first one a
        snapshot or open transaction still needs (the ones behind it
        were superseded later still)."""
        stale = self._stale
        for _ in range(_TRIM_PER_WRITE):
            if not stale or not self._settle(next(iter(stale)), horizon):
                return

    def _settle(self, rowid, horizon):
        """Prune *rowid*'s chain and, if one current version (or
        nothing) is left, drop it from the stale set: the indexes
        describe all of it again.  Returns whether it is settled."""
        self._prune_chain(rowid, horizon)
        chain = self._chains.get(rowid)
        if chain is not None and (
            len(chain) > 1 or chain[0].row is not self._rows.get(rowid)
        ):
            return False
        if rowid in self._stale:
            del self._stale[rowid]
            if self._stale_gauge is not None:
                self._stale_gauge.dec()
        return True

    def stale_rowids(self):
        """The stale set, oldest supersede first (introspection)."""
        with self._latch:
            return tuple(self._stale)

    def prune_versions(self, horizon):
        """Prune every chain against *horizon*; returns versions dropped.

        Safe against concurrent readers because a snapshot pinned from
        now on is at least *horizon* (the caller computes the horizon as
        ``min(active snapshots, current durable LSN)`` with the durable
        LSN read first, and LSNs are monotone), and a version with
        ``end_lsn <= horizon`` is invisible to every snapshot
        ``>= horizon``.  The stale set is swept afterwards, a slice per
        latch hold.
        """
        total = 0
        for rowid, chain in list(self._chains.items()):
            # A lone open version is the steady state of nearly every
            # rowid; skip it without taking the chain mutex.
            if len(chain) > 1 or chain[0].end_lsn is not None:
                total += self._prune_chain(rowid, horizon)
        pending = self.stale_rowids()
        for start in range(0, len(pending), 256):
            with self._latch:
                for rowid in pending[start:start + 256]:
                    self._settle(rowid, horizon)
        return total

    def scan(self, predicate=None):
        """Yield rows, optionally filtered by *predicate(row)*."""
        for row in self:
            if predicate is None or predicate(row):
                yield row

    # -- the one index read path ---------------------------------------------
    #
    # Every read that answers from an index -- select_eq, select_range,
    # each QUEL candidate source -- is a probe() followed by a fetch()
    # (or, for the streaming sources, by get_many): the same two steps
    # under a table lock and under a pinned snapshot.

    def row_estimate(self):
        """The current row map's size, for a plan line or a cost rule:
        it visits no row (pinned, ``len(table)`` walks every chain)."""
        return len(self._rows)

    def candidate_cap(self):
        """The most stale rowids a pinned index read may take in
        besides its candidates before a scan is the cheaper plan."""
        return max(_CANDIDATE_FLOOR, self.row_estimate() // 2)

    def probe(self, fn, *args):
        """Run ``fn(*args)`` where it may read this table's indexes;
        returns ``(its result, stale)``.

        Without a pinned snapshot the caller's table lock keeps writers
        out, the indexes are exact and *stale* is None.  Pinned, *fn*
        runs under the latch and *stale* is the stale set copied in the
        same hold -- the rowids :meth:`fetch` must consider besides
        whatever *fn* found (module docstring, "Snapshot reads") -- or
        :data:`SWAMPED` once it has outgrown :meth:`candidate_cap`.
        *fn* must only read index structures: no row fetch, no
        predicate.
        """
        if self._deferring:
            raise StorageError(
                "table %r is loading with index upkeep deferred; its "
                "indexes cannot answer yet" % self.name
            )
        if self._snapshot is None or self._snapshot() is None:
            return fn(*args), None
        with self._latch:
            stale = self._stale
            if stale:
                # The last rewrite before a quiet spell has no later
                # write to settle it; the readers that follow do.
                self._trim_stale(self._horizon())
            swamped = len(stale) > self.candidate_cap()
            return fn(*args), SWAMPED if swamped else tuple(stale)

    def fetch(self, rowids, stale, verify):
        """The rows a :meth:`probe` answered with.

        *stale* None (not pinned): the rows of *rowids*, in the order
        given.  Pinned: the versions of *rowids* and *stale* visible at
        the snapshot that pass *verify*, the exact predicate the probe
        stood for -- or, :data:`SWAMPED`, every visible row that passes
        it -- in ascending rowid order (nothing stale to merge in: the
        order given), so callers that want the two to agree pass
        *rowids* ascending.

        A caller that fetches a probe's answer a chunk at a time merges
        the stale rowids into the ascending list once and hands over
        each piece with an empty *stale*: only this off-latch step, the
        fetch at the pinned LSN with its re-check, is cut into pieces.
        """
        if stale is None:
            rows = self._rows
            return [rows[rowid] for rowid in rowids if rowid in rows]
        if stale is SWAMPED:
            rows = sorted(self, key=lambda row: row.rowid)
        else:
            if stale:
                rowids = sorted(set(stale).union(rowids))
            rows = self.get_many(rowids)
        return [row for row in rows if verify(row)]

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
                if stale is SWAMPED:
                    stale = self.rowids()
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
        index = self.any_index_for(column)
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
        """Rows with low <= column <= high: by ascending key (then
        rowid) via an ordered index if present, else in table order."""
        def scan_range():
            index = self.index_for(column, ordered=True)
            return None if index is None else list(index.range(low, high))

        low_key = None if low is None else value_sort_key(low)
        high_key = None if high is None else value_sort_key(high)

        def within(row):
            key = value_sort_key(row[column])
            return (low_key is None or key >= low_key) and (
                high_key is None or key <= high_key
            )

        rowids, stale = self.probe(scan_range)
        if rowids is None:
            return [row for row in self if within(row)]
        rows = self.fetch(rowids, stale, within)
        # Pinned, fetch() hands back rowid order; a stable sort by key
        # restores the index's (key, rowid) order -- which a visible
        # version's key need not share with its rowid's current one.
        rows.sort(key=lambda row: value_sort_key(row[column]))
        return rows

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
        change lands; then the rowid is queued as stale and its chain
        pruned to the horizon, as ``update``/``delete`` do.  Recovery
        and loads pass LSN 0 (the horizon is never below it), which
        leaves exactly one version, visible to every snapshot, and the
        stale set empty.
        """
        old = self._rows.get(rowid)
        if row is None and old is None:
            return
        with self._latch:
            if row is None:
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
                self._supersede(rowid)
        self.version += 1
