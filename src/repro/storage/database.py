"""The Database: a catalog of tables plus durability and transactions.

In-memory by default; given a directory path it persists via a
checkpoint image plus a write-ahead log, and recovers on open by loading
the image and REDO-replaying the log.

One system table, the *storage catalog* (:data:`CATALOG`), has a row
per table: its columns, their domains and its text-indexed columns.  A
schema change is a change to catalog rows in one ordinary transaction
(:meth:`Database.ddl`), and every catalog row change -- live, undone,
or installed by image load, redo or a replica -- reshapes the table
objects at once: a table exists exactly while its row does.

Crash-safety protocol: a checkpoint streams every table, and the
exactly-once ledger, into one checksummed file (``repro.storage.image``)
through write-to-temp + fsync + ``os.replace`` to ``image.mdm`` + a
directory fsync, and that rename is its single commit point; only then
are the log segments it holds deleted.  A crash anywhere in a checkpoint
leaves the old image and a replayable log, or the new image and a log
whose records it holds, which redo skips; never a mix.  The image names
the LSN it holds, and every open hands that LSN to the log as its base:
its one durable copy.

So is the posting stream (``repro.text.stream``): the text indexes as
bytes, published where they provably equal a rebuild from committed
rows -- under a checkpoint's roll of the log and at ``close`` -- and
naming the log's ``change_lsn`` at that moment.  An open installs image
and log as ever and loads an index from the stream only if the log it
recovered is at that same ``change_lsn`` and the table has the row
count the stream says; any other stream, or none, is the rebuild from
rows, which stays the reference the crash battery checks against.
"""

import contextlib
import gc
import json
import logging
import os
import threading
import time

from repro.errors import (
    MDMError,
    ReadOnlyError,
    RecoveryError,
    StorageError,
    TransactionError,
)

logger = logging.getLogger(__name__)
from repro.obs.metrics import MetricsRegistry
from repro.storage import image as checkpoint_image
from repro.storage import wal as wal_module
from repro.storage.faults import fsync_directory, fsync_file
from repro.storage.table import Column, Table, TableSchema
from repro.storage.transaction import TransactionManager
from repro.storage.values import Domain
from repro.text import stream as posting_stream

_LOG_FILE = "wal.log"
_IMAGE_FILE = "image.mdm"
_POSTING_STREAM_FILE = "postings.bin"

#: The storage catalog's name (module docstring).
CATALOG = "_catalog"


@contextlib.contextmanager
def collector_paused():
    """Hold the cyclic garbage collector off for a load: the image
    install, redo and deferred index build of an open or a replica's
    seed create rows and their value tuples by the hundred thousand and
    no cycle among them, so its passes over them would find nothing.
    The collector's state before is restored, whatever the load raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Catalog(Table):
    """The storage catalog: ``columns`` a JSON list of ``[name, domain]``,
    ``text_indexed`` one of column names.  Its index upkeep, never
    deferred, is where a row change reaches the table objects."""

    def _reindex(self, old, new):
        super()._reindex(old, new)
        self._database._catalog_changed(old, new)

    def defer_index_upkeep(self):
        pass

    def _loading(self):
        return self._database._deferring


def _catalog_entry(row):
    """``(name, [Column, ...], {text-indexed column, ...})`` of a catalog
    row; a row that does not say that -- only a damaged file's or a
    peer's can fail to -- raises :class:`RecoveryError`."""
    try:
        columns = [Column(name, domain) for name, domain in json.loads(row["columns"])]
        text = set(json.loads(row["text_indexed"]))
        TableSchema(row["table_name"], columns)
        if not text <= {column.name for column in columns}:
            raise StorageError("text index on an unknown column")
    except (AttributeError, TypeError, ValueError, MDMError) as exc:
        raise RecoveryError("malformed catalog row %r: %s" % (row, exc))
    return row["table_name"], columns, text


class Database:
    """A named collection of tables with optional durability.

    ``Database()`` is purely in-memory (fast, for tests and scratch
    work).  ``Database(path)`` stores a checkpoint image and WAL under
    *path* and recovers committed state on reopen.  *opener* is an
    injectable binary-mode ``open`` substitute every file under *path*
    is opened through (see :mod:`repro.storage.faults`); production
    code passes nothing.
    """

    def __init__(self, path=None, opener=None, metrics=None):
        self.path = path
        self._opener = opener if opener is not None else open
        self._tables = {}
        #: The exactly-once ledger: client id -> ``(seq, result)`` of
        #: the last remote request of that client a commit answered
        #: (``repro.storage.transaction``).  Recovery and a replica's
        #: apply rebuild it from the image and the commit frames.
        self.ledger = {}
        self._log = None
        self._degraded_reason = None
        # Bumped on any change to the queryable shape of the database --
        # table create/drop, new index, widened entity schema -- so
        # cached query plans (see repro.quel.cache) can detect staleness
        # with one integer compare.
        self.schema_epoch = 0
        # One registry per database; the WAL, lock manager, and QUEL
        # executor above all record into it.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._degraded_entries = self.metrics.counter("db.degraded_entries")
        self._checkpoints = self.metrics.counter("db.checkpoints")
        # The LSN the posting stream on disk names, once this process
        # has written or loaded it; the mutex orders its writers.
        self._stream_lsn = None
        self._stream_mutex = threading.Lock()
        # Held by a DDL transaction (ddl) and by image().  A dropped
        # table waits in _retired until its transaction ends; while
        # _deferring, the tables the catalog creates start deferred.
        self._ddl_mutex = threading.RLock()
        self._ddl_txn = None
        self._retired = None
        self._deferring = False
        if path is not None:
            os.makedirs(path, exist_ok=True)
            started = time.perf_counter()
            image_lsn, image_ledger, image_tables = self._read_image()
            self._log = wal_module.WriteAheadLog(
                os.path.join(path, _LOG_FILE), base_lsn=image_lsn,
                opener=self._opener, metrics=self.metrics,
            )
        self.transactions = TransactionManager(self, self._log)
        self._catalog = self._tables[CATALOG] = self._new_table(
            TableSchema(CATALOG, [
                Column(name, Domain.STRING)
                for name in ("table_name", "columns", "text_indexed")
            ]),
            _Catalog,
        )
        if path is not None:
            self._recover(started, image_ledger, image_tables)

    # -- table management ----------------------------------------------------

    def _new_table(self, schema, cls=Table):
        table = cls(schema, self)
        if self._deferring:
            table.defer_index_upkeep()
        return table

    @contextlib.contextmanager
    def ddl(self):
        """One schema change, one commit: the catalog rows (and whatever
        else the block writes, e.g. section 6's meta rows) commit
        together or not at all.  A block nested in another joins its
        commit; one inside an explicit transaction is refused."""
        with self._ddl_mutex:
            txn = self.transactions.current()
            if txn is not None and txn is self._ddl_txn:
                yield
                return
            if txn is not None:
                raise TransactionError(
                    "DDL commits by itself and cannot run inside an "
                    "explicit transaction"
                )
            self._ddl_txn = txn = self.begin()
            try:
                with txn:
                    yield
            finally:
                self._ddl_txn = None

    def _entry(self, name):
        """The catalog row of table *name*."""
        if name == CATALOG or name not in self._tables:
            raise StorageError("no table %r" % name)
        return self._catalog.select_eq("table_name", name)[0]

    def _alter(self, name, columns=None, text_indexed=None):
        """Write *name*'s catalog row (a new one if it has none) with
        *columns* and *text_indexed* where given, as one DDL commit."""
        values = {"table_name": name}
        if columns is not None:
            TableSchema(name, columns)  # refuses a duplicate column
            values["columns"] = json.dumps([[c.name, c.domain.value] for c in columns])
        if text_indexed is not None:
            values["text_indexed"] = json.dumps(sorted(text_indexed))
        with self.ddl():
            if name in self._tables:
                self._catalog.update(self._entry(name).rowid, values)
            else:
                self._catalog.insert(values)

    def _catalog_changed(self, old, new):
        """Make the table objects say what catalog row *new* (None: no
        row) says in place of *old* (None: none was there).  Called under
        the catalog's latch by every path that changes a catalog row."""
        if new is None:
            self._retired = (old, self._tables.pop(old["table_name"]))
            self.bump_schema_epoch()
            return
        name, columns, text = _catalog_entry(new)
        if old is not None and old["table_name"] != name:
            raise RecoveryError("catalog row %r renames a table" % (new,))
        if old is not None:
            table = self._tables[name]
            table.schema.set_columns(columns)
        elif self._retired is not None and self._retired[0] is new:
            table = self._tables[name] = self._retired[1]  # an undone drop
        else:
            table = self._tables[name] = self._new_table(TableSchema(name, columns))
        for column in text.difference(table.text_index_columns()):
            table.create_text_index(column)
        for column in set(table.text_index_columns()) - text:
            table.drop_text_index(column)
        self.bump_schema_epoch()

    def create_table(self, name, columns):
        """Create a table; *columns* is a list of (name, domain) pairs."""
        columns = [Column(n, d) for n, d in columns]
        with self.ddl():
            if name in self._tables:
                raise StorageError("table %r already exists" % name)
            self._alter(name, columns, text_indexed=())
        return self._tables[name]

    def create_or_bind_table(self, name, columns):
        """Bind to table *name* if it has exactly these columns, else
        create it (refused if it exists)."""
        table = self._tables.get(name)
        if table is not None and table.schema.column_names() == [c for c, _ in columns]:
            return table
        return self.create_table(name, columns)

    def drop_table(self, name):
        try:
            with self.ddl():
                self._catalog.delete(self._entry(name).rowid)
        finally:
            self._retired = None

    def add_column(self, table_name, name, domain):
        """Widen *table_name* by a column; rows it holds read it as null.
        Holds the table's exclusive lock to its commit, so no commit can
        log a row of it in the shape it had before."""
        with self.ddl():
            columns = self.write_table(table_name).schema.columns
            self._alter(table_name, columns + [Column(name, domain)])

    def bump_schema_epoch(self):
        """Invalidate cached query plans compiled under the old shape."""
        self.schema_epoch += 1

    # -- text (trigram) indexes ---------------------------------------------

    def create_text_index(self, table_name, column):
        """Create (or return) a durable trigram text index over
        ``table.column``: a DDL commit naming the column in the table's
        catalog row.  Unlike equality indexes there is no adaptive
        auto-create: the planner only lowers text predicates onto
        indexes declared through here.
        """
        with self.ddl():
            table = self.table(table_name)
            if table.text_index_for(column) is None:
                domain = table.schema.column(column).domain
                if domain is not Domain.STRING:
                    raise StorageError(
                        "text index needs a string column; %r.%r is %s"
                        % (table_name, column, domain.value)
                    )
                self._alter(
                    table_name, text_indexed=table.text_index_columns() + [column]
                )
            return table.text_index_for(column)

    def drop_text_index(self, table_name, column):
        """Durably drop the trigram index over ``table.column``."""
        with self.ddl():
            table = self.table(table_name)
            if table.text_index_for(column) is None:
                raise StorageError(
                    "no text index on %r.%r" % (table_name, column)
                )
            self._alter(table_name, text_indexed=[
                name for name in table.text_index_columns() if name != column
            ])

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError("no table %r" % name)

    def has_table(self, name):
        return name in self._tables

    def table_names(self):
        """Every table but the storage catalog, sorted."""
        return sorted(name for name in self._tables if name != CATALOG)

    def _guard_for(self, table_name):
        """Pre-mutation hook: runs BEFORE a row changes, so a refusal
        (degraded mode) or a wait-die abort leaves the table untouched
        and a retrying session never double-applies."""
        def guard():
            self.transactions.assert_no_snapshot()
            self.assert_writable()
            self.transactions.lock_for_write(table_name)
        return guard

    # -- degraded mode ---------------------------------------------------------------

    @property
    def degraded(self):
        """True once a storage I/O failure flipped the database read-only."""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self):
        return self._degraded_reason

    def enter_degraded(self, reason):
        """Flip to read-only degraded mode (first reason wins).

        Reads keep serving from the consistent in-memory state; writes
        fail fast with :class:`ReadOnlyError` instead of piling more
        work onto a storage stack that just failed.
        """
        if self._degraded_reason is None:
            self._degraded_reason = reason
            self._degraded_entries.inc()
            logger.warning(
                "database %s entering read-only degraded mode: %s",
                self.path or "<memory>", reason,
            )

    def exit_degraded(self):
        """Manually leave degraded mode (operator action after repair).

        The commits that were reported failed were rolled back in
        memory; first the log drops their frames too
        (:meth:`WriteAheadLog.discard_unsynced`), so what the live
        database serves is what a reopen recovers.  If the disk refuses
        that cut the ``OSError`` propagates and the database stays
        degraded.
        """
        if self._log is not None:
            self._log.discard_unsynced()
        self._degraded_reason = None

    def assert_writable(self):
        if self._degraded_reason is not None:
            raise ReadOnlyError(
                "database is read-only (degraded after storage failure: %s)"
                % (self._degraded_reason,)
            )

    # -- transactions --------------------------------------------------------------

    def begin(self):
        return self.transactions.begin()

    def bulk_ingest(self, table_name, rows, batch_rows=1000):
        """COPY-style bulk load: insert *rows* (dicts) into *table_name*.

        Chunks the input into batches of *batch_rows*; each batch is one
        statement: it takes the table X lock once, installs its rows
        with one index build at the end, and commits as one frame.
        Batches commit as they complete: a failure mid-load leaves the
        already-committed prefix durable (the partially applied batch
        itself is rolled back), which is why running one inside an
        explicit transaction is refused rather than silently breaking
        its atomicity.  Returns the list of inserted Rows.
        """
        if self.transactions.current() is not None:
            raise TransactionError(
                "bulk_ingest commits per batch and cannot run inside an "
                "explicit transaction; use table.insert_many instead"
            )
        self.assert_writable()
        table = self.table(table_name)
        rows = list(rows)
        out = []
        for start in range(0, len(rows), batch_rows):
            with self.transactions.statement():
                out.extend(table.insert_many(rows[start:start + batch_rows]))
        return out

    # -- locked access helpers (used by the QUEL executor) ---------------------------

    def read_table(self, name):
        # A thread reading through a pinned snapshot is lock-free:
        # visibility comes from the version chains, not from excluding
        # writers, so the lock manager is never touched.
        if self.transactions.current_snapshot() is None:
            self.transactions.lock_for_read(name)
        return self.table(name)

    def write_table(self, name):
        self.transactions.assert_no_snapshot()
        self.assert_writable()
        self.transactions.lock_for_write(name)
        return self.table(name)

    # -- snapshots (MVCC) -------------------------------------------------------------

    def snapshot(self):
        """Context manager pinning a consistent lock-free read view::

            with db.snapshot() as snap:
                ...  # every table read on this thread sees LSN snap.lsn

        Mutating the database while the snapshot is pinned raises
        :class:`ReadOnlyError`.
        """
        return _SnapshotContext(self.transactions)

    # -- files published whole ----------------------------------------------------

    def _write_atomic(self, filename, pieces):
        """Durably publish the bytes *pieces* as *filename*: temp file,
        fsync, rename, then a directory fsync, so the rename itself is
        durable before this returns."""
        path = os.path.join(self.path, filename)
        tmp = path + ".tmp"
        handle = self._opener(tmp, "wb")
        try:
            for piece in pieces:
                handle.write(piece)
            fsync_file(handle)
        finally:
            handle.close()
        os.replace(tmp, path)
        fsync_directory(self.path)

    # -- durability -------------------------------------------------------------------

    @contextlib.contextmanager
    def image(self, lsn=None):
        """Pin this thread's snapshot at *lsn* (default now) between
        schema changes and yield ``(lsn, pieces)``: the image of the
        ledger and every table at that LSN
        (:func:`repro.storage.image.pack`), the catalog first, produced
        as *pieces* is iterated on this thread.  A checkpoint writes it
        to disk, a replica's seed onto the wire."""
        with self._ddl_mutex:
            lsn, ledger = self.transactions.pin_with_ledger(lsn)
            tables = [
                (name, table, table.schema)
                for name, table in sorted(
                    self._tables.items(), key=lambda item: item[0] != CATALOG
                )
            ]
        try:
            yield lsn, checkpoint_image.pack(lsn, ledger, tables)
        finally:
            self.transactions.unpin_snapshot()

    def checkpoint(self):
        """Write a full image of every table and drop the log it holds.

        One short hold of the log (:meth:`WriteAheadLog.rolled`) seals
        it at an LSN between transactions, pins the image's snapshot
        there, between schema changes (:meth:`image`), and dumps the
        text indexes.  So the image holds committed rows only (another
        thread's open transaction stays out of it).  It is written after
        the hold while commits go on; once its rename is durable, the
        segments it holds are deleted.
        """
        if self.path is None:
            raise StorageError("in-memory database cannot checkpoint")
        self.assert_writable()
        self.transactions.assert_no_snapshot()  # we pin our own below
        with self._ddl_mutex, contextlib.ExitStack() as pinned:
            with self._log.rolled() as lsn:
                _, pieces = pinned.enter_context(self.image(lsn))
                postings = self._dump_postings()
            # Commit point: after this rename, an open reads the new image.
            self._write_atomic(_IMAGE_FILE, pieces)
        self._log.drop_through(lsn)
        # Outside the hold: flush=True waits on a flush ticket.
        self._log.append(flush=True)
        self._publish_postings(postings)
        self.prune_versions()
        self._checkpoints.inc()

    # -- the posting stream (module docstring) ---------------------------------

    def _dump_postings(self):
        """``(lsn, [(table, column, rows, dump pieces), ...])``: what a
        posting stream written now would say -- or None when one may
        not be written (degraded; a text-indexed table holding a change
        no commit has stamped: an open transaction's, an abandoned
        one's) or need not be (no text index; the stream on disk names
        this LSN already).  In-memory work only.  The caller has the
        log durable to its last frame and nothing committing, so every
        stamped change is one a reopen finds at or below *lsn*."""
        lsn = self._log.change_lsn
        if self.degraded or lsn == self._stream_lsn:
            return None
        indexes = []
        for name, table in sorted(self._tables.items()):
            dumps = table.dump_text_indexes()
            if dumps is None:
                return None
            indexes += [(name,) + dump for dump in dumps]
        return (lsn, indexes) if indexes else None

    def _publish_postings(self, postings):
        """Write what :meth:`_dump_postings` returned as the posting
        stream.  The stream only ever saves the next open a rebuild, so
        a disk that refuses it costs that and nothing else."""
        if postings is None:
            return
        lsn, indexes = postings
        started = time.perf_counter()
        pieces = posting_stream.pack(lsn, indexes)
        try:
            with self._stream_mutex:
                self._write_atomic(_POSTING_STREAM_FILE, pieces)
                self._stream_lsn = lsn
        except OSError as exc:
            logger.warning(
                "database %s: posting stream not written: %s", self.path, exc
            )
            return
        gauge = self.metrics.gauge
        gauge("text.index.stream_bytes").set(sum(map(len, pieces)))
        gauge("text.index.stream_write_ms").set(
            (time.perf_counter() - started) * 1e3
        )

    def _load_postings(self):
        """Fill, from the posting stream, every deferred text index the
        stream describes as recovery left its table; returns ``({table:
        [column, ...]} loaded, [why not, ...])``.  A stream that is
        refused, or that left an index to be rebuilt, is removed: LSNs
        can be handed out again after a cut log tail, so only a stream
        this process has vouched for may stay."""
        path = os.path.join(self.path, _POSTING_STREAM_FILE)
        if not os.path.exists(path):
            return {}, ["no posting stream"]
        loaded, refused = {}, []
        try:
            with self._opener(path, "rb") as handle:
                lsn, bodies = posting_stream.unpack(handle.read())
            if lsn != self._log.change_lsn:
                raise RecoveryError(
                    "it names LSN %d, the log is at %d"
                    % (lsn, self._log.change_lsn)
                )
        except (OSError, RecoveryError) as exc:
            bodies = {}
            refused.append("posting stream refused: %s" % exc)
        for (name, column), (rows, body) in bodies.items():
            table = self._tables.get(name)
            index = None if table is None else table.text_index_for(column)
            try:
                if index is None:
                    raise StorageError("no longer indexed")
                if rows != table.row_estimate():
                    raise StorageError(
                        "%d rows, the stream describes %d"
                        % (table.row_estimate(), rows)
                    )
                index.load(body)
            except StorageError as exc:
                refused.append("%s.%s: %s" % (name, column, exc))
            else:
                loaded.setdefault(name, []).append(column)
        wanted = sum(
            len(table.text_index_columns()) for table in self._tables.values()
        )
        if not refused and wanted == sum(map(len, loaded.values())):
            self._stream_lsn = lsn
        else:
            try:
                os.remove(path)
            except OSError:
                pass
        return loaded, refused

    def _read_image(self):
        """``(lsn, ledger, tables)`` of the checkpoint image
        (:meth:`read_image`), ``(0, {}, ())`` if there is none."""
        path = os.path.join(self.path, _IMAGE_FILE)
        if not os.path.exists(path):
            return 0, {}, ()
        try:
            return self.read_image(lambda: self._opener(path, "rb"))
        except RecoveryError as exc:
            raise RecoveryError("%s: %s" % (path, exc))

    def read_image(self, open_image):
        """``(lsn, ledger, tables)`` of the image ``open_image()`` opens, for
        :meth:`install_image` (:func:`repro.storage.image.unpack`): an
        open's file or a replica's seed.  One that is not a whole image
        raises :class:`RecoveryError` here, before any row is installed;
        a table its catalog rows did not make, once *tables* reaches it."""
        return checkpoint_image.unpack(open_image, self._image_schema)

    def _image_schema(self, name):
        if not self.has_table(name):
            raise RecoveryError(
                "the image holds table %r, its catalog no such table" % name
            )
        return self.table(name).schema

    def install_image(self, ledger, tables):
        """Defer index upkeep and install *ledger* and *tables*
        (:meth:`read_image`'s), the rows as committed at LSN 0: each row
        its rowid's one version, no chain.  The catalog's rows come
        first and make the tables the rest fill;
        :meth:`build_deferred_indexes` ends the load."""
        self.ledger.update(ledger)
        self.defer_index_upkeep()
        for name, rows in tables:
            self.table(name).install_committed(0, rows)

    def prune_versions(self):
        """Reclaim version chains: every version superseded below the
        horizon (bounded by the oldest pinned snapshot) is unreachable
        by any current or future reader."""
        horizon = self.transactions.prune_horizon()
        for table in self._tables.values():
            table.prune_versions(horizon)

    def defer_index_upkeep(self):
        """Every (empty) table, and every table the catalog creates
        until :meth:`build_deferred_indexes`, stops maintaining its
        indexes: for recovery and a replica's seed, which fill the
        tables before any reader exists."""
        self._deferring = True
        for table in self._tables.values():
            table.defer_index_upkeep()

    def build_deferred_indexes(self):
        """End the deferral: every index is filled once -- a text index
        of a durable database from the posting stream where that
        describes the rows now held, anything else from the rows.
        Returns ``(loaded, rebuilt, seconds loading, [why not, ...])``."""
        self._deferring = False
        started = time.perf_counter()
        loaded, refused = ({}, []) if self.path is None else self._load_postings()
        load_s = time.perf_counter() - started
        rebuilt = sum(
            table.build_deferred_indexes(loaded.get(name, ()))
            for name, table in self._tables.items()
        )
        return sum(map(len, loaded.values())), rebuilt, load_s, refused

    def _recover(self, started, image_ledger, image_tables):
        """Recover, then say what the open that began at *started* cost:
        the ``db.recovery.*`` gauges and one log line, read around the
        phases so no row pays for them."""
        redo_records, build_s, (loaded, rebuilt, load_s, refused) = (
            self._recover_inner(image_ledger, image_tables)
        )
        # Tables start at version 0 and every install bumps it once.
        rows_installed = sum(table.version for table in self._tables.values())
        build_ms = build_s * 1e3
        total_ms = (time.perf_counter() - started) * 1e3
        gauge = self.metrics.gauge
        gauge("db.recovery.redo_records").set(redo_records)
        gauge("db.recovery.rows_installed").set(rows_installed)
        gauge("db.recovery.index_build_ms").set(build_ms)
        gauge("db.recovery.index_load_ms").set(load_s * 1e3)
        gauge("db.recovery.indexes_loaded").set(loaded)
        gauge("db.recovery.indexes_rebuilt").set(rebuilt)
        gauge("db.recovery.total_ms").set(total_ms)
        logger.info(
            "database %s recovered in %.1f ms: %d redo records, %d rows "
            "installed, indexes built in %.1f ms (%d loaded in %.1f ms, %d "
            "rebuilt from rows%s)",
            self.path, total_ms, redo_records, rows_installed, build_ms,
            loaded, load_s * 1e3, rebuilt,
            "".join("; " + why for why in refused),
        )

    def _recover_inner(self, image_ledger, image_tables):
        """Install the image's ledger and tables (:meth:`_read_image`),
        redo the log,
        build the indexes; returns (log records read, seconds the index
        build took, what :meth:`build_deferred_indexes` said of it).

        The catalog's rows -- the image's first, then the log's -- make
        the tables; rows install with index upkeep deferred and each
        index is built once at the end, so a RecoveryError on the way
        leaves nothing built."""
        with collector_paused():
            self.install_image(image_ledger, image_tables)
            # REDO the log over the checkpoint image.
            redo_records = wal_module.replay(self._log, self, self._log.base_lsn)
            build_started = time.perf_counter()
            built = self.build_deferred_indexes()
            build_s = time.perf_counter() - build_started
        return redo_records, build_s, built

    def close(self):
        """Release the log -- after publishing the posting stream, if
        the log is durable to its last frame: every acknowledged commit
        flushed it, so a frame past the last fsync is a failed or a
        crashed commit's and the indexes may hold what no reopen will.
        Call it once nothing else is committing."""
        log = self._log
        if log is None:
            return
        try:
            if log.flushed_lsn == log.last_lsn:
                self._publish_postings(self._dump_postings())
        finally:
            log.close()
            self._log = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class _SnapshotContext:
    """Pins a snapshot on enter, unpins on exit; ``lsn`` is the view."""

    def __init__(self, transactions):
        self._transactions = transactions
        self.lsn = None

    def __enter__(self):
        self.lsn = self._transactions.pin_snapshot()
        return self

    def __exit__(self, *exc_info):
        self._transactions.unpin_snapshot()
        return False
