"""The Database: a catalog of tables plus durability and transactions.

In-memory by default; given a directory path it persists via a
checkpoint image (page file) plus a write-ahead log, and recovers on
open by loading the checkpoint and REDO-replaying the log.

Crash-safety protocol: checkpoints write a fresh generation-numbered
page file (``data.<gen>.mdm``), fsync it, then atomically replace
``roots.json`` — whose content names the generation file — as the
single commit point.  A crash anywhere in a checkpoint leaves either
the old roots (old image intact, log still replayable) or the new
roots (new image fully synced); never a mix.  Catalog and roots writes
go through write-to-temp + fsync + ``os.replace`` for the same reason.

So does the posting stream (``repro.text.stream``): the text indexes as
bytes, published where they provably equal a rebuild from committed
rows -- under a checkpoint's hold of the log and at ``close`` -- and
naming the log's ``change_lsn`` at that moment.  An open installs image
and log as ever and loads an index from the stream only if the log it
recovered is at that same ``change_lsn`` and the table has the row
count the stream says; any other stream, or none, is the rebuild from
rows, which stays the reference the crash battery checks against.
"""

import json
import logging
import os
import threading
import time

from repro.errors import (
    ReadOnlyError,
    RecoveryError,
    StorageError,
    TransactionError,
)

logger = logging.getLogger(__name__)
from repro.obs.metrics import MetricsRegistry
from repro.storage import wal as wal_module
from repro.storage.faults import fsync_file
from repro.storage.pager import Pager
from repro.storage.row import decode_row_run, encode_row_run
from repro.storage.table import Column, Table, TableSchema
from repro.storage.transaction import TransactionManager
from repro.storage.values import Domain
from repro.text import stream as posting_stream

_CATALOG_FILE = "catalog.json"
_DATA_FILE = "data.mdm"  # legacy fixed name; new checkpoints use data.<gen>.mdm
_LOG_FILE = "wal.log"
_ROOTMAP_FILE = "roots.json"
_TEXT_INDEX_FILE = "text_indexes.json"
_POSTING_STREAM_FILE = "postings.bin"


class Database:
    """A named collection of tables with optional durability.

    ``Database()`` is purely in-memory (fast, for tests and scratch
    work).  ``Database(path)`` stores a checkpoint image and WAL under
    *path* and recovers committed state on reopen.  *opener* is an
    injectable binary-mode ``open`` substitute threaded through the WAL
    and pager (see :mod:`repro.storage.faults`); production code passes
    nothing.
    """

    def __init__(self, path=None, opener=None, metrics=None):
        self.path = path
        self._opener = opener if opener is not None else open
        self._tables = {}
        self._log = None
        self._degraded_reason = None
        # Bumped on any change to the queryable shape of the database --
        # table create/drop, new index, widened entity schema -- so
        # cached query plans (see repro.quel.cache) can detect staleness
        # with one integer compare.
        self.schema_epoch = 0
        # One registry per database; the WAL, pager, lock manager, and
        # QUEL executor above all record into it.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._degraded_entries = self.metrics.counter("db.degraded_entries")
        self._checkpoints = self.metrics.counter("db.checkpoints")
        # The LSN the posting stream on disk names, once this process
        # has written or loaded it; the mutex orders its writers.
        self._stream_lsn = None
        self._stream_mutex = threading.Lock()
        if path is not None:
            os.makedirs(path, exist_ok=True)
            self._log = wal_module.WriteAheadLog(
                os.path.join(path, _LOG_FILE), opener=self._opener,
                metrics=self.metrics,
            )
        self.transactions = TransactionManager(self, self._log)
        if path is not None:
            self._recover()

    # -- table management ----------------------------------------------------

    def create_table(self, name, columns):
        """Create a table; *columns* is a list of (name, domain) pairs."""
        if name in self._tables:
            raise StorageError("table %r already exists" % name)
        schema = TableSchema(name, [Column(n, d) for n, d in columns])
        table = Table(
            schema, journal=self._journal_for(name), guard=self._guard_for(name),
            metrics=self.metrics, on_schema_change=self.bump_schema_epoch,
            journal_batch=self._journal_batch_for(name),
            snapshot=self.transactions.current_snapshot,
            prune_horizon=self.transactions.prune_horizon,
        )
        self._tables[name] = table
        self.bump_schema_epoch()
        self._persist_catalog()
        return table

    def create_or_bind_table(self, name, columns):
        """Create *name*, or bind to it if it already exists (recovery).

        Binding requires the recovered table's columns to match the
        requested definition exactly, so a genuine name collision still
        fails loudly.
        """
        if name in self._tables:
            table = self._tables[name]
            expected = [column_name for column_name, _ in columns]
            if table.schema.column_names() != expected:
                raise StorageError(
                    "table %r exists with columns %s, not %s"
                    % (name, table.schema.column_names(), expected)
                )
            return table
        return self.create_table(name, columns)

    def drop_table(self, name):
        if name not in self._tables:
            raise StorageError("no table %r" % name)
        del self._tables[name]
        self.bump_schema_epoch()
        self._persist_catalog()

    def _persist_catalog(self):
        """Keep the on-disk table catalog current so log replay after a
        crash (no checkpoint yet) can rebuild every logged table."""
        if self.path is None or getattr(self, "_recovering", False):
            return
        catalog = {
            name: [[c.name, c.domain.value] for c in table.schema.columns]
            for name, table in self._tables.items()
        }
        self._write_json_atomic(_CATALOG_FILE, catalog)

    def bump_schema_epoch(self):
        """Invalidate cached query plans compiled under the old shape."""
        self.schema_epoch += 1

    # -- text (trigram) indexes ---------------------------------------------

    def create_text_index(self, table_name, column):
        """Create a durable trigram text index over ``table.column``.

        Self-committing DDL, mirroring ``bulk_ingest``'s transaction
        stance: the WAL record lands (flushed) before the in-memory
        create, and a ``text_indexes.json`` sidecar is rewritten after
        it, so a crash at any point recovers the index — sidecar and
        log replay are both idempotent.  Unlike equality indexes there
        is no adaptive auto-create: the planner only lowers text
        predicates onto indexes declared through here.
        """
        self.assert_writable()
        if self.transactions.current() is not None:
            raise TransactionError(
                "text-index DDL is self-committing and cannot run inside "
                "an explicit transaction"
            )
        table = self.table(table_name)
        existing = table.text_index_for(column)
        if existing is not None:
            return existing
        schema_column = table.schema.column(column)
        if schema_column.domain is not Domain.STRING:
            raise StorageError(
                "text index needs a string column; %r.%r is %s"
                % (table_name, column, schema_column.domain.value)
            )
        if self._log is not None:
            self._log.append(
                0, wal_module.TEXT_INDEX_CREATE,
                table=table_name + wal_module.TEXT_TARGET_SEP + column,
                flush=True,
            )
        index = table.create_text_index(column)
        self._persist_text_indexes()
        return index

    def drop_text_index(self, table_name, column):
        """Durably drop the trigram index over ``table.column``."""
        self.assert_writable()
        if self.transactions.current() is not None:
            raise TransactionError(
                "text-index DDL is self-committing and cannot run inside "
                "an explicit transaction"
            )
        table = self.table(table_name)
        if table.text_index_for(column) is None:
            raise StorageError(
                "no text index on %r.%r" % (table_name, column)
            )
        if self._log is not None:
            self._log.append(
                0, wal_module.TEXT_INDEX_DROP,
                table=table_name + wal_module.TEXT_TARGET_SEP + column,
                flush=True,
            )
        table.drop_text_index(column)
        self._persist_text_indexes()

    def text_index_catalog(self):
        """``{table: [column, ...]}`` for every table with text indexes."""
        return {
            name: table.text_index_columns()
            for name, table in sorted(self._tables.items())
            if table.text_index_columns()
        }

    def _persist_text_indexes(self):
        if self.path is None or getattr(self, "_recovering", False):
            return
        self._write_json_atomic(_TEXT_INDEX_FILE, self.text_index_catalog())

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError("no table %r" % name)

    def has_table(self, name):
        return name in self._tables

    def table_names(self):
        return sorted(self._tables)

    def column_orders(self):
        """Map table -> column order, for WAL row (de)serialization."""
        return {
            name: table.schema.column_names() for name, table in self._tables.items()
        }

    def _journal_for(self, table_name):
        def journal(action, name, new_row, old_row):
            self.transactions.journal(action, name, new_row, old_row)
        return journal

    def _journal_batch_for(self, table_name):
        def journal_batch(name, rows):
            self.transactions.journal_insert_batch(name, rows)
        return journal_batch

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

        Chunks the input into batches of *batch_rows*; each batch takes
        the table X lock once, installs its rows with index builds
        deferred to the end of the batch, and journals one BATCH_INSERT
        frame whose group-commit flush acknowledges the whole chunk.
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
            chunk = rows[start:start + batch_rows]
            owner, ephemeral = self.transactions.begin_statement()
            try:
                out.extend(table.insert_many(chunk))
            finally:
                if ephemeral:
                    self.transactions.end_statement(owner)
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

    # -- durable metadata files ---------------------------------------------------

    def _write_atomic(self, filename, pieces):
        """Durably publish the bytes *pieces* as *filename* via temp +
        fsync + rename."""
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

    def _write_json_atomic(self, filename, obj):
        """:meth:`_write_atomic` of *obj* as JSON."""
        self._write_atomic(
            filename, [json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")]
        )

    def _read_json(self, filename):
        path = os.path.join(self.path, filename)
        with self._opener(path, "rb") as handle:
            raw = handle.read()
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RecoveryError("corrupt %s in %r: %s" % (filename, self.path, exc))

    def _read_table_map(self, filename, shape, is_entry):
        """:meth:`_read_json` for a file that maps each table to a list
        of entries passing *is_entry*; well-formed JSON of any other
        shape is as corrupt as a torn one, and says so by name."""
        doc = self._read_json(filename)
        if not isinstance(doc, dict) or not all(
            isinstance(entries, list) and all(map(is_entry, entries))
            for entries in doc.values()
        ):
            raise RecoveryError(
                "corrupt %s in %r: expected %s" % (filename, self.path, shape)
            )
        return doc

    # -- durability -------------------------------------------------------------------

    @staticmethod
    def _parse_roots(doc):
        """Roots document -> (data file name, {table: head page}).

        New format: ``{"file": "data.<gen>.mdm", "roots": {...}}``;
        legacy format was the bare roots mapping over a fixed file name.
        """
        if isinstance(doc, dict) and "file" in doc and "roots" in doc:
            return doc["file"], doc["roots"]
        return _DATA_FILE, doc

    def _next_data_file(self):
        roots_path = os.path.join(self.path, _ROOTMAP_FILE)
        gen = 0
        if os.path.exists(roots_path):
            current, _ = self._parse_roots(self._read_json(_ROOTMAP_FILE))
            parts = current.split(".")
            if len(parts) == 3 and parts[1].isdigit():
                gen = int(parts[1])
        return "data.%d.mdm" % (gen + 1)

    def checkpoint(self):
        """Write a full image of every table and truncate the log.

        Image, roots and truncation run inside one hold of the log's
        append mutex (:meth:`WriteAheadLog.quiesced`), the image read
        through a snapshot pinned at the LSN that hold made durable --
        which lies between transactions.  So the image holds committed
        rows only (another thread's open transaction stays out of it)
        and no commit can land after its table's image and before the
        truncation.  Committers wait for the length of a checkpoint;
        pinned readers do not.  The text indexes are dumped inside the
        hold too, in memory; the posting stream file is written after it.
        """
        if self.path is None:
            raise StorageError("in-memory database cannot checkpoint")
        self.assert_writable()
        self.transactions.assert_no_snapshot()  # we pin our own below
        self._persist_catalog()
        self._persist_text_indexes()
        with self._log.quiesced() as lsn:
            self.transactions.pin_snapshot(lsn)
            try:
                self._write_image()
            finally:
                self.transactions.unpin_snapshot()
            self._log.truncate()
            postings = self._dump_postings()
        # Outside the hold: flush=True waits on a flush ticket.
        self._log.append(0, wal_module.CHECKPOINT, flush=True)
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

    def _write_image(self):
        """Write the rows this thread's snapshot sees to a fresh
        generation file and make it the one recovery loads."""
        data_name = self._next_data_file()
        data_path = os.path.join(self.path, data_name)
        if os.path.exists(data_path):
            os.remove(data_path)  # residue of a checkpoint that crashed mid-image
        roots = {}
        with Pager(data_path, opener=self._opener, metrics=self.metrics) as pager:
            for name, table in sorted(self._tables.items()):
                roots[name] = pager.write_stream(
                    encode_row_run(table, table.schema.column_names())
                )
            pager.flush()
        # Commit point: after this rename, recovery reads the new image.
        self._write_json_atomic(_ROOTMAP_FILE, {"file": data_name, "roots": roots})
        for name in os.listdir(self.path):
            if name.startswith("data.") and name.endswith(".mdm") and name != data_name:
                os.remove(os.path.join(self.path, name))

    def prune_versions(self):
        """Reclaim version chains: every version superseded below the
        horizon (bounded by the oldest pinned snapshot) is unreachable
        by any current or future reader."""
        horizon = self.transactions.prune_horizon()
        for table in self._tables.values():
            table.prune_versions(horizon)

    def defer_index_upkeep(self):
        """Every (empty) table stops maintaining its indexes until
        :meth:`build_deferred_indexes`: for recovery and a replica's
        seed, which fill the tables before any reader exists."""
        for table in self._tables.values():
            table.defer_index_upkeep()

    def build_deferred_indexes(self):
        """End the deferral: every index is filled once -- a text index
        of a durable database from the posting stream where that
        describes the rows now held, anything else from the rows.
        Returns ``(loaded, rebuilt, seconds loading, [why not, ...])``."""
        started = time.perf_counter()
        loaded, refused = ({}, []) if self.path is None else self._load_postings()
        load_s = time.perf_counter() - started
        rebuilt = sum(
            table.build_deferred_indexes(loaded.get(name, ()))
            for name, table in self._tables.items()
        )
        return sum(map(len, loaded.values())), rebuilt, load_s, refused

    def _recover(self):
        """Recover, then say what the open cost: the ``db.recovery.*``
        gauges and one log line, read around the phases so no row pays
        for them."""
        started = time.perf_counter()
        self._recovering = True
        try:
            redo_records, build_s, (loaded, rebuilt, load_s, refused) = (
                self._recover_inner()
            )
        finally:
            self._recovering = False
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

    def _recover_inner(self):
        """Load the image, redo the log, build the indexes; returns
        (log records read, seconds the index build took, what
        :meth:`build_deferred_indexes` said of it)."""
        catalog_path = os.path.join(self.path, _CATALOG_FILE)
        roots_path = os.path.join(self.path, _ROOTMAP_FILE)
        if os.path.exists(catalog_path):
            catalog = self._read_table_map(
                _CATALOG_FILE, "{table: [[column, domain], ...]}",
                lambda column: isinstance(column, list) and len(column) == 2,
            )
            for name, columns in sorted(catalog.items()):
                if not self.has_table(name):
                    self.create_table(name, [(c, d) for c, d in columns])
            # No reader exists yet: image rows and redone records
            # install with index upkeep deferred, the sidecar below and
            # the log's TEXT_INDEX_CREATE / DROP only register and
            # unregister, and each index left at the end is built once
            # from the recovered rows -- the build the crash battery
            # cross-checks against a row-by-row rebuild.  A RecoveryError
            # on the way leaves nothing built.
            self.defer_index_upkeep()
            if os.path.exists(os.path.join(self.path, _TEXT_INDEX_FILE)):
                text_indexes = self._read_table_map(
                    _TEXT_INDEX_FILE, "{table: [column, ...]}",
                    lambda column: isinstance(column, str),
                )
                for name, columns in sorted(text_indexes.items()):
                    if self.has_table(name):
                        for column in columns:
                            self._tables[name].create_text_index(column)
            if os.path.exists(roots_path):
                data_name, roots = self._parse_roots(self._read_json(_ROOTMAP_FILE))
                data_path = os.path.join(self.path, data_name)
                if roots and not os.path.exists(data_path):
                    raise RecoveryError("checkpoint image missing at %r" % data_path)
                if roots:
                    with Pager(
                        data_path, opener=self._opener, metrics=self.metrics
                    ) as pager:
                        for name, head in roots.items():
                            self._load_table_image(pager, name, head)
        # REDO the log over the checkpoint image.
        redo_records = wal_module.replay(self._log, self)
        build_started = time.perf_counter()
        built = self.build_deferred_indexes()
        return redo_records, time.perf_counter() - build_started, built

    def _load_table_image(self, pager, name, head_page_no):
        table = self.table(name)
        for row in decode_row_run(
            pager.read_stream(head_page_no), table.schema.column_names()
        ):
            table.install_committed(0, row.rowid, row)

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
