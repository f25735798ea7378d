"""Transactions: atomic units of work over the storage layer.

A transaction accumulates a journal of row-level changes in memory and
reaches the log once, whole, at commit: ``begin()`` and abort touch no
file, a transaction that wrote nothing commits by releasing its locks,
and one that did goes through :meth:`TransactionManager._publish` -- the
one commit path, shared with auto-commit statements and bulk batches --
which appends all its frames in one hold of the log's append mutex,
flushes before acknowledging, and on failure undoes the changes in
reverse order against the in-memory tables.

Two thread-local pieces of context support the session/service layer:

* a **deadline** (absolute ``time.monotonic``) threaded into every lock
  acquisition, so a 100 ms call budget bounds lock waits to 100 ms
  instead of the manager's flat default;
* a **statement owner**: a lock-table identity for a single statement
  running outside any transaction (the QUEL executor's auto-commit
  path), so even lone statements read and write under real S/X locks
  and release them when the statement ends.

A storage I/O failure (``OSError``) while publishing to the WAL flips
the database into read-only degraded mode (see
:meth:`repro.storage.database.Database.enter_degraded`): the in-memory
state stays consistent (the failed transaction is rolled back), reads
-- read-only transactions included -- keep serving, and further writes
fail fast with ``ReadOnlyError``.

Snapshots (MVCC)
----------------
The manager is also the snapshot authority.  A thread calls
:meth:`TransactionManager.pin_snapshot` to fix its read view at the
current *visible LSN* -- the WAL's ``flushed_lsn`` on a durable
database, an internal commit counter on an in-memory one -- and every
table read on that thread routes through the version chains until
:meth:`TransactionManager.unpin_snapshot`.  Committing transactions
stamp their versions with the commit record's LSN inside the hold of
the log's append mutex that appended it (:meth:`_publish`).  A
group-commit leader needs that mutex to fsync, which orders stamping
strictly before the LSN can become durable, so a reader can never pin a
snapshot that should include a commit whose stamps it cannot yet see.
Pinned snapshots are registered so checkpoint pruning
(:meth:`prune_horizon`) never reclaims a version an active reader still
needs.
"""

import enum
import itertools
import threading

from repro.errors import ReadOnlyError, TransactionError
from repro.storage import wal as wal_module
from repro.storage.faults import SimulatedCrash
from repro.storage.lock import LockManager, LockMode


class TransactionState(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work; created via TransactionManager.begin()."""

    def __init__(self, txn_id, manager):
        self.txn_id = txn_id
        self.state = TransactionState.ACTIVE
        self._manager = manager
        self.changes = []  # (action, table_name, new_row, old_row)

    def record(self, action, table_name, new_row, old_row):
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                "transaction %d is %s; cannot record changes"
                % (self.txn_id, self.state.value)
            )
        self.changes.append((action, table_name, new_row, old_row))

    def commit(self):
        self._manager._commit(self)

    def abort(self):
        self._manager._abort(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.state is TransactionState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


_ACTION_TO_KIND = {
    "insert": wal_module.INSERT,
    "update": wal_module.UPDATE,
    "delete": wal_module.DELETE,
}

# Auto-commit writes one self-committing frame per statement instead of
# a BEGIN/change/COMMIT triple: the record's presence in the log's
# valid prefix is the commit point.
_AUTO_KIND = {
    "insert": wal_module.AC_INSERT,
    "update": wal_module.AC_UPDATE,
    "delete": wal_module.AC_DELETE,
}


class _ThreadState(threading.local):
    """A thread's transaction state.  ``snapshot`` defaults on the
    class because every table read asks for it: ``getattr`` with a
    default on a thread-local the thread never set raises and catches
    inside, ten times the cost of finding the attribute."""

    snapshot = None


class TransactionManager:
    """Coordinates transactions, the lock manager, and the WAL."""

    def __init__(self, database, log=None):
        self._database = database
        self._log = log
        # Share the database's registry so lock counters land beside the
        # WAL/pager ones; direct construction in tests may lack one.
        metrics = getattr(database, "metrics", None)
        self._locks = LockManager(metrics=metrics)
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        self._mutex = threading.Lock()
        # MVCC state.  _visible_lsn plays flushed_lsn's role on an
        # in-memory database (no WAL): it advances once per commit,
        # *after* that commit's versions are stamped.  The registry maps
        # pinned snapshot LSN -> number of pinning threads, feeding the
        # prune horizon and the mvcc.snapshots_active gauge.
        self._stamp_mutex = threading.Lock()
        self._visible_lsn = 0
        self._snapshot_mutex = threading.Lock()
        self._active_snapshots = {}
        self._snapshots_gauge = (
            metrics.gauge("mvcc.snapshots_active") if metrics is not None
            else None
        )

    @property
    def lock_manager(self):
        return self._locks

    # -- snapshots (MVCC) ------------------------------------------------------

    def snapshot_lsn(self):
        """The LSN a snapshot pinned right now would read at."""
        if self._log is not None:
            return self._log.flushed_lsn
        return self._visible_lsn

    def current_snapshot(self):
        """The snapshot LSN pinned on this thread, or None."""
        return self._local.snapshot

    def pin_snapshot(self, lsn=None):
        """Pin this thread's read view at *lsn* (default: now's durable
        LSN); returns the pinned LSN.  Nested pins share the outermost
        snapshot and must be matched by as many ``unpin_snapshot`` calls.

        The LSN is read *inside* the registry mutex: read outside it, a
        commit plus a prune could land between the read and the
        registration and reclaim the very version this reader needs
        (see :meth:`prune_horizon`, whose argument rests on it).
        """
        depth = getattr(self._local, "snapshot_depth", 0)
        if depth:
            self._local.snapshot_depth = depth + 1
            return self._local.snapshot
        with self._snapshot_mutex:
            snapshot = self.snapshot_lsn() if lsn is None else lsn
            self._active_snapshots[snapshot] = (
                self._active_snapshots.get(snapshot, 0) + 1
            )
            if self._snapshots_gauge is not None:
                self._snapshots_gauge.set(
                    sum(self._active_snapshots.values())
                )
        self._local.snapshot = snapshot
        self._local.snapshot_depth = 1
        return snapshot

    def unpin_snapshot(self):
        """Release this thread's snapshot pin (innermost first)."""
        depth = getattr(self._local, "snapshot_depth", 0)
        if not depth:
            raise TransactionError("no snapshot is pinned on this thread")
        if depth > 1:
            self._local.snapshot_depth = depth - 1
            return
        snapshot = self._local.snapshot
        self._local.snapshot = None
        self._local.snapshot_depth = 0
        with self._snapshot_mutex:
            count = self._active_snapshots.get(snapshot, 0) - 1
            if count > 0:
                self._active_snapshots[snapshot] = count
            else:
                self._active_snapshots.pop(snapshot, None)
            if self._snapshots_gauge is not None:
                self._snapshots_gauge.set(
                    sum(self._active_snapshots.values())
                )

    def assert_no_snapshot(self):
        """Refuse mutations on a thread reading through a snapshot."""
        snapshot = self.current_snapshot()
        if snapshot is not None:
            raise ReadOnlyError(
                "this thread holds a read-only snapshot (LSN %d); "
                "mutations are not allowed until it is unpinned" % snapshot
            )

    def prune_horizon(self):
        """The LSN below which no active or future snapshot can look.

        The current visible LSN is read *before* the active-snapshot
        registry: LSNs are monotone, so a reader pinning concurrently
        either registered in time to hold the horizon down or pinned a
        snapshot at least as new as the LSN we read first.  Either way
        every version with ``end_lsn <= horizon`` is invisible to it.
        """
        horizon = self.snapshot_lsn()
        with self._snapshot_mutex:
            if self._active_snapshots:
                horizon = min(horizon, min(self._active_snapshots))
        return horizon

    # -- current-transaction bookkeeping ---------------------------------------

    def current(self):
        """The transaction active on this thread, or None."""
        return getattr(self._local, "txn", None)

    def _next_id(self):
        with self._mutex:
            return next(self._ids)

    def begin(self):
        """Start a transaction on this thread (touches no file)."""
        if self.current() is not None:
            raise TransactionError("a transaction is already active on this thread")
        txn = Transaction(self._next_id(), self)
        self._local.txn = txn
        return txn

    # -- deadline propagation -----------------------------------------------------

    def set_deadline(self, deadline):
        """Bound this thread's lock waits by absolute monotonic *deadline*."""
        self._local.deadline = deadline

    def clear_deadline(self):
        self._local.deadline = None

    def current_deadline(self):
        return getattr(self._local, "deadline", None)

    # -- statement-scoped lock owners ----------------------------------------------

    def begin_statement(self):
        """Return ``(owner_id, ephemeral)`` for statement-scoped locking.

        Inside a transaction the transaction is the owner and holds its
        locks until commit/abort (strict 2PL).  Outside one, a fresh id
        is allocated for the statement; the caller must pass it to
        :meth:`end_statement` when the statement finishes (success *or*
        error), releasing its locks.
        """
        txn = self.current()
        if txn is not None:
            return txn.txn_id, False
        existing = getattr(self._local, "statement_owner", None)
        if existing is not None:
            return existing, False  # nested statement joins the outer scope
        owner = self._next_id()
        self._local.statement_owner = owner
        return owner, True

    def end_statement(self, owner):
        """Release an ephemeral statement owner's locks."""
        if getattr(self._local, "statement_owner", None) == owner:
            self._local.statement_owner = None
        self._locks.release_all(owner)

    def _lock_owner(self):
        """The lock-table identity for this thread, or None (unlocked)."""
        txn = self.current()
        if txn is not None:
            return txn.txn_id
        return getattr(self._local, "statement_owner", None)

    # -- commit stamping (MVCC) ------------------------------------------------

    def _stamp(self, changes, lsn):
        """Give *changes*' versions the commit LSN *lsn*."""
        tables = self._database.table
        for action, table_name, new_row, old_row in changes:
            tables(table_name).stamp_change(lsn, action, new_row, old_row)

    def _stamp_local(self, changes):
        """Stamp *changes* on an in-memory database (no WAL).

        The visible LSN advances only after every version is stamped, so
        a reader pinning the new LSN always sees the whole commit.
        """
        with self._stamp_mutex:
            self._stamp(changes, self._visible_lsn + 1)
            self._visible_lsn += 1

    def journal(self, action, table_name, new_row, old_row):
        """Table mutation hook: route to the active txn or auto-commit."""
        txn = self.current()
        if txn is not None:
            txn.record(action, table_name, new_row, old_row)
            return
        # Auto-commit: one self-committing frame is the whole
        # transaction (no BEGIN/COMMIT bracket to pay for).
        self._publish(
            self._next_id(),
            ((action, table_name, new_row, old_row),),
            ((_AUTO_KIND[action], table_name, new_row, old_row),),
        )

    def journal_insert_batch(self, table_name, rows):
        """Journal a bulk insert of *rows* already installed in memory.

        Inside a transaction the rows simply join its journal (commit
        writes them as ordinary INSERT frames).  Outside one, the whole
        batch becomes a single self-committing BATCH_INSERT frame:
        crash recovery replays it all-or-nothing, and one group-commit
        flush acknowledges the lot.
        """
        txn = self.current()
        if txn is not None:
            for row in rows:
                txn.record("insert", table_name, row, None)
            return
        self._publish(
            self._next_id(),
            [("insert", table_name, row, None) for row in rows],
            ((wal_module.BATCH_INSERT, table_name, rows, None),),
        )

    def _publish(self, txn_id, changes, frames):
        """The one commit path: make *changes*, already applied in
        memory, durable as *frames* -- or undo them and raise.

        *frames* are ``(kind, table, row, old_row)`` in log order, the
        last one the commit point (for BATCH_INSERT, *row* is the row
        list).  They are appended in one hold of the log's append
        mutex, so the run is contiguous and nothing durable, shipped or
        pinned ever ends inside it.  The versions are stamped with the
        commit point's LSN before the hold ends: a group-commit leader
        needs the same mutex to fsync, so the stamps are published
        strictly before ``flushed_lsn`` -- hence any snapshot -- can
        reach that LSN.  The commit is acknowledged after its flush.

        Any failure means the transaction did not happen: the changes
        are unstamped and undone newest-first (no reader can have
        pinned a snapshot covering them -- ``flushed_lsn`` never reached
        the commit point), and an ``OSError`` also degrades the
        database to read-only.  The frames a failed flush leaves behind
        are cut away before writes resume (``exit_degraded``).  Only a
        ``SimulatedCrash`` leaves memory as it is: the process is
        modelled as dead and the crash oracle inspects the state it
        died in.
        """
        log = self._log
        if log is None:
            # In-memory database: stamping *is* the commit point.
            self._stamp_local(changes)
            return
        # The column orders of the tables the frames name, not of every
        # table the database holds.
        orders = {
            table: self._database.table(table).schema.column_names()
            for table in {frame[1] for frame in frames} if table is not None
        }
        stamped = False
        try:
            self._database.assert_writable()
            with log._mutex:
                for kind, table, row, old_row in frames:
                    if kind == wal_module.BATCH_INSERT:
                        record = log.append_batch(txn_id, table, row, orders)
                    else:
                        record = log.append(
                            txn_id, kind, table=table, row=row,
                            old_row=old_row, column_orders=orders,
                        )
                self._stamp(changes, record.lsn)
                stamped = True
            log.commit_flush(record.lsn, deadline=self.current_deadline())
        except BaseException as exc:
            if isinstance(exc, SimulatedCrash):
                raise
            if stamped:
                self._stamp(changes, None)
            for change in reversed(changes):
                self._undo_change(*change)
            if isinstance(exc, OSError):
                self._database.enter_degraded(exc)
            raise

    # -- locking helpers used by the Database facade ----------------------------

    def lock_for_read(self, table_name):
        owner = self._lock_owner()
        if owner is not None:
            self._locks.acquire(
                owner, table_name, LockMode.SHARED,
                deadline=self.current_deadline(),
            )

    def lock_for_write(self, table_name):
        owner = self._lock_owner()
        if owner is not None:
            self._locks.acquire(
                owner, table_name, LockMode.EXCLUSIVE,
                deadline=self.current_deadline(),
            )

    # -- commit / abort -----------------------------------------------------------

    def abandon(self, txn):
        """Last-resort cleanup when abort itself failed: mark *txn*
        aborted, release its locks, and detach it from the thread so the
        session can begin a fresh transaction."""
        if txn.state is TransactionState.ACTIVE:
            self._finish(txn, TransactionState.ABORTED)

    def _finish(self, txn, state):
        txn.state = state
        self._locks.release_all(txn.txn_id)
        if self.current() is txn:
            self._local.txn = None

    def _undo_change(self, action, table_name, new_row, old_row):
        """Reverse one journalled change against the in-memory table.

        Uses the table's version-aware undo paths: the change's versions
        are surgically removed (or reopened) from the chains so pinned
        snapshot readers never lose committed history to a rollback.
        """
        table = self._database.table(table_name)
        if action == "insert":
            table.undo_insert(new_row)
        elif action == "update":
            table.undo_update(new_row, old_row)
        elif action == "delete":
            table.undo_delete(old_row)

    def _commit(self, txn):
        if txn.state is not TransactionState.ACTIVE:
            raise TransactionError("cannot commit a %s transaction" % txn.state.value)
        state = TransactionState.ABORTED
        try:
            # An empty write set has nothing to make durable: the commit
            # is the lock release, on a healthy or a degraded database.
            if txn.changes:
                frames = [(wal_module.BEGIN, None, None, None)]
                frames += [
                    (_ACTION_TO_KIND[action], table_name, new_row, old_row)
                    for action, table_name, new_row, old_row in txn.changes
                ]
                frames.append((wal_module.COMMIT, None, None, None))
                self._publish(txn.txn_id, txn.changes, frames)
            state = TransactionState.COMMITTED
        finally:
            self._finish(txn, state)

    def _abort(self, txn):
        if txn.state is not TransactionState.ACTIVE:
            raise TransactionError("cannot abort a %s transaction" % txn.state.value)
        try:
            # Undo in memory, newest first; the log never saw the
            # transaction, so there is nothing to tell it.
            for change in reversed(txn.changes):
                self._undo_change(*change)
        finally:
            self._finish(txn, TransactionState.ABORTED)
