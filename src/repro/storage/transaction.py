"""Transactions: atomic units of work over the storage layer.

A transaction accumulates a journal of row-level changes in memory and
reaches the log once, whole, at commit: ``begin()`` and abort touch no
file, a transaction that wrote nothing commits by releasing its locks,
and one that did goes through :meth:`TransactionManager._publish` -- the
one commit path, shared with statements and bulk batches -- which
appends one ``COMMIT`` frame, flushes before acknowledging, and on
failure undoes the changes newest first against the in-memory tables.

Two thread-local pieces of context support the session/service layer:

* a **deadline** (absolute ``time.monotonic``) threaded into every lock
  acquisition, so a 100 ms call budget bounds lock waits to 100 ms
  instead of the manager's flat default;
* a **statement** (:meth:`TransactionManager.statement`): a lock-table
  identity and a journal for one statement running outside any
  transaction (the QUEL executor's auto-commit path, a bulk batch, an
  entity's create or delete), so a lone statement reads and writes
  under real S/X locks and commits once, as one frame, when it ends.

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

The exactly-once ledger
-----------------------
A transaction may answer one remote request (:attr:`Transaction.request`,
``(client, seq, result)``).  Its commit frame carries it, and the same
hold of the log's append mutex that stamps the versions sets the
client's entry in ``Database.ledger``; a commit that fails puts the
entry back.  So the ledger holds what the log holds, at every LSN a
snapshot or an image can be taken at (:meth:`pin_with_ledger`).  Only
one request of a client may be committing at a time: the network
server's per-client guard sees to that.
"""

import contextlib
import enum
import itertools
import threading

from repro.errors import ReadOnlyError, TransactionError
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
        #: The remote request ``(client, seq, result)`` this transaction
        #: answers, committed with it (module docstring), or None.
        self.request = None

    def record(self, changes):
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                "transaction %d is %s; cannot record changes"
                % (self.txn_id, self.state.value)
            )
        self.changes += changes

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


class _ThreadState(threading.local):
    """A thread's transaction state.  The defaults live on the class
    because every table read and write asks for them: ``getattr`` with a
    default on a thread-local the thread never set raises and catches
    inside, ten times the cost of finding the attribute."""

    snapshot = None
    snapshot_depth = 0
    deadline = None
    txn = None
    # The open statement's lock owner and journal (statement()).
    statement_owner = None
    statement_changes = None


class TransactionManager:
    """Coordinates transactions, the lock manager, and the WAL."""

    def __init__(self, database, log=None):
        self._database = database
        self._log = log
        # Share the database's registry so lock counters land beside the
        # WAL ones.
        metrics = database.metrics
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
        self._pins = 0  # the registry's counts summed
        self._snapshots_gauge = metrics.gauge("mvcc.snapshots_active")
        # Ledger entries set by a commit not yet durable: client ->
        # (commit LSN, the entry it replaced or None).
        self._answering = {}

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
        local = self._local
        depth = local.snapshot_depth
        if depth:
            local.snapshot_depth = depth + 1
            return local.snapshot
        with self._snapshot_mutex:
            snapshot = self.snapshot_lsn() if lsn is None else lsn
            self._active_snapshots[snapshot] = (
                self._active_snapshots.get(snapshot, 0) + 1
            )
            self._pins += 1
            self._snapshots_gauge.set(self._pins)
        local.snapshot = snapshot
        local.snapshot_depth = 1
        return snapshot

    def unpin_snapshot(self):
        """Release this thread's snapshot pin (innermost first)."""
        local = self._local
        depth = local.snapshot_depth
        if not depth:
            raise TransactionError("no snapshot is pinned on this thread")
        if depth > 1:
            local.snapshot_depth = depth - 1
            return
        snapshot = local.snapshot
        local.snapshot = None
        local.snapshot_depth = 0
        with self._snapshot_mutex:
            count = self._active_snapshots.get(snapshot, 0) - 1
            if count > 0:
                self._active_snapshots[snapshot] = count
            else:
                self._active_snapshots.pop(snapshot, None)
            self._pins -= 1
            self._snapshots_gauge.set(self._pins)

    def assert_no_snapshot(self):
        """Refuse mutations on a thread reading through a snapshot."""
        snapshot = self.current_snapshot()
        if snapshot is not None:
            raise ReadOnlyError(
                "this thread holds a read-only snapshot (LSN %d); "
                "mutations are not allowed until it is unpinned" % snapshot
            )

    def pin_with_ledger(self, lsn=None):
        """Pin this thread's snapshot, as :meth:`pin_snapshot` does, and
        return ``(lsn, ledger)``: the pinned LSN and a copy of the
        exactly-once ledger as of it.  Both are read in one hold of the
        mutex commits stamp under, so no commit lands between them."""
        mutex = self._stamp_mutex if self._log is None else self._log._mutex
        with mutex:
            lsn = self.pin_snapshot(lsn)
            ledger = dict(self._database.ledger)
            for client, (at, prior) in list(self._answering.items()):
                if at > lsn:
                    _set_entry(ledger, client, prior)
        return lsn, ledger

    def durable_entry(self, client):
        """*client*'s ledger entry ``(seq, result)`` as of the durable
        LSN, or None.  Read without a lock: the ledger, then the pending
        commits, then the LSN, so an entry not yet durable is never
        returned (the one it replaced is)."""
        entry = self._database.ledger.get(client)
        pending = self._answering.get(client)
        if pending is not None and pending[0] > self.snapshot_lsn():
            entry = pending[1]
        return entry

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
        return self._local.txn

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
        return self._local.deadline

    # -- statements outside a transaction -----------------------------------------

    @contextlib.contextmanager
    def statement(self):
        """Run the block as one statement: outside a transaction, under
        a lock owner of its own whose locks it releases at the end, and
        as one commit -- the changes it journals are published together
        when it ends, or undone, newest first, if it raises.  Inside a
        transaction, or nested in another statement, it joins that."""
        local = self._local
        if local.txn is not None or local.statement_owner is not None:
            yield
            return
        owner = local.statement_owner = self._next_id()
        changes = local.statement_changes = []
        try:
            try:
                yield
            except BaseException as exc:
                if not isinstance(exc, SimulatedCrash):
                    for change in reversed(changes):
                        self._undo_change(*change)
                raise
            finally:
                local.statement_owner = local.statement_changes = None
            if changes:
                self._publish(changes)
        finally:
            self._locks.release_all(owner)

    def _lock_owner(self):
        """The lock-table identity for this thread, or None (unlocked)."""
        txn = self._local.txn
        if txn is not None:
            return txn.txn_id
        return self._local.statement_owner

    # -- commit stamping (MVCC) ------------------------------------------------

    def _stamp(self, changes, lsn):
        """Give *changes*' versions the commit LSN *lsn*."""
        tables = self._database.table
        for action, table_name, new_row, old_row in changes:
            tables(table_name).stamp_change(lsn, action, new_row, old_row)

    def _stamp_local(self, changes, request):
        """Stamp *changes* and answer *request* on an in-memory database
        (no WAL).

        The visible LSN advances only after every version is stamped, so
        a reader pinning the new LSN always sees the whole commit.
        """
        with self._stamp_mutex:
            self._stamp(changes, self._visible_lsn + 1)
            if request is not None:
                self._database.ledger[request[0]] = request[1:]
            self._visible_lsn += 1

    def journal(self, changes):
        """Table mutation hook: *changes* (``(action, table, new_row,
        old_row)`` each, applied in memory) join this thread's
        transaction or statement, or else commit at once."""
        local = self._local
        if local.txn is not None:
            local.txn.record(changes)
        elif local.statement_changes is not None:
            local.statement_changes += changes
        else:
            self._publish(changes)

    def _publish(self, changes, request=None):
        """The one commit path: make *changes*, already applied in
        memory, and the *request* they answer (module docstring), if
        any, durable as one ``COMMIT`` frame -- or undo them and raise.

        The frame is appended, the versions are stamped with its LSN and
        the ledger entry is set in one hold of the log's append mutex: a
        group-commit leader needs the same mutex to fsync, so the stamps
        are published strictly before ``flushed_lsn`` -- hence any
        snapshot -- can reach that LSN, and nothing durable, shipped or
        pinned ever ends between the two.  The commit is acknowledged
        after its flush.

        Any failure means the transaction did not happen: the changes
        are unstamped, the ledger entry is put back, and the changes are
        undone newest-first (no reader can have pinned a snapshot
        covering them -- ``flushed_lsn`` never reached the commit's
        LSN), and an ``OSError`` also degrades the database to
        read-only.  The frame a failed flush leaves behind is cut away
        before writes resume (``exit_degraded``).  Only a
        ``SimulatedCrash`` leaves memory as it is: the process is
        modelled as dead and the crash oracle inspects the state it
        died in.
        """
        log = self._log
        if log is None:
            # In-memory database: stamping *is* the commit point.
            self._stamp_local(changes, request)
            return
        # The schemas of the tables the changes name, not of every
        # table the database holds.
        schemas = {
            table: self._database.table(table).schema
            for table in {change[1] for change in changes}
        }
        stamped = False
        ledger = self._database.ledger
        try:
            self._database.assert_writable()
            with log._mutex:
                lsn = log.append_batch(changes, schemas, request)
                self._stamp(changes, lsn)
                if request is not None:
                    # Pending first: durable_entry reads it second.
                    client = request[0]
                    self._answering[client] = (lsn, ledger.get(client))
                    ledger[client] = request[1:]
                stamped = True
            log.commit_flush(lsn, deadline=self.current_deadline())
            if request is not None:
                del self._answering[client]
        except BaseException as exc:
            if isinstance(exc, SimulatedCrash):
                raise
            if stamped:
                self._stamp(changes, None)
                if request is not None:
                    _set_entry(ledger, client, self._answering.pop(client)[1])
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
            # An empty write set answering no request has nothing to
            # make durable: the commit is the lock release, on a
            # healthy or a degraded database.
            if txn.changes or txn.request is not None:
                self._publish(txn.changes, txn.request)
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


def _set_entry(ledger, client, entry):
    """Make *client*'s entry in *ledger* *entry*; None removes it."""
    if entry is None:
        ledger.pop(client, None)
    else:
        ledger[client] = entry
