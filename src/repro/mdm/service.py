"""The MDM session/service layer: surviving concurrent multi-client use.

Section 2 makes the MDM the *shared* back end for many simultaneous
clients, with concurrency control and recovery as standard services.
The storage layer provides wait-die locking, but a wait-die abort is a
*retryable* event — something has to catch it, back off, and re-run the
transaction.  This module is that something:

* :class:`MdmSession` — a per-client handle whose :meth:`MdmSession.run`
  executes a transaction closure with automatic retry of wait-die
  aborts and lock timeouts under seeded, jittered exponential backoff,
  raising :class:`RetryExhaustedError` once the attempt budget or the
  call deadline is spent.  The deadline is propagated: it bounds lock
  waits (via the transaction manager's thread-local deadline) and query
  execution (via the QUEL executor's :class:`ExecutionLimits`).
* :class:`AdmissionGate` — a bounded concurrent-transaction gate that
  queues briefly and then sheds load with :class:`OverloadError` rather
  than piling threads onto the lock table.
* :class:`ServiceMetrics` — thread-safe robustness counters surfaced
  through ``MusicDataManager.statistics()`` and the shell's ``\\health``
  command.

Closures passed to :meth:`MdmSession.run` must be *re-runnable*: each
retry re-executes the closure against the rolled-back state, so any
committed effect happens exactly once.  The stress oracle under
``tests/stress/`` asserts precisely this.
"""

import random
import threading
import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_span, span
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    MDMError,
    OverloadError,
    QueryTimeoutError,
    ResourceLimitError,
    RetryExhaustedError,
    ShutdownError,
)


class ServiceMetrics:
    """Thread-safe robustness counters for one MusicDataManager.

    Backed by a :class:`~repro.obs.metrics.MetricsRegistry` (counter
    names ``service.<name>``) so the shell's ``\\metrics`` command and
    the bench report see the same numbers as ``statistics()``; the
    ``incr``/``snapshot`` API and its short key names are unchanged.
    """

    _NAMES = (
        "admitted", "commits", "retries", "retry_exhausted",
        "overload_shed", "query_timeouts", "resource_limited",
        "snapshot_reads",
    )

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._mutex = threading.Lock()
        self._counters = {
            name: self.registry.counter("service." + name)
            for name in self._NAMES
        }

    def incr(self, name, amount=1):
        counter = self._counters.get(name)
        if counter is None:
            with self._mutex:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self.registry.counter("service." + name)
                    self._counters[name] = counter
        counter.inc(amount)

    def snapshot(self):
        return {name: counter.value for name, counter in self._counters.items()}


class RemoteSessions:
    """In-flight remote-request accounting for one MusicDataManager.

    The network server brackets every remote request in
    :meth:`track`, so :meth:`MusicDataManager.close` can *drain*:
    refuse new remote work with :class:`ShutdownError` while waiting a
    bounded time for requests already past the door to finish, instead
    of yanking the WAL out from under a mid-commit transaction.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._cond = threading.Condition(threading.Lock())
        self._active = 0
        self.draining = False

    @property
    def active(self):
        with self._cond:
            return self._active

    def enter(self, label="remote request"):
        with self._cond:
            if self.draining:
                raise ShutdownError(
                    "%s refused: the data manager is shutting down" % label
                )
            self._active += 1

    def exit(self):
        with self._cond:
            self._active -= 1
            if self._active <= 0:
                self._cond.notify_all()

    def track(self, label="remote request"):
        """Context manager: ``enter`` on entry, ``exit`` on the way out."""
        return _RemoteWork(self, label)

    def begin_drain(self):
        with self._cond:
            self.draining = True

    def drain(self, timeout):
        """Refuse new work, then wait up to *timeout* for the rest.

        Returns True when every in-flight request finished; False when
        the timeout expired with requests still running (close proceeds
        anyway — their next storage touch fails like any I/O error, and
        the WAL's committed prefix stays exactly-once durable).
        """
        deadline = self._clock() + max(0.0, timeout)
        with self._cond:
            self.draining = True
            while self._active > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True


class _RemoteWork:
    def __init__(self, sessions, label):
        self._sessions = sessions
        self._label = label

    def __enter__(self):
        self._sessions.enter(self._label)
        return self

    def __exit__(self, *exc_info):
        self._sessions.exit()
        return False


class AdmissionGate:
    """Bounded admission for concurrent transactions.

    At most *limit* transactions run at once; an arrival beyond that
    queues for up to *queue_timeout* seconds (bounded further by the
    caller's deadline), then is shed with :class:`OverloadError`.
    Shedding at the door keeps the lock table's wait-die churn bounded
    under overload instead of letting every thread pile on and abort
    each other.
    """

    def __init__(self, limit=8, queue_timeout=0.1, metrics=None,
                 clock=time.monotonic):
        if limit < 1:
            raise ValueError("admission limit must be >= 1")
        self.limit = limit
        self.queue_timeout = queue_timeout
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._clock = clock
        self._semaphore = threading.BoundedSemaphore(limit)
        self._active_mutex = threading.Lock()
        self._active = 0

    @property
    def active(self):
        with self._active_mutex:
            return self._active

    def acquire(self, deadline=None):
        wait = self.queue_timeout
        if deadline is not None:
            wait = min(wait, max(0.0, deadline - self._clock()))
        if not self._semaphore.acquire(timeout=wait):
            self._metrics.incr("overload_shed")
            raise OverloadError(
                "admission gate full (%d active); request shed after %.3fs"
                % (self.limit, wait)
            )
        with self._active_mutex:
            self._active += 1
        self._metrics.incr("admitted")

    def release(self):
        with self._active_mutex:
            self._active -= 1
        self._semaphore.release()


class MdmSession:
    """A client's service-layer handle on one MusicDataManager.

    Parameters
    ----------
    mdm:
        The shared :class:`~repro.mdm.manager.MusicDataManager`.
    name:
        Diagnostic label (shows up in error messages).
    quel:
        The :class:`~repro.quel.executor.QuelSession` this session's
        statements run through and whose limits :meth:`run` sets.
        Defaults to the manager's own (``mdm.session``), which
        in-process callers share, declared ranges included; the network
        server passes a fresh one per connection so that remote clients
        share none.
    seed:
        Seeds the backoff-jitter RNG, so a stress schedule replays
        deterministically.
    max_attempts:
        Retry budget for wait-die aborts / lock timeouts per call.
    backoff_base / backoff_cap:
        Exponential backoff parameters (seconds): attempt *n* sleeps
        ``min(cap, base * 2**(n-1))`` scaled by jitter in [0.5, 1.5).
    default_timeout:
        Per-call deadline when :meth:`run` is not given one (None
        disables the deadline entirely).
    row_budget:
        Default QUEL candidate-row budget per call (None = unbounded).
    clock / sleep:
        Injectable for deterministic tests.
    """

    def __init__(self, mdm, name="session", quel=None, seed=0, max_attempts=6,
                 backoff_base=0.005, backoff_cap=0.25, default_timeout=5.0,
                 row_budget=None, clock=time.monotonic, sleep=time.sleep):
        self.mdm = mdm
        self.name = name
        self.quel = quel if quel is not None else mdm.session
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.default_timeout = default_timeout
        self.row_budget = row_budget
        self._rng = random.Random(seed)
        self._clock = clock
        self._sleep = sleep

    # -- the entry point -------------------------------------------------------

    def run(self, fn, timeout=None, row_budget=None, read_only=False):
        """Run ``fn(mdm)`` as one transaction, retrying transient aborts.

        The closure executes inside a fresh transaction; on wait-die
        abort (:class:`DeadlockError`) or lock timeout it is rolled back
        and retried under jittered exponential backoff until it commits,
        the attempt budget is spent, or the deadline passes — then
        :class:`RetryExhaustedError` carries the last underlying error.
        Other exceptions abort the transaction and propagate unchanged.

        *timeout* (seconds, default :attr:`default_timeout`) becomes an
        absolute deadline bounding admission queueing, every lock wait,
        and QUEL execution for this call.

        With *read_only* the closure runs against a pinned MVCC snapshot
        instead: no transaction, no admission gate, no locks, no
        retries.  Every table read inside ``fn`` sees one consistent
        commit LSN regardless of concurrent writers; any attempt to
        mutate raises :class:`ReadOnlyError`.  Since nothing can shed,
        deadlock, or time out on a lock, the only deadline consumers
        are QUEL's execution limits.
        """
        if read_only:
            return self._run_read_only(fn, timeout, row_budget)
        window = self.default_timeout if timeout is None else timeout
        deadline = None if window is None else self._clock() + window
        budget = self.row_budget if row_budget is None else row_budget
        run_span = span("mdm.run", session=self.name)
        try:
            try:
                self.mdm.admission.acquire(deadline)
            except OverloadError:
                run_span.record("shed", True)
                raise
            try:
                return self._run_with_retries(fn, deadline, budget)
            finally:
                self.mdm.admission.release()
        finally:
            run_span.finish()

    def _run_read_only(self, fn, timeout, row_budget):
        """The lock-free snapshot path behind ``run(read_only=True)``."""
        window = self.default_timeout if timeout is None else timeout
        deadline = None if window is None else self._clock() + window
        budget = self.row_budget if row_budget is None else row_budget
        transactions = self.mdm.database.transactions
        quel = self.quel
        run_span = span("mdm.run", session=self.name, read_only=True)
        try:
            transactions.set_deadline(deadline)
            quel.set_limits(deadline=deadline, row_budget=budget)
            snapshot = transactions.pin_snapshot()
            run_span.record("snapshot_lsn", snapshot)
            try:
                result = fn(self.mdm)
            finally:
                transactions.unpin_snapshot()
            self.mdm.metrics.incr("snapshot_reads")
            return result
        finally:
            transactions.clear_deadline()
            quel.clear_limits()
            run_span.finish()

    def bulk_ingest(self, table_name, rows, timeout=None, batch_rows=1000):
        """Bulk-load *rows* into *table_name* through the service layer.

        Admission-gated and deadline-bounded like :meth:`run`, but NOT
        retried: batches commit as they complete, so blindly re-running
        a half-finished load would double-apply the committed prefix.
        A wait-die abort or deadline expiry mid-load surfaces to the
        caller, who knows how many rows landed (the committed prefix
        is durable and whole batches long).  The deadline also bounds
        each batch's group-commit flush wait via the transaction
        manager's thread-local deadline.
        """
        window = self.default_timeout if timeout is None else timeout
        deadline = None if window is None else self._clock() + window
        transactions = self.mdm.database.transactions
        ingest_span = span("mdm.bulk_ingest", session=self.name,
                           table=table_name)
        try:
            self.mdm.admission.acquire(deadline)
            try:
                transactions.set_deadline(deadline)
                out = self.mdm.bulk_ingest(
                    table_name, rows, batch_rows=batch_rows
                )
                self.mdm.metrics.incr("bulk_rows", len(out))
                ingest_span.record("rows", len(out))
                return out
            finally:
                transactions.clear_deadline()
                self.mdm.admission.release()
        finally:
            ingest_span.finish()

    # -- internals -------------------------------------------------------------

    def _run_with_retries(self, fn, deadline, row_budget):
        metrics = self.mdm.metrics
        transactions = self.mdm.database.transactions
        quel = self.quel
        last_error = None
        for attempt in range(1, self.max_attempts + 1):
            transactions.set_deadline(deadline)
            quel.set_limits(deadline=deadline, row_budget=row_budget)
            txn = None
            try:
                txn = self.mdm.begin()
                result = fn(self.mdm)
                txn.commit()
                metrics.incr("commits")
                current_span().record("attempts", attempt)
                return result
            except (DeadlockError, LockTimeoutError) as error:
                self._abort_quietly(txn)
                last_error = error
                remaining = (
                    None if deadline is None else deadline - self._clock()
                )
                out_of_time = remaining is not None and remaining <= 0
                if attempt >= self.max_attempts or out_of_time:
                    metrics.incr("retry_exhausted")
                    current_span().record("attempts", attempt).record(
                        "exhausted", True
                    )
                    raise RetryExhaustedError(
                        "session %r gave up after %d attempt%s (%s): %s"
                        % (
                            self.name, attempt, "" if attempt == 1 else "s",
                            "deadline exceeded" if out_of_time
                            else "retry budget spent",
                            error,
                        ),
                        attempts=attempt,
                        last_error=error,
                    ) from error
                metrics.incr("retries")
                delay = self._backoff_delay(attempt, remaining)
                current_span().add("backoff_s", delay)
                self._sleep(delay)
            except QueryTimeoutError:
                self._abort_quietly(txn)
                metrics.incr("query_timeouts")
                current_span().record("error", "QueryTimeoutError")
                raise
            except ResourceLimitError:
                self._abort_quietly(txn)
                metrics.incr("resource_limited")
                current_span().record("error", "ResourceLimitError")
                raise
            except BaseException:
                self._abort_quietly(txn)
                raise
            finally:
                transactions.clear_deadline()
                quel.clear_limits()
        raise AssertionError("unreachable: retry loop must return or raise")

    def _backoff_delay(self, attempt, remaining):
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random()
        if remaining is not None:
            delay = min(delay, max(0.0, remaining))
        return delay

    def _abort_quietly(self, txn):
        """Abort *txn* without masking the in-flight exception.

        An abort undoes in memory and touches no file, so a dead disk
        cannot fail it; should the undo itself raise, that must not
        replace the error being handled, and the lock table is cleaned
        up regardless so no other session starves.
        """
        from repro.storage.transaction import TransactionState

        if txn is None or txn.state is not TransactionState.ACTIVE:
            return  # begin() itself failed, or already rolled back
        try:
            txn.abort()
        except (MDMError, OSError):
            self.mdm.database.transactions.abandon(txn)
