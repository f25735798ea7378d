"""Two-phase locking with wait-die deadlock avoidance.

This provides the "concurrency control" service section 2 requires of
the MDM.  Locks are table-granularity shared/exclusive; a requester that
is younger than every conflicting holder is aborted (dies), an older
requester waits -- the classic wait-die policy, which guarantees freedom
from deadlock without a waits-for graph.

Waits are bounded by a deadline: callers may pass an absolute monotonic
*deadline* per acquire (the session layer threads its per-call deadline
through here), falling back to the manager's flat *timeout* otherwise.
The manager also keeps robustness counters (grants, waits, wait-die
aborts, timeouts) surfaced through ``MusicDataManager.statistics()``.
"""

import enum
import threading
import time

from repro.errors import DeadlockError, LockTimeoutError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_span


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) table locks."""

    SHARED = "S"
    EXCLUSIVE = "X"


class LockManager:
    """Table-level S/X lock table keyed by resource name."""

    def __init__(self, timeout=5.0, metrics=None):
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._holders = {}  # resource -> {txn_id: LockMode}
        self.timeout = timeout
        # Counters live in the metrics registry (``lock.*``), so the
        # shell's \metrics and stats() read the same numbers.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Grants are added under the condition the grant already holds,
        # into a cell of the counter's that this manager owns: every
        # locked statement takes one.
        self._grants = self.metrics.counter("lock.grants")
        self._granted = self.metrics.tally(["lock.grants"]).owned_cell(self)
        self._waits = self.metrics.counter("lock.waits")
        self._deadlock_aborts = self.metrics.counter("lock.deadlock_aborts")
        self._timeouts = self.metrics.counter("lock.timeouts")
        self._wait_seconds = self.metrics.histogram("lock.wait_seconds")

    def stats(self):
        """A snapshot of the robustness counters."""
        return {
            "grants": self._grants.value,
            "waits": self._waits.value,
            "deadlock_aborts": self._deadlock_aborts.value,
            "timeouts": self._timeouts.value,
        }

    def locks_held(self, txn_id):
        """Resources currently locked by *txn_id* (mode map)."""
        with self._mutex:
            out = {}
            for resource, holders in self._holders.items():
                if txn_id in holders:
                    out[resource] = holders[txn_id]
            return out

    def acquire(self, txn_id, resource, mode, deadline=None):
        """Grant *mode* on *resource* to *txn_id*, blocking as needed.

        Lock upgrades (S -> X by the sole holder) are honoured.  Raises
        DeadlockError when wait-die dictates the requester must abort.
        *deadline* is an absolute ``time.monotonic`` bound on the wait;
        when None, the manager's flat *timeout* applies from the first
        wait.

        Time spent blocked is observed into the ``lock.wait_seconds``
        histogram and accumulated onto the current trace span's
        ``lock_wait_s`` attribute (whether the wait ends in a grant or
        a timeout), so a slow statement's trace shows where it stalled.
        """
        wait_started = None
        try:
            with self._condition:
                while True:
                    holders = self._holders.setdefault(resource, {})
                    current = holders.get(txn_id)
                    others = {t: m for t, m in holders.items() if t != txn_id}
                    if current is LockMode.EXCLUSIVE or (
                        current is mode is LockMode.SHARED
                    ):
                        return  # already sufficient
                    if mode is LockMode.SHARED:
                        conflict = LockMode.EXCLUSIVE in others.values()
                    else:
                        conflict = bool(others)
                    if not conflict:
                        holders[txn_id] = mode
                        self._granted[0] += 1
                        return
                    # Wait-die: lower txn_id = older = may wait; younger dies.
                    if any(other < txn_id for other in others):
                        self._deadlock_aborts.inc()
                        raise DeadlockError(
                            "transaction %d aborted (wait-die) requesting %s on %r"
                            % (txn_id, mode.value, resource)
                        )
                    # The deadline is absolute: wakeups (notify_all from every
                    # release) must not restart the clock, or a contended
                    # acquire could wait timeout-per-wakeup instead of timeout.
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + self.timeout
                    if wait_started is None:
                        wait_started = now
                        self._waits.inc()
                    remaining = deadline - now
                    if remaining <= 0 or not self._condition.wait(timeout=remaining):
                        self._timeouts.inc()
                        raise LockTimeoutError(
                            "transaction %d timed out waiting for %s on %r"
                            % (txn_id, mode.value, resource)
                        )
        finally:
            if wait_started is not None:
                elapsed = time.monotonic() - wait_started
                self._wait_seconds.observe(elapsed)
                current_span().add("lock_wait_s", elapsed)

    def release_all(self, txn_id):
        """Release every lock held by *txn_id* (the 'shrinking' phase)."""
        with self._condition:
            for resource in list(self._holders):
                self._holders[resource].pop(txn_id, None)
                if not self._holders[resource]:
                    del self._holders[resource]
            self._condition.notify_all()
