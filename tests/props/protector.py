"""The thread that keeps a temporal battery's oldest snapshot readable.

The engine prunes dead versions up to the horizon on every rewrite, and
the horizon is bounded only by *pinned* snapshots -- an unpinned LSN
older than the horizon is void, by contract.  A battery that replays
recorded LSNs therefore keeps one of these pinned at the oldest LSN it
still replays.
"""

import queue
import threading


class Protector:
    """Holds ``pin_snapshot(floor)`` on a dedicated thread.

    Snapshot pins are thread-local, so the main thread — which must
    stay free to mutate and to pin each replayed LSN in turn — cannot
    itself keep the horizon back.  This thread pins the current floor
    and re-pins on demand; commands are acknowledged synchronously so
    the main thread never races its own protection.
    """

    def __init__(self, transactions):
        self._transactions = transactions
        self._commands = queue.Queue()
        self._acks = queue.Queue()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        self.floor = None

    def _loop(self):
        pinned = False
        while True:
            lsn = self._commands.get()
            if pinned:
                self._transactions.unpin_snapshot()
                pinned = False
            if lsn is None:
                self._acks.put(None)
                return
            self._transactions.pin_snapshot(lsn)
            pinned = True
            self._acks.put(lsn)

    def set_floor(self, lsn):
        self._commands.put(lsn)
        assert self._acks.get(timeout=10) == lsn
        self.floor = lsn

    def stop(self):
        self._commands.put(None)
        self._acks.get(timeout=10)
        self._thread.join(timeout=10)
