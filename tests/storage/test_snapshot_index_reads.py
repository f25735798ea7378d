"""Pinned-snapshot reads answer from the indexes: stale set, re-check,
fall-back, and the pin/prune-horizon ordering the trimming rests on.

The deterministic single-thread half; the randomized half is the
temporal model in tests/props/test_mvcc_props.py, the concurrent half
tests/stress/test_mvcc_interleaving.py.
"""

import threading

from repro.storage.database import Database
from repro.storage.table import SWAMPED, Table


def _make_db(tmp_path=None):
    db = Database(None if tmp_path is None else str(tmp_path))
    t = db.create_table("t", [("k", "string"), ("v", "integer")])
    t.create_index("k")
    t.create_index("v", ordered=True)
    return db, t


def _counting_lookups(index):
    """Wrap *index*'s lookup/range so a test can tell it was probed."""
    calls = []
    for name in ("lookup", "range"):
        original = getattr(index, name, None)
        if original is None:
            continue

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        setattr(index, name, counting)
    return calls


class TestPinnedReadsUseTheIndexes:
    def test_select_eq_probes_the_index_and_rechecks_the_visible_version(self):
        db, t = _make_db()
        a = t.insert({"k": "a", "v": 1})
        b = t.insert({"k": "b", "v": 2})
        holder = _PinHolder(db.transactions)
        try:
            t.update(a.rowid, {"k": "b"})      # index now says: a is a "b"
            t.update(b.rowid, {"k": "c"})      # ... and b is a "c"
            calls = _counting_lookups(t.index_for("k"))
            # At the pin only b was a "b": a comes back from the index
            # probe and fails the re-check, b comes from the stale set.
            holder.run(lambda: _assert_eq(
                t, {"b": [b.rowid], "a": [a.rowid], "c": []}
            ))
        finally:
            holder.release()
        assert calls == ["lookup"] * 3
        assert [r.rowid for r in t.select_eq("k", "b")] == [a.rowid]

    def test_select_range_keeps_the_index_order_of_the_visible_keys(self):
        db, t = _make_db()
        rows = [t.insert({"k": "r%d" % i, "v": v})
                for i, v in enumerate([5, 3, 3, 9, 1])]
        locked = [r.rowid for r in t.select_range("v", 2, 9)]
        assert locked == [rows[1].rowid, rows[2].rowid, rows[0].rowid,
                          rows[3].rowid]
        holder = _PinHolder(db.transactions)
        try:
            t.update(rows[0].rowid, {"v": 100})   # leaves the range
            t.update(rows[4].rowid, {"v": 4})     # enters it
            t.delete(rows[1].rowid)
            calls = _counting_lookups(t.index_for("v", ordered=True))

            def read():
                assert [r.rowid for r in t.select_range("v", 2, 9)] == locked

            holder.run(read)
        finally:
            holder.release()
        assert calls == ["range"]
        assert [r.rowid for r in t.select_range("v", 2, 9)] == [
            rows[2].rowid, rows[4].rowid, rows[3].rowid
        ]

    def test_uncommitted_rewrites_are_invisible_but_indexed(self):
        db, t = _make_db()
        a = t.insert({"k": "a", "v": 1})
        txn = db.begin()
        t.update(a.rowid, {"k": "z"})
        t.insert({"k": "a", "v": 7})
        with db.snapshot():
            assert [r["v"] for r in t.select_eq("k", "a")] == [1]
            assert t.select_eq("k", "z") == []
        txn.abort()
        with db.snapshot():
            assert [r["v"] for r in t.select_eq("k", "a")] == [1]


class TestStaleSet:
    def test_empty_after_commit_and_horizon_advance_without_checkpoint(
        self, tmp_path
    ):
        db, t = _make_db(tmp_path / "d")
        gauge = db.metrics.gauge("mvcc.stale_rowids")
        rows = [t.insert({"k": "k%d" % i, "v": i}) for i in range(20)]
        assert t.stale_rowids() == ()
        with db.begin():
            for row in rows:
                t.update(row.rowid, {"k": "x"})
            # Uncommitted: nothing can be settled yet.
            assert set(t.stale_rowids()) == {row.rowid for row in rows}
            assert gauge.value == 20
        # Committed and nobody pinned below it, so the horizon has moved
        # past the commit; each later write settles two of the oldest
        # entries and queues one ...
        for row in rows:
            t.update(row.rowid, {"v": 0})
        assert len(t.stale_rowids()) <= 2
        # ... and the first pinned read after the last write settles
        # what no later write will.  No checkpoint anywhere.
        with db.snapshot():
            assert len(t.select_eq("k", "x")) == 20
        assert t.stale_rowids() == ()
        assert gauge.value == 0
        assert all(len(chain) == 1 for chain in t._chains.values())

    def test_bounded_under_steady_rewrites_beside_pinning_readers(self):
        db, t = _make_db()
        rows = [t.insert({"k": "k%d" % i, "v": 0}) for i in range(50)]
        high_water = 0
        for step in range(2000):
            t.update(rows[step % 50].rowid, {"k": "g%d" % step, "v": step})
            if step % 10 == 0:     # a reader that pins, reads and unpins
                with db.snapshot():
                    t.select_eq("k", "g%d" % step)
            high_water = max(high_water, len(t.stale_rowids()))
        assert high_water <= 3
        assert max(len(chain) for chain in t._chains.values()) <= 2

    def test_a_held_pin_bounds_it_by_the_rowids_rewritten_since(self):
        db, t = _make_db()
        rows = [t.insert({"k": "k%d" % i, "v": 0}) for i in range(50)]
        holder = _PinHolder(db.transactions)
        try:
            for step in range(500):
                t.update(rows[step % 7].rowid, {"v": step})
            assert len(t.stale_rowids()) == 7
            # A row rewritten in a loop requeues at the back: it cannot
            # park at the front and block the entries behind it.
            assert t.stale_rowids()[-1] == rows[499 % 7].rowid
        finally:
            holder.release()
        t.update(rows[40].rowid, {"v": 1})
        t.prune_versions(db.transactions.prune_horizon())
        assert t.stale_rowids() == ()

    def test_abort_leaves_it_consistent(self):
        db, t = _make_db()
        a = t.insert({"k": "a", "v": 1})
        b = t.insert({"k": "b", "v": 2})
        lsn = db.transactions.snapshot_lsn()
        txn = db.begin()
        t.update(a.rowid, {"k": "z"})
        t.delete(b.rowid)
        t.insert({"k": "c", "v": 3})
        assert set(t.stale_rowids()) == {a.rowid, b.rowid}
        txn.abort()
        # The indexes describe the one version each rowid has again.
        assert t.stale_rowids() == ()
        assert db.metrics.gauge("mvcc.stale_rowids").value == 0
        for pin in (lsn, None):
            db.transactions.pin_snapshot(pin)
            try:
                assert [r.rowid for r in t.select_eq("k", "a")] == [a.rowid]
                assert [r.rowid for r in t.select_eq("k", "b")] == [b.rowid]
                assert t.select_eq("k", "z") == t.select_eq("k", "c") == []
            finally:
                db.transactions.unpin_snapshot()

    def test_delete_then_reinsert_of_a_rowid(self):
        db, t = _make_db()
        a = t.insert({"k": "a", "v": 1})
        holder = _PinHolder(db.transactions)   # keeps "a" alive
        try:
            t.delete(a.rowid)
            t.insert({"k": "b", "v": 2}, rowid=a.rowid)
            assert t.stale_rowids() == (a.rowid,)
            holder.run(lambda: _assert_eq(t, {"a": [a.rowid], "b": []}))
            with db.snapshot():
                _assert_eq(t, {"a": [], "b": [a.rowid]})
        finally:
            holder.release()
        t.prune_versions(db.transactions.prune_horizon())
        assert t.stale_rowids() == ()
        assert len(t._chains[a.rowid]) == 1
        with db.snapshot():
            _assert_eq(t, {"a": [], "b": [a.rowid]})

    def test_redo_installs_leave_it_empty_after_recovery(self, tmp_path):
        db, t = _make_db(tmp_path / "d")
        row = t.insert({"k": "a", "v": 1})
        for value in range(5):
            t.update(row.rowid, {"v": value})
        victim = t.insert({"k": "b", "v": 9})
        t.delete(victim.rowid)
        db.close()
        reopened = Database(str(tmp_path / "d"))
        table = reopened.table("t")
        assert table.stale_rowids() == ()
        assert [len(chain) for chain in table._chains.values()] == [1]
        reopened.close()

    def test_replica_style_installs_queue_and_settle(self):
        """install_committed at a commit LSN: the superseded image stays
        reachable for a reader pinned below it, through the index."""
        db, t = _make_db()
        t.install_committed(0, 1, _row(t, 1, "a", 1))
        db.transactions._visible_lsn = 5
        holder = _PinHolder(db.transactions)           # pinned at 5
        try:
            t.install_committed(9, 1, _row(t, 1, "b", 2))
            db.transactions._visible_lsn = 9
            assert t.stale_rowids() == (1,)
            holder.run(lambda: _assert_eq(t, {"a": [1], "b": []}))
            with db.snapshot():
                _assert_eq(t, {"a": [], "b": [1]})
        finally:
            holder.release()
        with db.snapshot():
            _assert_eq(t, {"a": [], "b": [1]})
        assert t.stale_rowids() == ()


class TestFallback:
    def test_a_swamped_stale_set_scans_and_then_comes_back(self):
        db, t = _make_db()
        rows = [t.insert({"k": "k%d" % (i % 10), "v": i}) for i in range(600)]
        assert t.candidate_cap() == 512
        expected = [r.rowid for r in rows if r["k"] == "k3"]
        txn = db.begin()
        for row in rows:
            t.update(row.rowid, {"k": "moved", "v": -1})
        with db.snapshot():
            assert t.probe(lambda: None) == (None, SWAMPED)
            calls = _counting_lookups(t.index_for("k"))
            assert [r.rowid for r in t.select_eq("k", "k3")] == expected
            assert t.select_eq("k", "moved") == []
            assert [r.rowid for r in t.select_range("v", 10, 12)] == [
                rows[10].rowid, rows[11].rowid, rows[12].rowid
            ]
        txn.commit()
        t.prune_versions(db.transactions.prune_horizon())
        assert t.stale_rowids() == ()
        with db.snapshot():
            assert t.probe(lambda: None) == (None, ())
            assert len(t.select_eq("k", "moved")) == 600
            assert t.select_eq("k", "k3") == []

    def test_the_cap_is_an_estimate_that_visits_no_row(self, monkeypatch):
        db, t = _make_db()
        for i in range(2000):
            t.insert({"k": "k", "v": i})
        visits = []
        visible_row = Table._visible_row

        def counting(chain, snapshot):
            visits.append(chain)
            return visible_row(chain, snapshot)

        monkeypatch.setattr(Table, "_visible_row", staticmethod(counting))
        with db.snapshot():
            assert t.candidate_cap() == 1000
            assert visits == []
            assert len(t) == 2000   # exact, and it does walk the chains
            assert len(visits) == 2000


class TestLatchDiscipline:
    def test_a_probe_waits_out_an_update_caught_between_its_index_writes(self):
        """Between ``index.delete(old key)`` and ``index.insert(new
        key)`` -- and before the stale mark -- the row is under neither
        key: a pinned probe let in there would lose it."""
        db, t = _make_db()
        row = t.insert({"k": "a", "v": 1})
        index = t.index_for("k")
        mid_update, resume = threading.Event(), threading.Event()
        real_delete = index.delete

        def parked_delete(value, rowid):
            real_delete(value, rowid)
            mid_update.set()
            assert resume.wait(10)

        index.delete = parked_delete
        writer = threading.Thread(
            target=t.update, args=(row.rowid, {"k": "b"})
        )
        seen = []
        reader = _PinHolder(db.transactions)
        reading = threading.Thread(target=reader.run, args=(
            lambda: seen.append([r["k"] for r in t.select_eq("k", "a")]),
        ))
        try:
            writer.start()
            assert mid_update.wait(10)
            reading.start()
            reading.join(timeout=0.3)
            assert reading.is_alive() and not seen   # parked on the latch
        finally:
            resume.set()
            writer.join(timeout=10)
            reading.join(timeout=10)
            reader.release()
        assert not writer.is_alive() and not reading.is_alive()
        assert seen == [["a"]]    # the version it was pinned on, via stale

    def test_held_for_the_probe_only_and_never_when_locked(self):
        db, t = _make_db()
        row = t.insert({"k": "a", "v": 1})
        held = []

        def lookup():
            held.append(("probe", t._latch._is_owned()))
            return [row.rowid]

        def verify(visible):
            held.append(("verify", t._latch._is_owned()))
            return True

        with db.snapshot():
            assert t.fetch(*t.probe(lookup), verify) == [row]
        assert t.fetch(*t.probe(lookup), verify) == [row]
        assert held == [("probe", True), ("verify", False), ("probe", False)]

    def test_writers_release_it_before_they_journal(self):
        from repro.storage.table import Column, Table, TableSchema

        held = []
        t = Table(
            TableSchema("bare", [Column("k", "string")]),
            journal=lambda *change: held.append(t._latch._is_owned()),
            journal_batch=lambda *batch: held.append(t._latch._is_owned()),
        )
        row = t.insert({"k": "a"})
        t.update(row.rowid, {"k": "b"})
        t.delete(row.rowid)
        t.insert_many([{"k": "c"}, {"k": "d"}])
        assert held == [False] * 4
        assert t.stale_rowids() == ()    # a bare table settles at once


class TestPinOrdering:
    def test_a_snapshot_cannot_be_pinned_below_the_prune_horizon(self):
        """pin_snapshot used to read the LSN *before* registering it; a
        commit plus a prune landing in between reclaimed the version the
        new reader needed.  The hook opens that window: at the first
        LSN read it lets another client commit an update and prune.
        With the read inside the registry mutex that client's horizon
        look-up waits for the registration, and the old image survives.
        """
        db, t = _make_db()
        row = t.insert({"k": "a", "v": 1})
        transactions = db.transactions
        real = transactions.snapshot_lsn
        intruders = []

        def intrude():
            t.update(row.rowid, {"v": 2})
            t.prune_versions(transactions.prune_horizon())

        def hooked():
            lsn = real()
            if not intruders:
                intruders.append(threading.Thread(target=intrude))
                intruders[0].start()
                intruders[0].join(timeout=0.3)
            return lsn

        transactions.snapshot_lsn = hooked
        try:
            pinned = transactions.pin_snapshot()
        finally:
            del transactions.snapshot_lsn
        try:
            intruders[0].join(timeout=10)
            assert not intruders[0].is_alive()
            assert pinned == 1
            assert [(r["k"], r["v"]) for r in t] == [("a", 1)]
            assert [r["v"] for r in t.select_eq("k", "a")] == [1]
        finally:
            transactions.unpin_snapshot()
        with db.snapshot():
            assert [r["v"] for r in t.select_eq("k", "a")] == [2]


# -- helpers -------------------------------------------------------------------


def _row(table, rowid, k, v):
    from repro.storage.row import Row

    return Row(rowid, table.schema.coerce({"k": k, "v": v}))


def _assert_eq(table, expected):
    for key, rowids in expected.items():
        assert [r.rowid for r in table.select_eq("k", key)] == rowids, key


class _PinHolder:
    """Pins a snapshot on a thread of its own (pins are thread-local and
    refuse mutations on the pinning thread) and runs reads under it."""

    def __init__(self, transactions):
        self._transactions = transactions
        self._jobs = []
        self._wake = threading.Condition()
        self._done = False
        self.error = None
        ready = threading.Event()
        self._thread = threading.Thread(target=self._loop, args=(ready,))
        self._thread.start()
        assert ready.wait(10)

    def _loop(self, ready):
        self._transactions.pin_snapshot()
        ready.set()
        try:
            with self._wake:
                while not self._done:
                    while self._jobs:
                        job, finished = self._jobs.pop(0)
                        try:
                            job()
                        except BaseException as error:  # re-raised by run()
                            self.error = error
                        finished.set()
                    self._wake.wait(0.05)
        finally:
            self._transactions.unpin_snapshot()

    def run(self, job):
        finished = threading.Event()
        with self._wake:
            self._jobs.append((job, finished))
            self._wake.notify()
        assert finished.wait(10)
        if self.error is not None:
            error, self.error = self.error, None
            raise error

    def release(self):
        with self._wake:
            self._done = True
            self._wake.notify()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
