"""MVCC snapshot visibility: version chains, stamping, pruning, undo.

The deterministic single-thread half of the snapshot-isolation battery;
the concurrent half lives in tests/stress/test_mvcc_interleaving.py and
the randomized half in tests/props/test_mvcc_props.py.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ReadOnlyError, StorageError, TransactionError
from repro.storage.database import Database
from tests.props.protector import Protector


def _make_db(tmp_path=None):
    db = Database(None if tmp_path is None else str(tmp_path))
    db.create_table("t", [("k", "string"), ("v", "integer")])
    return db


def _visible(db):
    """{k: v} for every row visible to the caller right now."""
    return {row["k"]: row["v"] for row in db.table("t")}


@pytest.mark.parametrize("durable", [False, True])
def test_snapshot_is_frozen_at_pin_time(tmp_path, durable):
    db = _make_db(tmp_path / "d" if durable else None)
    t = db.table("t")
    t.insert({"k": "a", "v": 1})
    with db.snapshot():
        assert _visible(db) == {"a": 1}
    t.insert({"k": "b", "v": 2})
    db.transactions.pin_snapshot()
    try:
        assert _visible(db) == {"a": 1, "b": 2}
    finally:
        db.transactions.unpin_snapshot()


@pytest.mark.parametrize("durable", [False, True])
def test_pinned_reader_keeps_old_state_across_commits(tmp_path, durable):
    db = _make_db(tmp_path / "d" if durable else None)
    t = db.table("t")
    row = t.insert({"k": "a", "v": 1})
    db.transactions.pin_snapshot()
    # Mutate from "another client": the pin belongs to this thread, so
    # mutations must be refused here; unpin, mutate, re-pin instead for
    # the update -- the dedicated refusal test covers the guard.
    db.transactions.unpin_snapshot()
    with db.snapshot() as snap:
        old = _visible(db)
        assert old == {"a": 1}
    # That client's reader stays pinned at snap.lsn across the writes:
    # an LSN no pin holds is void once the writes settle past it.
    protector = Protector(db.transactions)
    protector.set_floor(snap.lsn)
    try:
        t.update(row.rowid, {"v": 2})
        t.insert({"k": "b", "v": 3})
        # Old snapshot LSN still resolves the old state explicitly.
        db.transactions.pin_snapshot(snap.lsn)
        try:
            assert _visible(db) == {"a": 1}
        finally:
            db.transactions.unpin_snapshot()
    finally:
        protector.stop()
    with db.snapshot():
        assert _visible(db) == {"a": 2, "b": 3}


def test_uncommitted_transaction_invisible_to_snapshot():
    db = _make_db()
    t = db.table("t")
    t.insert({"k": "a", "v": 1})
    lsn = db.transactions.snapshot_lsn()
    txn = db.begin()
    t.insert({"k": "b", "v": 2})
    t.update(t.select_eq("k", "a")[0].rowid, {"v": 10})
    # Mid-transaction: a snapshot (from the writer's own thread the pin
    # is disallowed, so read via the explicit old LSN) sees pre-txn
    # state.  commit() then makes the whole change visible atomically.
    db.transactions.pin_snapshot(lsn)
    try:
        assert _visible(db) == {"a": 1}
    finally:
        db.transactions.unpin_snapshot()
    txn.commit()
    db.transactions.pin_snapshot(lsn)
    try:
        assert _visible(db) == {"a": 1}
    finally:
        db.transactions.unpin_snapshot()
    with db.snapshot():
        assert _visible(db) == {"a": 10, "b": 2}


def test_aborted_transaction_never_visible():
    db = _make_db()
    t = db.table("t")
    keep = t.insert({"k": "keep", "v": 1})
    txn = db.begin()
    t.insert({"k": "tmp", "v": 2})
    t.update(keep.rowid, {"v": 99})
    t.delete(keep.rowid)
    txn.abort()
    with db.snapshot():
        assert _visible(db) == {"keep": 1}
    # The live table agrees.
    assert {row["k"]: row["v"] for row in t} == {"keep": 1}


def test_delete_stays_visible_to_old_snapshot():
    db = _make_db()
    t = db.table("t")
    row = t.insert({"k": "a", "v": 1})
    lsn = db.transactions.snapshot_lsn()
    t.delete(row.rowid)
    db.transactions.pin_snapshot(lsn)
    try:
        assert _visible(db) == {"a": 1}
        assert t.get(row.rowid)["v"] == 1
        assert t.rowids() == [row.rowid]
        assert len(t) == 1
    finally:
        db.transactions.unpin_snapshot()
    with db.snapshot():
        assert _visible(db) == {}
        assert t.get(row.rowid) is None
        assert len(t) == 0


def test_insert_update_delete_same_transaction_leaves_no_ghost():
    db = _make_db()
    t = db.table("t")
    lsn = db.transactions.snapshot_lsn()
    txn = db.begin()
    row = t.insert({"k": "x", "v": 1})
    row = t.update(row.rowid, {"v": 2})
    t.delete(row.rowid)
    txn.commit()
    # No snapshot -- before, at, or after the commit -- ever sees "x".
    for pin in (lsn, db.transactions.snapshot_lsn()):
        db.transactions.pin_snapshot(pin)
        try:
            assert _visible(db) == {}
        finally:
            db.transactions.unpin_snapshot()


def test_snapshot_reads_bypass_indexes():
    db = _make_db()
    t = db.table("t")
    t.create_index("k")
    row = t.insert({"k": "a", "v": 1})
    lsn = db.transactions.snapshot_lsn()
    t.update(row.rowid, {"v": 5})
    db.transactions.pin_snapshot(lsn)
    try:
        # The live indexes know v=5; the snapshot answers v=1 anyway.
        assert [r["v"] for r in t.select_eq("k", "a")] == [1]
        assert [r["v"] for r in t.select_range("v", 0, 3)] == [1]
        assert [r["v"] for r in t.sorted_by("v")] == [1]
    finally:
        db.transactions.unpin_snapshot()


def test_mutations_refused_while_snapshot_pinned():
    db = _make_db()
    t = db.table("t")
    row = t.insert({"k": "a", "v": 1})
    db.transactions.pin_snapshot()
    try:
        with pytest.raises(ReadOnlyError):
            t.insert({"k": "b", "v": 2})
        with pytest.raises(ReadOnlyError):
            t.update(row.rowid, {"v": 3})
        with pytest.raises(ReadOnlyError):
            t.delete(row.rowid)
        with pytest.raises(ReadOnlyError):
            db.write_table("t")
    finally:
        db.transactions.unpin_snapshot()
    # Unpinned: writable again, and the refusals left no trace.
    assert _visible(db) == {"a": 1}
    t.update(row.rowid, {"v": 3})
    assert _visible(db) == {"a": 3}


def test_nested_pins_share_the_outer_snapshot():
    db = _make_db()
    t = db.table("t")
    t.insert({"k": "a", "v": 1})
    transactions = db.transactions
    outer = transactions.pin_snapshot()
    assert transactions.pin_snapshot() == outer  # nested
    transactions.unpin_snapshot()
    assert transactions.current_snapshot() == outer  # still pinned
    transactions.unpin_snapshot()
    assert transactions.current_snapshot() is None
    with pytest.raises(TransactionError):
        transactions.unpin_snapshot()


def test_snapshots_active_gauge_tracks_pins():
    db = _make_db()
    gauge = db.metrics.gauge("mvcc.snapshots_active")
    assert gauge.value == 0
    db.transactions.pin_snapshot()
    assert gauge.value == 1
    db.transactions.pin_snapshot()  # nested: same snapshot, no re-count
    assert gauge.value == 1
    db.transactions.unpin_snapshot()
    db.transactions.unpin_snapshot()
    assert gauge.value == 0


def test_checkpoint_prunes_dead_versions(tmp_path):
    db = _make_db(tmp_path / "d")
    t = db.table("t")
    row = t.insert({"k": "a", "v": 0})
    for value in range(1, 6):
        row = t.update(row.rowid, {"v": value})
    victim = t.insert({"k": "b", "v": 9})
    t.delete(victim.rowid)
    pruned_before = db.metrics.counter("mvcc.versions_pruned").value
    db.checkpoint()
    assert db.metrics.counter("mvcc.versions_pruned").value > pruned_before
    # Only the live version of "a" remains reachable; state is intact.
    with db.snapshot():
        assert _visible(db) == {"a": 5}
    assert row.rowid not in t._chains
    assert victim.rowid not in t._chains


def test_active_snapshot_blocks_pruning_of_its_versions(tmp_path):
    db = _make_db(tmp_path / "d")
    t = db.table("t")
    row = t.insert({"k": "a", "v": 0})
    lsn = db.transactions.snapshot_lsn()
    t.update(row.rowid, {"v": 1})
    db.transactions.pin_snapshot(lsn)
    try:
        horizon = db.transactions.prune_horizon()
        assert horizon <= lsn
        for table in db._tables.values():
            table.prune_versions(horizon)
        # The pinned snapshot still reads the old version.
        assert _visible(db) == {"a": 0}
    finally:
        db.transactions.unpin_snapshot()
    # Unpinned, the old version is now reclaimable.
    t.prune_versions(db.transactions.prune_horizon())
    assert row.rowid not in t._chains
    with db.snapshot():
        assert _visible(db) == {"a": 1}


def test_recovery_exposes_committed_versions_to_snapshots(tmp_path):
    path = str(tmp_path / "d")
    db = Database(path)
    db.create_table("t", [("k", "string"), ("v", "integer")])
    t = db.table("t")
    a = t.insert({"k": "a", "v": 1})
    t.update(a.rowid, {"v": 2})
    txn = db.begin()
    t.insert({"k": "lost", "v": 0})
    # Crash with the transaction unfinished: close without commit.
    db.transactions.abandon(txn)
    db.close()

    db2 = Database(path)
    with db2.snapshot():
        assert _visible(db2) == {"a": 2}
    # A recovered row is its rowid's one version, from LSN 0: no chain,
    # and a pin below every commit reads it.
    assert not db2.table("t")._chains
    db2.transactions.pin_snapshot(0)
    try:
        assert _visible(db2) == {"a": 2}
    finally:
        db2.transactions.unpin_snapshot()
    db2.close()


def test_snapshot_lsn_follows_wal_flush(tmp_path):
    db = _make_db(tmp_path / "d")
    t = db.table("t")
    before = db.transactions.snapshot_lsn()
    t.insert({"k": "a", "v": 1})
    after = db.transactions.snapshot_lsn()
    assert after > before
    assert after == db._log.flushed_lsn


def test_commit_stamp_failure_rolls_back_versions(tmp_path):
    from repro.storage.faults import FaultPlan

    def workload(db):
        t = db.table("t")
        t.insert({"k": "a", "v": 1})
        txn = db.begin()
        t.insert({"k": "b", "v": 2})
        return txn

    # Probe run: how many fsyncs happen before the commit's flush?
    probe = FaultPlan(seed=7)
    db = Database(str(tmp_path / "probe"), opener=probe.opener)
    db.create_table("t", [("k", "string"), ("v", "integer")])
    txn = workload(db)
    before_commit = probe.sync_count
    txn.commit()
    db.close()

    # Real run: the commit's fsync dies *after* the COMMIT append (and
    # its version stamps) landed; the undo must unstamp.
    plan = FaultPlan(seed=7, io_error_at_sync=before_commit + 1)
    db = Database(str(tmp_path / "d"), opener=plan.opener)
    db.create_table("t", [("k", "string"), ("v", "integer")])
    txn = workload(db)
    lsn = db.transactions.snapshot_lsn()
    with pytest.raises(OSError):
        txn.commit()
    assert db.degraded
    # The stamped-then-unstamped insert is invisible at every LSN.
    for pin in (lsn, db.transactions.snapshot_lsn()):
        db.transactions.pin_snapshot(pin)
        try:
            assert _visible(db) == {"a": 1}
        finally:
            db.transactions.unpin_snapshot()


def test_chains_are_pruned_to_the_horizon():
    """The one pruning rule: a version goes once it ends at or below the
    prune horizon.  Unpinned, each rewrite prunes its own chain; a
    deleted row's chain goes at the next sweep; a snapshot pinned on
    another thread holds the horizon down and keeps what it reads."""
    db = _make_db()
    t = db.table("t")
    transactions = db.transactions
    row = t.insert({"k": "a", "v": 0})
    for value in range(1, 51):
        row = t.update(row.rowid, {"v": value})
    assert len(t._chains[row.rowid]) <= 2
    t.delete(row.rowid)
    t.prune_versions(transactions.prune_horizon())
    assert row.rowid not in t._chains

    kept = t.insert({"k": "b", "v": 1})
    pinned, release, seen = threading.Event(), threading.Event(), []

    def reader():
        transactions.pin_snapshot()
        try:
            pinned.set()
            release.wait(10)
            seen.append(t.get(kept.rowid)["v"])
        finally:
            transactions.unpin_snapshot()

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        assert pinned.wait(10)
        for value in range(2, 12):
            t.update(kept.rowid, {"v": value})
        t.prune_versions(transactions.prune_horizon())
        assert [v.row["v"] for v in t._chains[kept.rowid]][:1] == [1]
    finally:
        release.set()
        thread.join(10)
    assert seen == [1]
    t.prune_versions(transactions.prune_horizon())
    assert kept.rowid not in t._chains and t.stale_rowids() == ()


def test_an_insert_keeps_its_chain_while_a_pin_below_it_may_read():
    """A rowid is chainless only once no snapshot that may be pinned can
    read anything but its row: later writes and pinned probes settle the
    entries around an insert, never the insert itself, while a pin taken
    before it holds the horizon down."""
    db = _make_db()
    t = db.table("t")
    t.create_index("k")
    t.insert({"k": "old", "v": 0})
    lsn = db.transactions.snapshot_lsn()
    protector = Protector(db.transactions)   # a reader pinned at lsn
    protector.set_floor(lsn)
    try:
        row = t.insert({"k": "new", "v": 1})
        later = t.insert({"k": "later", "v": 2})
        t.update(later.rowid, {"v": 3})
        with db.snapshot():
            assert [r["v"] for r in t.select_eq("k", "new")] == [1]
        t.delete(later.rowid)
        assert t.stale_rowids() == (row.rowid, later.rowid)
        assert t._chains[row.rowid][0].begin_lsn > lsn
        db.transactions.pin_snapshot(lsn)
        try:
            assert t.select_eq("k", "new") == []
            assert t.get(row.rowid) is None
            assert _visible(db) == {"old": 0}
        finally:
            db.transactions.unpin_snapshot()
    finally:
        protector.stop()
    with db.snapshot():
        assert t.select_eq("k", "new") == [row]
    assert not t._chains and t.stale_rowids() == ()


def test_a_settled_row_rewritten_under_a_pin_chains_from_lsn_0():
    db = _make_db()
    t = db.table("t")
    t.create_index("k")
    row = t.insert({"k": "a", "v": 1})
    with db.snapshot():
        t.select_eq("k", "a")   # settles the insert
    assert not t._chains
    lsn = db.transactions.snapshot_lsn()
    protector = Protector(db.transactions)   # a pin taken in between
    protector.set_floor(lsn)
    try:
        t.update(row.rowid, {"v": 2})
        first, second = t._chains[row.rowid]
        assert first.row is row and first.begin_lsn == 0
        assert second.begin_lsn > lsn
        db.transactions.pin_snapshot(lsn)
        try:
            assert t.get(row.rowid) is row
            assert t.select_eq("k", "a") == [row]
        finally:
            db.transactions.unpin_snapshot()
    finally:
        protector.stop()
    with db.snapshot():
        assert [r["v"] for r in t.select_eq("k", "a")] == [2]
    assert not t._chains


@pytest.mark.parametrize("change", ["update", "delete"])
def test_a_read_caught_across_an_undo_reads_again(change):
    """A pinned read takes a rowid's row, then its chain.  An undo that
    lands between the two puts back a row the read did not take and lets
    the chain settle; it bumps ``_retracted``, so the read goes again
    instead of answering chainless from the row it took."""

    class Chains(dict):
        armed = False

        def get(self, key, default=None):
            if self.armed:
                self.armed = False
                writer.submit(txn.abort).result(timeout=10)
            return dict.get(self, key, default)

    db = _make_db()
    t = db.table("t")
    row = t.insert({"k": "a", "v": 1})
    t.insert({"k": "b", "v": 2})   # settles the first insert
    assert row.rowid not in t._chains
    with ThreadPoolExecutor(1) as writer:
        txn = writer.submit(db.begin).result(timeout=10)
        if change == "update":
            writer.submit(t.update, row.rowid, {"v": 9}).result(timeout=10)
        else:
            writer.submit(t.delete, row.rowid).result(timeout=10)
        t._chains = chains = Chains(t._chains)
        with db.snapshot():
            chains.armed = True
            assert t.get(row.rowid) is row
        assert not chains.armed and row.rowid not in chains


def test_require_respects_snapshot():
    db = _make_db()
    t = db.table("t")
    row = t.insert({"k": "a", "v": 1})
    lsn = db.transactions.snapshot_lsn()
    t.delete(row.rowid)
    db.transactions.pin_snapshot(lsn)
    try:
        assert t.require(row.rowid)["v"] == 1
    finally:
        db.transactions.unpin_snapshot()
    with pytest.raises(StorageError):
        t.require(row.rowid)
