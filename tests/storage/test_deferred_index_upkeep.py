"""Open and a replica's seed install a row run at a time and build each
index once.

``Table.install_committed`` takes a run of rows in one latch hold and
must leave what the same changes one at a time leave.  While an empty
table loads -- recovery's image + redo, the image a
replica is seeded with -- ``Table.defer_index_upkeep`` turns
index upkeep off: rows install, index DDL only registers, and
``build_deferred_indexes`` fills every index left at the end through its
``insert_many``.  Judged here by the crash battery's rebuild-from-rows
oracle (``tests/crash/oracle.py``, which builds by per-row ``insert``)
and by the live database the directory came from;
``tests/crash/test_redo.py`` is the seeded differential over live,
reopened and replica.  Counts, not wall-clock, guard the cost.
"""

import contextlib
import gc
import logging
import os
import threading

import pytest

from repro.errors import RecoveryError, StorageError
from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.row import Row
from repro.storage.table import Column, Table, TableSchema
from repro.storage.wal import WriteAheadLog
from repro.text.index import TrigramIndex

from tests.crash.oracle import assert_indexes_match_rows, table_state

pytestmark = pytest.mark.crash

TITLES = ["Prélude in C", "prelude op. 28", "Étude", "Nocturne no. 2", "", "ab"]


def titled(i):
    return {"title": "%s %d" % (TITLES[i % len(TITLES)], i), "v": i}


def row_of(table, rowid, values):
    """A Row of *table* holding *values*, as a load hands it over."""
    return Row(rowid, table.schema.coerce(values), table.schema.layout)


# -- the switch itself ---------------------------------------------------------


def new_table(db=None):
    """Table ``t`` of *db*, a fresh in-memory database by default."""
    db = Database() if db is None else db
    return db.create_table(
        "t", [("title", "string"), ("v", "integer"), ("w", "integer")]
    )


@contextlib.contextmanager
def horizon_held_at_zero(db):
    """Hold *db*'s prune horizon at 0 with a snapshot pinned at LSN 0 on
    a thread of its own (a pin refuses writes on its own thread)."""
    pinned, release = threading.Event(), threading.Event()

    def hold():
        db.transactions.pin_snapshot(0)
        pinned.set()
        release.wait(60)
        db.transactions.unpin_snapshot()

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert pinned.wait(10)
        yield
    finally:
        release.set()
        thread.join(10)


def test_every_index_kind_is_built_once_from_the_rows_that_are_left():
    table = new_table()
    table.create_index("v")  # registered before: empty, like a seed's
    table.defer_index_upkeep()
    table.create_index("w")
    table.create_index(("w", "v"))
    table.create_text_index("title")
    for i in range(1, 41):
        table.install_committed(0, [row_of(table, i, dict(titled(i), w=i % 7))])
    for i in range(1, 41, 3):  # the log retitles some rows, deletes others
        table.install_committed(0, [row_of(table, i, dict(titled(i + 100), w=i % 5))])
    for i in range(2, 41, 5):
        table.install_committed(0, (), (i,))
    assert len(table.text_index_for("title")) == 0  # nothing kept meanwhile
    table.build_deferred_indexes()
    assert_indexes_match_rows(table)
    assert set(table.indexes()) == {
        ("v", False), ("w", False), (("w", "v"), True), ("title", "text"),
    }
    # Upkeep is back on, row by row.
    table.update(1, {"title": "afterwards", "w": 99})
    table.delete(4)
    table.insert(titled(500))
    table.insert_many([dict(titled(i), w=i) for i in range(600, 620)])
    assert_indexes_match_rows(table)
    assert [row.rowid for row in table.select_eq("w", 99)] == [1]


def test_a_deferring_table_refuses_to_answer_from_its_indexes():
    table = new_table()
    table.create_index("v")
    table.defer_index_upkeep()
    table.install_committed(0, [row_of(table, 1, dict(titled(1), w=1))])
    with pytest.raises(StorageError):
        table.probe(lambda: None)
    with pytest.raises(StorageError):
        table.select_eq("v", 1)
    table.build_deferred_indexes()
    assert [row.rowid for row in table.select_eq("v", 1)] == [1]


# -- the run install ------------------------------------------------------------


def chain_state(table):
    """Everything an install decides besides the indexes: rows, each
    chain's versions with their LSNs, the stale set, ``version`` and the
    next rowid (taken, so call once)."""
    return (
        {rowid: row.as_dict() for rowid, row in table._rows.items()},
        {
            rowid: [(v.row.as_dict(), v.begin_lsn, v.end_lsn) for v in chain]
            for rowid, chain in table._chains.items()
        },
        table.stale_rowids(),
        table.version,
        next(table._next_rowid),
    )


def test_a_run_installs_as_its_changes_one_at_a_time():
    """A run that overwrites held rowids and names one twice, at an LSN
    a horizon of 0 keeps the superseded versions of: the same rows,
    chains, stale set, ``version`` and next rowid as one-row runs."""
    with contextlib.ExitStack() as stack:
        tables = []
        for _ in range(2):
            db = Database()
            stack.enter_context(horizon_held_at_zero(db))
            table = new_table(db)
            table.create_index("v")
            table.create_index("w")
            table.create_index(("w", "v"))
            table.create_text_index("title")
            table.defer_index_upkeep()
            table.install_committed(0, [
                row_of(table, i, dict(titled(i), w=i % 3)) for i in range(1, 11)
            ])
            table.build_deferred_indexes()
            tables.append(table)
        whole, single = tables
        run = [row_of(whole, i, dict(titled(i + 50), w=i % 4))
               for i in (12, 3, 7, 20)]
        run += [row_of(whole, 3, dict(titled(99), w=9)),
                row_of(whole, 15, dict(titled(15), w=0))]
        whole.install_committed(7, run, (5, 15, 40))
        for row in run:
            single.install_committed(7, [row])
        for rowid in (5, 15, 40):
            single.install_committed(7, (), (rowid,))
        assert chain_state(whole) == chain_state(single)
        # In latest-write order: 3 and 15 were each written twice.
        assert whole.stale_rowids() == (12, 7, 20, 3, 5, 15)
        assert whole.version == 10 + 6 + 2  # the absent rowid 40 is no change
        for table in tables:
            assert_indexes_match_rows(table)
        assert [row.rowid for row in whole.select_eq("w", 9)] == [3]


def test_a_fresh_run_lands_in_one_latch_hold():
    table = new_table()
    table.create_index("v")
    holds = []

    class CountingLatch:
        def __init__(self, latch):
            self._latch = latch

        def __enter__(self):
            holds.append(1)
            return self._latch.__enter__()

        def __exit__(self, *exc_info):
            return self._latch.__exit__(*exc_info)

    table._latch = CountingLatch(table._latch)
    table.defer_index_upkeep()
    table.install_committed(
        0, [row_of(table, i, dict(titled(i), w=i)) for i in range(1, 501)]
    )
    assert holds == [1]
    table.build_deferred_indexes()
    assert table.version == 500 and next(table._next_rowid) == 501
    assert_indexes_match_rows(table)


def test_only_an_empty_table_may_defer():
    table = new_table()
    table.insert(dict(titled(1), w=1))
    with pytest.raises(StorageError):
        table.defer_index_upkeep()


# -- recovery: DDL order, image + log, a log that will not replay --------------


def test_index_ddl_in_the_log_keeps_its_order(tmp_path):
    """CREATE -> rows -> DROP -> rows -> CREATE on one column: the
    catalog rows the log carries decide, and the one build at the end
    holds the rows of every era."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [titled(i) for i in range(30)])
    db.drop_text_index("t", "title")
    table = db.table("t")
    table.update(3, {"title": "retitled while unindexed"})
    table.delete(5)
    db.bulk_ingest("t", [titled(i) for i in range(30, 50)])
    db.create_text_index("t", "title")
    table.update(7, {"title": "retitled while indexed"})
    live = table_state(db)
    db.close()
    reopened = Database(path)
    try:
        assert reopened.table("t").text_index_columns() == ["title"]
        assert table_state(reopened) == live
    finally:
        reopened.close()


def test_an_index_the_log_drops_last_stays_dropped(tmp_path):
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [titled(i) for i in range(30)])
    db.drop_text_index("t", "title")
    live = table_state(db)
    db.close()
    reopened = Database(path)
    try:
        assert reopened.table("t").text_index_columns() == []
        assert table_state(reopened) == live
    finally:
        reopened.close()


def test_log_over_a_large_image(tmp_path):
    """The image-load half: rows from a checkpoint image of more than
    262,144 bytes, then a log that deletes, retitles and appends over
    them, closed without a second checkpoint."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table(
        "t", [("title", "string"), ("v", "integer"), ("pad", "string")]
    )
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [dict(titled(i), pad="%d" % i * 80) for i in range(1200)])
    db.checkpoint()
    assert os.path.getsize(os.path.join(path, "image.mdm")) > 262_144
    table = db.table("t")
    for rowid in range(10, 1200, 45):
        table.delete(rowid)
    for rowid in range(3, 1200, 37):
        if table.get(rowid) is not None:
            table.update(rowid, {"title": "Variation %d" % rowid})
    db.bulk_ingest("t", [dict(titled(i), pad="") for i in range(1200, 1230)])
    live = table_state(db)
    db.close()
    reopened = Database(path)
    try:
        assert table_state(reopened) == live
        gone = [row for row in reopened.table("t") if row.rowid == 10]
        assert gone == []
        index = reopened.table("t").text_index_for("title")
        assert 77 in index.candidates_matching("variation 77")
    finally:
        reopened.close()


def unreplayable(tmp_path):
    """A directory whose log ends in a row for a table no catalog row
    names: redo raises past its first records."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [titled(i) for i in range(40)])
    db.close()
    gone = TableSchema("gone", [Column("v", "integer")])
    row = Row(1, gone.coerce({"v": 1}), gone.layout)
    with WriteAheadLog(os.path.join(path, "wal.log")) as log:
        log.append_batch([("insert", "gone", row, None)], {"gone": gone})
        log.flush()
    return path


def test_a_log_that_will_not_replay_builds_nothing(tmp_path, monkeypatch):
    path = unreplayable(tmp_path)
    builds = []
    monkeypatch.setattr(
        TrigramIndex, "insert_many",
        lambda self, pairs: builds.append(len(list(pairs))),
    )
    with pytest.raises(RecoveryError):
        Database(path)
    assert builds == []


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failed_open_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    """The load pauses the cyclic collector; an open that raises
    mid-redo hands it back enabled or disabled, as the caller had it."""
    path = unreplayable(tmp_path)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RecoveryError):
            Database(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# -- what an open costs, in calls ----------------------------------------------


def test_a_reopen_reads_the_log_once(tmp_path):
    """The valid prefix the log scans at open is what redo replays:
    ``wal.log`` is opened for reading once, and the prefix is not kept."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.bulk_ingest("t", [titled(i) for i in range(30)], batch_rows=10)
    db.table("t").update(4, {"title": "retitled"})
    live = table_state(db)
    db.close()
    reads = []

    def opener(name, mode):
        if mode == "rb" and os.path.basename(name) == "wal.log":
            reads.append(name)
        return open(name, mode)

    reopened = Database(path, opener=opener)
    try:
        assert len(reads) == 1
        assert reopened._log._opened is None
        assert table_state(reopened) == live
    finally:
        reopened.close()


def test_a_reopen_after_a_checkpoint_prunes_nothing(tmp_path, monkeypatch):
    """Recovery installs at LSN 0, with no chains, so the
    ``CHECKPOINT`` marker it replays sweeps nothing; a replica, which
    installs at commit LSNs, still sweeps there."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.bulk_ingest("t", [titled(i) for i in range(30)])
    db.checkpoint()
    db.close()
    sweeps = []
    prune_versions = Table.prune_versions

    def counted(self, horizon):
        sweeps.append(self.name)
        return prune_versions(self, horizon)

    monkeypatch.setattr(Table, "prune_versions", counted)
    reopened = Database(path)
    try:
        assert reopened.metrics.value("db.recovery.redo_records") == 1
        assert sweeps == []
        assert not reopened.table("t")._chains
        replica = wal_module.RedoApplier(Database(), stamp_commits=True)
        replica.apply(5, wal_module.CHECKPOINT, [])
        assert sweeps == ["_catalog"]
    finally:
        reopened.close()




def test_reopen_builds_each_text_index_in_one_call(tmp_path, monkeypatch):
    """A 2,000-row text-indexed directory that was not closed: redo
    installs every row, yet no row reaches ``TrigramIndex.insert`` and
    each index is built by exactly one ``insert_many``."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.create_table("u", [("title", "string"), ("v", "integer")])
    db.create_text_index("t", "title")
    db.create_text_index("u", "title")
    db.bulk_ingest("t", [titled(i) for i in range(2000)])
    table = db.table("u")
    for i in range(40):  # single-row frames, retitles and deletes too
        table.insert(titled(i))
    table.update(2, {"title": "retitled"})
    table.delete(3)
    db.close()
    # Without the posting stream close() left, as after a crash.
    os.remove(os.path.join(path, "postings.bin"))

    calls = {"insert": 0, "insert_many": []}
    insert, insert_many = TrigramIndex.insert, TrigramIndex.insert_many

    def counted_insert(self, value, rowid):
        calls["insert"] += 1
        return insert(self, value, rowid)

    def counted_insert_many(self, pairs):
        pairs = list(pairs)
        calls["insert_many"].append(len(pairs))
        return insert_many(self, pairs)

    monkeypatch.setattr(TrigramIndex, "insert", counted_insert)
    monkeypatch.setattr(TrigramIndex, "insert_many", counted_insert_many)
    reopened = Database(path)
    monkeypatch.undo()
    try:
        assert calls["insert"] == 0
        assert sorted(calls["insert_many"]) == [39, 2000]
        assert_indexes_match_rows(reopened.table("t"))
        assert_indexes_match_rows(reopened.table("u"))
    finally:
        reopened.close()


def test_recovery_says_what_the_open_cost(tmp_path, caplog):
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [titled(i) for i in range(50)], batch_rows=10)
    db.table("t").delete(1)
    db.close()
    with caplog.at_level(logging.INFO, logger="repro.storage.database"):
        reopened = Database(path)
    try:
        metrics = reopened.metrics
        # A frame a commit: two DDL commits, five batches, one delete;
        # the catalog row's insert and update, 50 row installs and a
        # delete.
        assert metrics.value("db.recovery.redo_records") == 8
        assert metrics.value("db.recovery.rows_installed") == 53
        assert 0 < metrics.value("db.recovery.index_load_ms") \
            <= metrics.value("db.recovery.index_build_ms") \
            <= metrics.value("db.recovery.total_ms")
        # Closed cleanly: the one index came from the posting stream.
        assert metrics.value("db.recovery.indexes_loaded") == 1
        assert metrics.value("db.recovery.indexes_rebuilt") == 0
        (line,) = [r.getMessage() for r in caplog.records
                   if "recovered" in r.getMessage()]
        assert "8 redo records" in line and "53 rows installed" in line
        assert "1 loaded" in line and "0 rebuilt from rows" in line
        assert "db.recovery.total_ms" in metrics.render()  # the shell's \metrics
    finally:
        reopened.close()
