"""Open and a replica's seed build each index once.

While an empty table loads -- recovery's image + redo, a replica's
``REPL_SEED`` .. ``REPL_SEED_END`` -- ``Table.defer_index_upkeep`` turns
index upkeep off: rows install, index DDL only registers, and
``build_deferred_indexes`` fills every index left at the end through its
``insert_many``.  Judged here by the crash battery's rebuild-from-rows
oracle (``tests/crash/oracle.py``, which builds by per-row ``insert``)
and by the live database the directory came from;
``tests/crash/test_redo.py`` is the seeded differential over live,
reopened and replica.  Counts, not wall-clock, guard the cost.
"""

import json
import logging
import os

import pytest

from repro.errors import RecoveryError, StorageError
from repro.storage.database import Database
from repro.storage.pager import PAGE_SIZE
from repro.storage.row import Row
from repro.storage.table import Column, Table, TableSchema
from repro.text.index import TrigramIndex

from tests.crash.oracle import assert_indexes_match_rows, table_state

pytestmark = pytest.mark.crash

TITLES = ["Prélude in C", "prelude op. 28", "Étude", "Nocturne no. 2", "", "ab"]


def titled(i):
    return {"title": "%s %d" % (TITLES[i % len(TITLES)], i), "v": i}


# -- the switch itself ---------------------------------------------------------


def bare_table():
    return Table(TableSchema("t", [
        Column("title", "string"), Column("v", "integer"),
        Column("w", "integer"),
    ]))


def test_every_index_kind_is_built_once_from_the_rows_that_are_left():
    table = bare_table()
    table.create_index("v")  # registered before: empty, like a seed's
    table.defer_index_upkeep()
    table.create_index("w", ordered=True)
    table.create_index(("w", "v"))
    table.create_text_index("title")
    for i in range(1, 41):
        table.install_committed(0, i, Row(i, dict(titled(i), w=i % 7)))
    for i in range(1, 41, 3):  # the log retitles some rows, deletes others
        table.install_committed(0, i, Row(i, dict(titled(i + 100), w=i % 5)))
    for i in range(2, 41, 5):
        table.install_committed(0, i, None)
    assert len(table.text_index_for("title")) == 0  # nothing kept meanwhile
    table.build_deferred_indexes()
    assert_indexes_match_rows(table)
    assert set(table.indexes()) == {
        ("v", False), ("w", True), (("w", "v"), True), ("title", "text"),
    }
    # Upkeep is back on, row by row.
    table.update(1, {"title": "afterwards", "w": 99})
    table.delete(4)
    table.insert(titled(500))
    table.insert_many([dict(titled(i), w=i) for i in range(600, 620)])
    assert_indexes_match_rows(table)
    assert [row.rowid for row in table.select_eq("w", 99)] == [1]


def test_a_deferring_table_refuses_to_answer_from_its_indexes():
    table = bare_table()
    table.create_index("v")
    table.defer_index_upkeep()
    table.install_committed(0, 1, Row(1, dict(titled(1), w=1)))
    with pytest.raises(StorageError):
        table.probe(lambda: None)
    with pytest.raises(StorageError):
        table.select_eq("v", 1)
    table.build_deferred_indexes()
    assert [row.rowid for row in table.select_eq("v", 1)] == [1]


def test_only_an_empty_table_may_defer():
    table = bare_table()
    table.insert(dict(titled(1), w=1))
    with pytest.raises(StorageError):
        table.defer_index_upkeep()


# -- recovery: DDL order, image + log overlap, a log that will not replay ------


@pytest.mark.parametrize("sidecar", [None, {"t": ["title"]}, {}])
def test_index_ddl_in_the_log_keeps_its_order(tmp_path, sidecar):
    """CREATE -> rows -> DROP -> rows -> CREATE on one column, with
    ``text_indexes.json`` as written, stale "index exists" and stale "no
    index": the log decides, and the one build at the end holds the
    rows of every era."""
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
    if sidecar is not None:
        with open(os.path.join(path, "text_indexes.json"), "w") as handle:
            json.dump(sidecar, handle)
    reopened = Database(path)
    try:
        assert reopened.table("t").text_index_columns() == ["title"]
        assert table_state(reopened) == live
    finally:
        reopened.close()


@pytest.mark.parametrize("sidecar", [None, {"t": ["title"]}])
def test_an_index_the_log_drops_last_stays_dropped(tmp_path, sidecar):
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [titled(i) for i in range(30)])
    db.drop_text_index("t", "title")
    live = table_state(db)
    db.close()
    if sidecar is not None:
        with open(os.path.join(path, "text_indexes.json"), "w") as handle:
            json.dump(sidecar, handle)
    reopened = Database(path)
    try:
        assert reopened.table("t").text_index_columns() == []
        assert table_state(reopened) == live
    finally:
        reopened.close()


def test_log_over_an_image_larger_than_the_page_cache(tmp_path):
    """The image-load half: rows from a checkpoint image past the
    64-page cache, then a log that deletes, retitles and appends over
    them, closed without a second checkpoint."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table(
        "t", [("title", "string"), ("v", "integer"), ("pad", "string")]
    )
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [dict(titled(i), pad="%d" % i * 80) for i in range(1200)])
    db.checkpoint()
    (image,) = [n for n in os.listdir(path) if n.startswith("data.")]
    assert os.path.getsize(os.path.join(path, image)) > 64 * PAGE_SIZE
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


def test_a_log_that_will_not_replay_builds_nothing(tmp_path, monkeypatch):
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("title", "string"), ("v", "integer")])
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [titled(i) for i in range(40)])
    db.close()
    catalog = os.path.join(path, "catalog.json")
    with open(catalog) as handle:
        tables = json.load(handle)
    tables["gone"] = tables.pop("t")  # the log now names an unknown table
    with open(catalog, "w") as handle:
        json.dump(tables, handle)
    builds = []
    monkeypatch.setattr(
        TrigramIndex, "insert_many",
        lambda self, pairs: builds.append(len(list(pairs))),
    )
    with pytest.raises(RecoveryError):
        Database(path)
    assert builds == []


# -- what an open costs, in calls ----------------------------------------------


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
        # CREATE, five batches, one delete; 50 row installs and a delete.
        assert metrics.value("db.recovery.redo_records") == 7
        assert metrics.value("db.recovery.rows_installed") == 51
        assert 0 < metrics.value("db.recovery.index_load_ms") \
            <= metrics.value("db.recovery.index_build_ms") \
            <= metrics.value("db.recovery.total_ms")
        # Closed cleanly: the one index came from the posting stream.
        assert metrics.value("db.recovery.indexes_loaded") == 1
        assert metrics.value("db.recovery.indexes_rebuilt") == 0
        (line,) = [r.getMessage() for r in caplog.records
                   if "recovered" in r.getMessage()]
        assert "7 redo records" in line and "51 rows installed" in line
        assert "1 loaded" in line and "0 rebuilt from rows" in line
        assert "db.recovery.total_ms" in metrics.render()  # the shell's \metrics
    finally:
        reopened.close()
