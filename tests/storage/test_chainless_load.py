"""A load allocates a row and its values tuple a row, and no more.

After a reopen -- from the log alone, and from a checkpoint image --
and on a replica after its seed, no table holds a version chain (each
row is its rowid's one version, from LSN 0, read by a pin below every
commit) and no hash index holds a list of one rowid; every index equals
one rebuilt from the rows.  The first write to a loaded row gives it its
chain, and a pin taken before that write keeps reading the loaded row.
Rows a live bulk load wrote end the same way, chainless, once one more
call has settled the last batch.
"""

import pytest

from repro.core.entity import EntityType
from repro.mdm.manager import MusicDataManager
from repro.net.replica import _ReplicaState
from repro.storage.database import Database
from tests.crash.oracle import assert_indexes_match_rows, assert_one_version_a_row
from tests.props.protector import Protector

WORK = EntityType.table_name("WORK")


def _fill(path):
    """WORK rows whose ``opus`` hash index holds sets, a set a replace
    shrank to one rowid and buckets a delete emptied."""
    mdm = MusicDataManager(path, with_cmn=False)
    mdm.schema.define_entity("WORK", [("title", "string"), ("opus", "integer")])
    for i in range(40):
        mdm.execute('append to WORK (title = "w%d", opus = %d)' % (i, i % 7))
    mdm.execute("range of w is WORK")
    mdm.execute("retrieve (w.title) where w.opus = 3")  # builds the index
    mdm.execute('replace w (opus = 9) where w.opus = 5 and w.title != "w5"')
    mdm.execute("delete w where w.opus = 6")
    return mdm


def _assert_loaded(database):
    for name in database.table_names():
        table = database.table(name)
        assert_indexes_match_rows(table)
        assert_one_version_a_row(database, table, {row.rowid: row for row in table})


@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_reopen_holds_no_chain_and_no_set_of_one(tmp_path, checkpoint):
    path = str(tmp_path / "db")
    mdm = _fill(path)
    if checkpoint:
        mdm.database.checkpoint()
    mdm.close()
    reopened = Database(path)
    try:
        reopened.table(WORK).create_index("opus")
        _assert_loaded(reopened)
        buckets = reopened.table(WORK).index_for("opus")._buckets
        assert buckets[5] == next(  # the list a replace shrank is bare
            row.rowid for row in reopened.table(WORK) if row["title"] == "w5"
        )
        assert len(buckets[3]) == 6
    finally:
        reopened.close()


def test_a_replica_seed_holds_no_chain_and_no_set_of_one(tmp_path):
    mdm = _fill(str(tmp_path / "db"))
    try:
        with mdm.database.image() as (_, pieces):
            replica = _ReplicaState(b"".join(pieces))
        replica.database.table(WORK).create_index("opus")
        _assert_loaded(replica.database)
    finally:
        mdm.close()


def test_the_first_write_to_a_loaded_row_chains_it_under_a_pin(tmp_path):
    path = str(tmp_path / "db")
    _fill(path).close()
    reopened = Database(path)
    transactions = reopened.transactions
    protector = Protector(transactions)
    try:
        table = reopened.table(WORK)
        table.create_index("opus")
        row, victim = table.select_eq("opus", 3)[:2]
        lsn = transactions.snapshot_lsn()
        protector.set_floor(lsn)  # a pin taken before the writes
        table.update(row.rowid, {"opus": 33})
        table.delete(victim.rowid)
        assert set(table._chains) == {row.rowid, victim.rowid}
        first = table._chains[row.rowid][0]
        assert first.row is row and first.begin_lsn == 0
        transactions.pin_snapshot(lsn)
        try:
            assert table.get(row.rowid) is row and table.get(victim.rowid) is victim
            assert [r.rowid for r in table.select_eq("opus", 3)][:2] == [
                row.rowid, victim.rowid,
            ]
        finally:
            transactions.unpin_snapshot()
        assert table.get(row.rowid)["opus"] == 33 and table.get(victim.rowid) is None
        assert_indexes_match_rows(table)
    finally:
        protector.stop()
        reopened.close()


@pytest.mark.parametrize("then", ["write", "pinned probe"])
def test_a_bulk_load_leaves_no_chain_after_one_more_call(tmp_path, then):
    database = Database(str(tmp_path / "db"))
    try:
        table = database.create_table("t", [("title", "string"), ("v", "integer")])
        table.create_index("v")
        rows = database.bulk_ingest(
            "t", [{"title": "w%d" % i, "v": i % 7} for i in range(2500)]
        )
        # Each batch settled the one before it; the last one waits for a
        # later call on the table.
        assert table.stale_rowids() == tuple(row.rowid for row in rows[2000:])
        if then == "write":
            table.update(rows[0].rowid, {"v": 99})
            loaded = rows[1:]
        else:
            with database.snapshot():
                assert len(table.select_eq("v", 3)) == 357
            loaded = rows
        assert not any(row.rowid in table._chains for row in loaded)
        queued = table.stale_rowids()
        assert queued == (() if then == "pinned probe" else (rows[0].rowid,))
        # So a sweep has no loaded row left to settle.
        pruned = database.metrics.value("mvcc.versions_pruned")
        table.prune_versions(database.transactions.prune_horizon())
        assert not table._chains and table.stale_rowids() == ()
        assert database.metrics.value("mvcc.versions_pruned") == pruned + (
            1 if then == "write" else 0
        )
    finally:
        database.close()
