"""A statement outside a transaction is one commit, and a surrogate is
handed out once.

An ``append`` to an entity type writes the entity's row and its
``_instances`` registry row.  Outside a transaction the two commit
together -- one frame, one fsync -- so a crash leaves both or neither,
and a reopened schema never hands out a surrogate a row already holds:
its counter starts above every surrogate the registry or an entity
table holds, bulk-loaded rows (which the registry does not list)
included.
"""

import pytest

from repro.core.entity import SURROGATE_COLUMN
from repro.fixtures.corpus import load_catalog
from repro.mdm.manager import MusicDataManager
from repro.storage.faults import FaultPlan, SimulatedCrash

pytestmark = pytest.mark.crash

APPEND = 'append to TRACK (title = "Gymnopedie")'


def _open(path, opener=None):
    mdm = MusicDataManager(path, with_cmn=False, opener=opener)
    mdm.execute("define entity TRACK (title = string)")
    return mdm


def _surrogates(mdm):
    """``(TRACK rows' surrogates, registered TRACK surrogates)``."""
    table = mdm.schema.entity_type("TRACK").table
    registry = mdm.database.table("_instances")
    return (
        sorted(row[SURROGATE_COLUMN] for row in table),
        sorted(row["surrogate"] for row in registry
               if row["entity_type"] == "TRACK"),
    )


@pytest.mark.parametrize("torn", ["none", "all", "random"])
def test_a_crash_in_an_auto_commit_append_keeps_both_rows_or_neither(
    tmp_path, torn
):
    probe = FaultPlan()
    mdm = _open(str(tmp_path / "probe"), probe.opener)
    before = probe.sync_count
    mdm.execute(APPEND)
    syncs = probe.sync_count - before
    mdm.close()
    for at in range(1, syncs + 1):  # every fsync the append makes
        path = str(tmp_path / ("crash-%d" % at))
        plan = FaultPlan(seed=at, torn=torn)
        mdm = _open(path, plan.opener)
        mdm.execute(APPEND)
        plan.crash_at_sync = plan.sync_count + at
        with pytest.raises(SimulatedCrash):
            mdm.execute(APPEND)
        reopened = _open(path)
        try:
            tracks, registered = _surrogates(reopened)
            assert tracks == registered and len(tracks) in (1, 2), at
            reopened.execute(APPEND)
            tracks, registered = _surrogates(reopened)
            assert tracks == registered, at
            assert len(set(tracks)) == len(tracks), at
        finally:
            reopened.close()
    assert syncs == 1


def test_a_surrogate_after_a_bulk_load_and_a_reopen_is_unused(tmp_path):
    path = str(tmp_path / "db")
    mdm = MusicDataManager(path, with_cmn=False)
    load_catalog(mdm.schema, 50)
    mdm.close()
    mdm = MusicDataManager(path, with_cmn=False)
    try:
        mdm.execute(APPEND)
        tracks, _ = _surrogates(mdm)
        assert len(set(tracks)) == len(tracks) == 51
    finally:
        mdm.close()


def test_a_failed_statement_leaves_nothing(tmp_path):
    """A statement that raises after it wrote undoes what it wrote,
    and nothing reaches the log."""
    mdm = _open(str(tmp_path / "db"))
    try:
        track = mdm.schema.entity_type("TRACK")
        transactions = mdm.database.transactions
        appends = mdm.database.metrics.value("wal.appends")
        with pytest.raises(RuntimeError):
            with transactions.statement():
                track.create(title="kept?")
                raise RuntimeError("the statement fails after its writes")
        assert _surrogates(mdm) == ([], [])
        assert mdm.database.metrics.value("wal.appends") == appends
    finally:
        mdm.close()
