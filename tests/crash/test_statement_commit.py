"""A statement outside a transaction is one commit, and a surrogate is
handed out once.

A ``replace`` that matches two TRACKs rewrites two rows.  Outside a
transaction the two commit together -- one frame, one fsync -- so a
crash leaves both or neither, and a reopened schema never hands out a
surrogate a row already holds: its counter starts above every
surrogate an entity table holds, bulk-loaded rows included.
"""

import pytest

from repro.core.entity import SURROGATE_COLUMN
from repro.fixtures.corpus import load_catalog
from repro.mdm.manager import MusicDataManager
from repro.storage.faults import FaultPlan, SimulatedCrash

pytestmark = pytest.mark.crash

APPEND = 'append to TRACK (title = "Gymnopedie")'
REPLACE = 'replace TRACK (title = "Gnossienne")'


def _open(path, opener=None):
    mdm = MusicDataManager(path, with_cmn=False, opener=opener)
    mdm.execute("define entity TRACK (title = string)")
    return mdm


def _two_tracks(path, opener=None):
    mdm = _open(path, opener)
    mdm.execute(APPEND)
    mdm.execute(APPEND)
    return mdm


def _surrogates(mdm):
    """The TRACK rows' surrogates."""
    table = mdm.schema.entity_type("TRACK").table
    return sorted(row[SURROGATE_COLUMN] for row in table)


def _titles(mdm):
    return sorted(row["title"] for row in mdm.schema.entity_type("TRACK").table)


@pytest.mark.parametrize("torn", ["none", "all", "random"])
def test_a_crash_in_an_auto_commit_replace_keeps_both_rows_or_neither(
    tmp_path, torn
):
    probe = FaultPlan()
    mdm = _two_tracks(str(tmp_path / "probe"), probe.opener)
    before = probe.sync_count
    mdm.execute(REPLACE)
    syncs = probe.sync_count - before
    mdm.close()
    for at in range(1, syncs + 1):  # every fsync the replace makes
        path = str(tmp_path / ("crash-%d" % at))
        plan = FaultPlan(seed=at, torn=torn)
        mdm = _two_tracks(path, plan.opener)
        plan.crash_at_sync = plan.sync_count + at
        with pytest.raises(SimulatedCrash):
            mdm.execute(REPLACE)
        reopened = _open(path)
        try:
            assert _titles(reopened) in (
                ["Gnossienne"] * 2, ["Gymnopedie"] * 2
            ), at
            reopened.execute(APPEND)
            tracks = _surrogates(reopened)
            assert len(set(tracks)) == len(tracks) == 3, at
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
        tracks = _surrogates(mdm)
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
                track.create(title="kept too?")
                raise RuntimeError("the statement fails after its writes")
        assert _surrogates(mdm) == []
        assert mdm.database.metrics.value("wal.appends") == appends
    finally:
        mdm.close()
