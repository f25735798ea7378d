"""The schema is stored data (section 6): it comes back with the rows.

Every define writes its table's storage catalog row and its meta rows
in one commit through the log, and an open rebuilds the schema from
them -- after a clean close, after a checkpoint, whether or not the CMN
schema is declared again on top.  A closed directory holds the files
the format names and nothing else.
"""

import os
import re

import pytest

from repro.cmn.entities import CMN_ENTITIES
from repro.cmn.schema import ALL_ORDERINGS, RELATIONSHIPS
from repro.errors import TransactionError
from repro.mdm import MusicDataManager

#: Every name a closed durable directory may hold.
FORMAT_FILES = re.compile(r"wal\.log|image\.mdm|postings\.bin")


@pytest.fixture(params=["log", "checkpoint"])
def reopened(request, tmp_path):
    """``reopened(mdm)`` closes *mdm* -- after a checkpoint, in the
    ``checkpoint`` variant -- and opens its directory again."""
    opened = []

    def reopen(mdm):
        if request.param == "checkpoint":
            mdm.checkpoint()
        mdm.close()
        opened.append(MusicDataManager.reopen(mdm.database.path))
        return opened[-1]

    yield reopen
    for mdm in opened:
        mdm.close()


def test_a_user_define_survives_reopen(tmp_path, reopened):
    mdm = MusicDataManager(str(tmp_path / "db"))
    mdm.execute("define entity PERFORMER (pname = string)")
    mdm.execute('append to PERFORMER (pname = "Landowska")')
    again = reopened(mdm)
    again.execute("range of p is PERFORMER")
    assert again.retrieve("retrieve (p.pname)") == [{"p.pname": "Landowska"}]


def test_an_added_attribute_survives_reopen(tmp_path, reopened):
    mdm = MusicDataManager(str(tmp_path / "db"), with_cmn=False)
    performer = mdm.schema.define_entity("PERFORMER", [("pname", "string")])
    performer.create(pname="Landowska")
    performer.add_attribute(("born", "integer"))
    performer.create(pname="Casals", born=1876)
    again = reopened(mdm)
    rows = sorted(
        (p["pname"], p["born"])
        for p in again.schema.entity_type("PERFORMER").instances()
    )
    assert rows == [("Casals", 1876), ("Landowska", None)]


def test_an_attribute_added_to_a_cmn_type_survives_reopen(tmp_path, reopened):
    """The CMN schema declares NOTE again on every open, without the
    added attribute: that define binds to the grown stored type."""
    mdm = MusicDataManager(str(tmp_path / "db"))
    note = mdm.schema.entity_type("NOTE")
    note.add_attribute(("velocity", "integer"))
    note.create(degree=3, velocity=96)
    again = reopened(mdm)
    assert again.cmn.NOTE is again.schema.entity_type("NOTE")
    again.execute("range of n is NOTE")
    assert again.retrieve("retrieve (n.degree, n.velocity)") == [
        {"n.degree": 3, "n.velocity": 96}
    ]


def test_every_kind_of_define_survives_reopen(tmp_path, reopened):
    mdm = MusicDataManager(str(tmp_path / "db"))
    mdm.execute(
        "define entity PERFORMER (pname = string, teacher = PERFORMER)\n"
        "define relationship PLAYS (who = PERFORMER, what = SCORE, "
        "takes = integer)\n"
        "define ordering pupil (PERFORMER) under PERFORMER"
    )
    mdm.schema.define_relationship(
        "SOLOIST", [("performer", "PERFORMER"), ("score", "SCORE")],
        many_role="score",
    )
    definitions = mdm.schema.definitions()
    assert reopened(mdm).schema.definitions() == definitions


def test_the_meta_schema_answers_queries_after_reopen(tmp_path, reopened):
    mdm = MusicDataManager(str(tmp_path / "db"))
    mdm.execute("define entity PERFORMER (pname = string)")
    again = reopened(mdm)
    names = [
        row["e.entity_name"]
        for row in again.retrieve("range of e is ENTITY retrieve (e.entity_name)")
    ]
    assert "PERFORMER" in names and "NOTE" in names and "ENTITY" in names


def test_a_reopen_binds_every_define_and_writes_nothing(tmp_path):
    path = str(tmp_path / "db")
    MusicDataManager(path).close()
    mdm = MusicDataManager(path)
    try:
        assert mdm.database.metrics.value("wal.appends") == 0
    finally:
        mdm.close()


def test_a_fresh_cmn_mdm_pays_one_fsync_per_define(tmp_path):
    """One commit per define statement, not one per meta row: the
    meta-schema's own, then each CMN entity, ordering and relationship."""
    mdm = MusicDataManager(str(tmp_path / "db"))
    try:
        defines = 1 + len(CMN_ENTITIES) + len(ALL_ORDERINGS) + len(RELATIONSHIPS)
        assert mdm.database.metrics.value("wal.fsyncs") <= defines
        assert mdm.schema.instance_count() > 2 * defines  # the meta rows
    finally:
        mdm.close()


def test_ddl_inside_an_explicit_transaction_is_refused(tmp_path):
    mdm = MusicDataManager(str(tmp_path / "db"), with_cmn=False)
    try:
        note = mdm.schema.define_entity("NOTE", [("degree", "integer")])
        with mdm.begin():
            with pytest.raises(TransactionError):
                mdm.schema.define_entity("REST", [("length", "integer")])
            with pytest.raises(TransactionError):
                note.add_attribute(("octave", "integer"))
            with pytest.raises(TransactionError):
                mdm.database.create_table("raw", [("k", "integer")])
        assert not mdm.schema.has_entity_type("REST")
        assert not note.has_attribute("octave")
        assert not mdm.database.has_table("raw")
    finally:
        mdm.close()


def test_a_closed_directory_holds_only_the_files_the_format_names(tmp_path):
    path = str(tmp_path / "db")
    mdm = MusicDataManager(path)
    mdm.execute("define entity PERFORMER (pname = string)")
    mdm.execute("define text index on PERFORMER (pname)")
    mdm.execute('append to PERFORMER (pname = "Landowska")')
    mdm.checkpoint()
    mdm.execute("define entity VENUE (city = string)")
    mdm.close()
    names = sorted(os.listdir(path))
    assert [n for n in names if not FORMAT_FILES.fullmatch(n)] == [], names
