"""An instance is one row of its entity type's table.

A surrogate resolves through the table of each type it may belong to,
so rows that reach a type by any path -- ``create`` or a bulk load --
resolve alike; a create or delete writes that one row, and a delete
asks only the orderings and relationships its type can appear in.
"""

import pytest

from repro.cmn.schema import CmnSchema
from repro.core.entity import SURROGATE_COLUMN
from repro.core.schema import Schema
from repro.errors import IntegrityError, QueryError
from repro.mdm.manager import MusicDataManager
from repro.quel.executor import QuelSession
from repro.storage.transaction import TransactionManager


@pytest.fixture
def bulk_loaded():
    """Four types whose instances all arrive through ``bulk_ingest``."""
    schema = Schema()
    work = schema.define_entity("WORK", [("title", "string")])
    track = schema.define_entity("TRACK", [("title", "string"), ("work", "WORK")])
    album = schema.define_entity("ALBUM", [("name", "string")])
    person = schema.define_entity("PERSON", [("name", "string")])
    schema.define_ordering("track_on_album", ["TRACK"], "ALBUM")
    schema.define_relationship(
        "PERFORMER", [("performer", "PERSON"), ("track", "TRACK")]
    )
    surrogates = {}

    def load(entity, rows):
        for row in rows:
            row[SURROGATE_COLUMN] = surrogates[row.pop("key")] = (
                schema.next_surrogate()
            )
        schema.database.bulk_ingest(entity.table.name, rows)

    load(work, [{"key": "fugue", "title": "Fugue in G minor"}])
    load(album, [{"key": "organ", "name": "Organ Works"}])
    load(person, [{"key": "player", "name": "Ton Koopman"}])
    load(track, [
        {"key": "t%d" % i, "title": "Track %d" % i, "work": surrogates["fugue"]}
        for i in range(3)
    ])
    return schema, surrogates


def test_bulk_loaded_rows_resolve_everywhere(bulk_loaded):
    schema, surrogates = bulk_loaded
    track_type = schema.entity_type("TRACK")
    tracks = [track_type.get(surrogates["t%d" % i]) for i in range(3)]
    album = schema.entity_type("ALBUM").get(surrogates["organ"])
    player = schema.entity_type("PERSON").get(surrogates["player"])

    ordering = schema.ordering("track_on_album")
    ordering.extend(album, tracks)
    assert ordering.children(album) == tracks
    assert ordering.parent_of(tracks[1]) == album
    assert ordering.parents() == [album]

    work = tracks[0].dereference("work")
    assert work.surrogate == surrogates["fugue"] and work["title"] == "Fugue in G minor"

    performer = schema.relationship("PERFORMER")
    performer.relate(performer=player, track=tracks[2])
    assert performer.related("performer", player, "track") == [tracks[2]]

    assert schema.instance(surrogates["t1"], ["TRACK"])["title"] == "Track 1"


def test_quel_resolves_an_attribute_or_role_operand_among_its_types(bulk_loaded):
    schema, surrogates = bulk_loaded
    track_type = schema.entity_type("TRACK")
    tracks = [track_type.get(surrogates["t%d" % i]) for i in range(3)]
    album = schema.entity_type("ALBUM").get(surrogates["organ"])
    schema.ordering("track_on_album").extend(album, tracks)
    player = schema.entity_type("PERSON").get(surrogates["player"])
    schema.relationship("PERFORMER").relate(performer=player, track=tracks[2])
    session = QuelSession(schema)
    rows = session.execute(
        "range of r is PERFORMER\nretrieve (n = ordinal(r.track))"
    )
    assert [row["n"] for row in rows] == [3]
    rows = session.execute(
        "range of t is TRACK\nrange of w is WORK\n"
        "retrieve (t.title) where w is t.work"
    )
    assert sorted(row["t.title"] for row in rows) == [
        "Track 0", "Track 1", "Track 2",
    ]
    with pytest.raises(QueryError, match="not an entity reference"):
        session.execute("retrieve (n = ordinal(t.title))")


def test_a_surrogate_resolves_only_among_the_types_named(bulk_loaded):
    schema, surrogates = bulk_loaded
    with pytest.raises(IntegrityError):
        schema.instance(surrogates["organ"], ["TRACK", "WORK"])
    found = schema.instance(surrogates["organ"], ["TRACK", "ALBUM"])
    assert found.type.name == "ALBUM"


def test_instance_count_counts_bulk_loaded_rows(bulk_loaded):
    schema, _ = bulk_loaded
    stored = sum(len(e.table) for e in schema.entity_types.values())
    assert schema.instance_count() == stored
    assert schema.statistics()["instances"] == stored


def test_an_auto_commit_append_logs_one_row(tmp_path, monkeypatch):
    mdm = MusicDataManager(str(tmp_path / "db"), with_cmn=False)
    try:
        mdm.execute("define entity TRACK (title = string)")
        published = []
        publish = TransactionManager._publish

        def spy(self, changes):
            published.append([table for _, table, *_ in changes])
            return publish(self, changes)

        monkeypatch.setattr(TransactionManager, "_publish", spy)
        mdm.execute('append to TRACK (title = "Gymnopedie")')
        assert published == [["entity:TRACK"]]
    finally:
        mdm.close()


def test_a_note_delete_asks_only_the_orderings_a_note_can_be_in(monkeypatch):
    schema = CmnSchema().schema
    note = schema.entity_type("NOTE").create()
    asked = []
    for holder in list(schema.orderings.values()) + list(schema.relationships.values()):
        rows_holding = holder.rows_holding

        def spy(place, surrogate, _name=holder.name, _rows_holding=rows_holding):
            asked.append((_name, place))
            return _rows_holding(place, surrogate)

        monkeypatch.setattr(holder, "rows_holding", spy)
    note.delete()
    assert sorted(asked) == [
        ("note_in_chord", "child"), ("note_in_event", "child"),
        ("note_on_staff", "child"),
    ]
    assert not note.exists()


def test_a_left_over_instances_table_is_neither_read_nor_written(tmp_path):
    """A directory written when every instance had a second row in an
    ``_instances`` table still opens: that table is left alone, and
    the next surrogate comes from the entity tables."""
    path = str(tmp_path / "db")
    mdm = MusicDataManager(path, with_cmn=False)
    mdm.execute("define entity TRACK (title = string)")
    tracks = [mdm.schema.entity_type("TRACK").create(title=t) for t in "abc"]
    left_over = mdm.database.create_table("_instances", [
        ("surrogate", "integer"), ("entity_type", "string"), ("rowid", "integer"),
    ])
    for track in tracks:
        left_over.insert({
            "surrogate": track.surrogate, "entity_type": "TRACK",
            "rowid": track.rowid,
        })
    mdm.close()

    mdm = MusicDataManager(path, with_cmn=False)
    try:
        left_over = mdm.database.table("_instances")
        version, rows = left_over.version, sorted(r["surrogate"] for r in left_over)
        track_type = mdm.schema.entity_type("TRACK")
        resolved = [mdm.schema.instance(t.surrogate, ["TRACK"]) for t in tracks]
        assert [track["title"] for track in resolved] == ["a", "b", "c"]
        top = max(
            row[SURROGATE_COLUMN]
            for entity in mdm.schema.entity_types.values() for row in entity.table
        )
        assert track_type.create(title="d").surrogate > top
        resolved[0].delete()
        mdm.execute('append to TRACK (title = "e")')
        assert left_over.version == version
        assert sorted(r["surrogate"] for r in left_over) == rows
    finally:
        mdm.close()
