"""The section 6 meta-catalog: schema stored as ordered entities."""

import pytest

from repro.core.schema import Schema
from repro.graphics.graphdef import GDEF_USE, GraphicsCatalog


@pytest.fixture
def catalogued(schema):
    schema.define_entity("CHORD", [("name", "integer")])
    schema.define_entity("NOTE", [("name", "integer"), ("pitch", "string")])
    schema.define_relationship(
        "HARMONY", [("a", "CHORD"), ("b", "CHORD")], [("interval", "integer")]
    )
    schema.define_ordering("note_in_chord", ["NOTE"], under="CHORD")
    return schema, schema.meta


class TestPopulation:
    def test_entities_catalogued(self, catalogued):
        _, catalog = catalogued
        names = catalog.catalogued_entities()
        assert "NOTE" in names and "CHORD" in names
        # The blur: meta types catalogue themselves.
        for meta in ("ENTITY", "ATTRIBUTE", "RELATIONSHIP", "ORDERING"):
            assert meta in names

    def test_attributes_ordered_under_entity(self, catalogued):
        _, catalog = catalogued
        attributes = catalog.attributes_of_entity("NOTE")
        assert [a["attribute_name"] for a in attributes] == ["name", "pitch"]
        assert [a["attribute_type"] for a in attributes] == ["integer", "string"]

    def test_relationship_attributes(self, catalogued):
        _, catalog = catalogued
        attributes = catalog.attributes_of_relationship("HARMONY")
        assert [a["attribute_name"] for a in attributes] == ["a", "b", "interval"]

    def test_ordering_parent_is_entity_reference(self, catalogued):
        _, catalog = catalogued
        parent = catalog.parent_of_ordering("note_in_chord")
        assert parent["entity_name"] == "CHORD"

    def test_order_child_relationship(self, catalogued):
        _, catalog = catalogued
        children = catalog.children_of_ordering("note_in_chord")
        assert [c["entity_name"] for c in children] == ["NOTE"]

    def test_redefine_writes_no_rows(self, catalogued):
        schema, catalog = catalogued
        before = len(catalog.entity_table.instances())
        schema.define_entity("NOTE", [("name", "integer"), ("pitch", "string")])
        schema.define_ordering("note_in_chord", ["NOTE"], under="CHORD")
        assert len(catalog.entity_table.instances()) == before

    def test_a_later_define_is_catalogued_as_it_runs(self, catalogued):
        schema, catalog = catalogued
        schema.define_entity("REST", [("duration", "string")])
        assert "REST" in catalog.catalogued_entities()

    def test_an_added_attribute_is_catalogued_last(self, catalogued):
        schema, catalog = catalogued
        schema.entity_type("NOTE").add_attribute(("octave", "integer"))
        assert [
            a["attribute_name"] for a in catalog.attributes_of_entity("NOTE")
        ] == ["name", "pitch", "octave"]

    def test_figure_10_registrations_survive_a_later_define(self, catalogued):
        """GDefUse rows point at ENTITY records; a define used to be
        catalogued only by a re-sync that truncated them."""
        schema, catalog = catalogued
        graphics = GraphicsCatalog(schema)
        graphics.register("NOTE", "newpath", [("pitch", "/pitch exch def")])
        schema.define_entity("STEM", [("length", "integer")])
        assert schema.relationship(GDEF_USE).count() == 1
        assert graphics.definition_for("NOTE")["function"] == "newpath"
        assert "STEM" in catalog.catalogued_entities()


class TestReconstruction:
    def test_round_trip_ddl(self, catalogued):
        schema, catalog = catalogued
        rebuilt = catalog.reconstruct()
        # Compare only the user-level statements.
        for line in (
            "define entity NOTE (name = integer, pitch = string)",
            "define ordering note_in_chord (NOTE) under CHORD",
        ):
            assert line in rebuilt.ddl()

    def test_rebuilt_schema_is_live(self, catalogued):
        _, catalog = catalogued
        rebuilt = catalog.reconstruct()
        chord = rebuilt.entity_type("CHORD").create(name=1)
        note = rebuilt.entity_type("NOTE").create(name=1, pitch="g")
        rebuilt.ordering("note_in_chord").append(chord, note)
        assert rebuilt.ordering("note_in_chord").under(note, chord)

    def test_relationship_roles_vs_attributes(self, catalogued):
        _, catalog = catalogued
        rebuilt = catalog.reconstruct()
        harmony = rebuilt.relationship("HARMONY")
        assert [r for r, _ in harmony.roles] == ["a", "b"]
        assert [a.name for a in harmony.attributes] == ["interval"]

    def test_roles_typed_by_a_meta_type_stay_roles(self, catalogued):
        schema, catalog = catalogued
        schema.define_relationship(
            "USES", [("entity", "ENTITY"), ("chord", "CHORD")],
            [("weight", "integer")], many_role="entity",
        )
        uses = catalog.reconstruct().relationship("USES")
        assert uses.roles == [("entity", "ENTITY"), ("chord", "CHORD")]
        assert [a.name for a in uses.attributes] == ["weight"]
        assert uses.many_role == "entity"

    def test_reconstruct_include_meta(self, catalogued):
        schema, catalog = catalogued
        rebuilt = catalog.reconstruct()
        assert rebuilt.has_entity_type("ENTITY")
        assert "entity_attributes" in rebuilt.orderings
        assert rebuilt.definitions() == schema.definitions()

    def test_a_schema_over_stored_rows_is_rebuilt_from_them(self, catalogued):
        schema, _ = catalogued
        reopened = Schema("again", database=schema.database)
        assert reopened.definitions() == schema.definitions()
        assert reopened.instance_count() == schema.instance_count()
