"""Schema-level operations: lookup, resolution, DDL regeneration."""

import pytest

from repro.errors import (
    SchemaError,
    UnknownEntityTypeError,
    UnknownOrderingError,
    UnknownRelationshipError,
)


class TestLookups:
    def test_unknown_entity(self, schema):
        with pytest.raises(UnknownEntityTypeError):
            schema.entity_type("X")

    def test_unknown_relationship(self, schema):
        with pytest.raises(UnknownRelationshipError):
            schema.relationship("X")

    def test_unknown_ordering(self, schema):
        with pytest.raises(UnknownOrderingError):
            schema.ordering("X")

    def test_duplicate_definitions(self, schema):
        """An identical define binds to the stored one; a different one
        under the same name is refused."""
        a = schema.define_entity("A", [("x", "integer")])
        assert schema.define_entity("A", [("x", "integer")]) is a
        with pytest.raises(SchemaError):
            schema.define_entity("A", [("x", "string")])
        schema.define_entity("B", [("x", "integer")])
        o = schema.define_ordering("o", ["A"], under="B")
        assert schema.define_ordering("o", ["A"], under="B") is o
        with pytest.raises(SchemaError):
            schema.define_ordering("o", ["B"], under="A")

    def test_a_define_binds_to_its_type_grown_by_add_attribute(self, schema):
        """``add_attribute`` appends, so the define a program re-declares
        on every open still binds; one that differs is refused."""
        a = schema.define_entity("A", [("x", "integer")])
        a.add_attribute(("y", "string"))
        assert schema.define_entity("A", [("x", "integer")]) is a
        assert schema.define_entity("A", [("x", "integer"), ("y", "string")]) is a
        with pytest.raises(SchemaError):
            schema.define_entity("A", [("y", "string")])
        with pytest.raises(SchemaError):
            schema.define_entity("A", [("x", "integer"), ("z", "string")])


class TestOrderingResolution:
    """How a before-clause with no 'in order_name' resolves (section 5.6)."""

    def test_unique_by_child(self, schema):
        schema.define_entity("NOTE", [("n", "integer")])
        schema.define_entity("CHORD", [("n", "integer")])
        ordering = schema.define_ordering("nic", ["NOTE"], under="CHORD")
        assert schema.resolve_ordering(child_type="NOTE") is ordering

    def test_ambiguous_needs_name(self, schema):
        schema.define_entity("NOTE", [("n", "integer")])
        schema.define_entity("CHORD", [("n", "integer")])
        schema.define_entity("STAFF", [("n", "integer")])
        schema.define_ordering("a", ["NOTE"], under="CHORD")
        schema.define_ordering("b", ["NOTE"], under="STAFF")
        with pytest.raises(UnknownOrderingError):
            schema.resolve_ordering(child_type="NOTE")
        resolved = schema.resolve_ordering(child_type="NOTE", parent_type="STAFF")
        assert resolved.name == "b"

    def test_no_match(self, schema):
        schema.define_entity("NOTE", [("n", "integer")])
        with pytest.raises(UnknownOrderingError):
            schema.resolve_ordering(child_type="NOTE")

    def test_orderings_with(self, schema):
        schema.define_entity("NOTE", [("n", "integer")])
        schema.define_entity("CHORD", [("n", "integer")])
        schema.define_ordering("nic", ["NOTE"], under="CHORD")
        assert len(schema.orderings_with_parent("CHORD")) == 1
        assert len(schema.orderings_with_child("NOTE")) == 1
        assert schema.orderings_with_parent("NOTE") == []


class TestWholeSchema:
    def test_ddl_regeneration(self, schema):
        schema.define_entity("DATE", [("year", "integer")])
        schema.define_entity(
            "COMPOSITION", [("title", "string"), ("composition_date", "DATE")]
        )
        schema.define_entity("PERSON", [("name", "string")])
        schema.define_relationship(
            "COMPOSER", [("composer", "PERSON"), ("composition", "COMPOSITION")]
        )
        schema.define_ordering("x", ["COMPOSITION"], under="PERSON")
        ddl = schema.ddl()
        assert "define entity COMPOSITION (title = string, composition_date = DATE)" in ddl
        assert "define relationship COMPOSER (composer = PERSON, composition = COMPOSITION)" in ddl
        assert "define ordering x (COMPOSITION) under PERSON" in ddl

    def test_ddl_parses_back(self, schema):
        from repro.core.schema import Schema
        from repro.ddl.compiler import execute_ddl

        schema.define_entity("A", [("x", "integer")])
        schema.define_entity("B", [("y", "string")])
        schema.define_ordering("o", ["A"], under="B")
        rebuilt = execute_ddl(schema.ddl(), Schema("again"))
        assert rebuilt.ddl() == schema.ddl()

    def test_statistics(self, chord_schema):
        """The counts take in section 6's meta-schema, whose rows are
        entity instances like any other."""
        schema, _, _, _ = chord_schema
        meta = schema.meta
        stats = schema.statistics()
        assert stats["entity_types"] == 2 + 4
        assert stats["orderings"] == 1 + 2
        assert stats["instances"] == 5 + sum(
            table.count() for table in (
                meta.entity_table, meta.relationship_table,
                meta.attribute_table, meta.ordering_table,
            )
        )
        assert stats["ordering_edges"] == 4 + sum(
            ordering.table_size()
            for ordering in (meta.entity_attributes, meta.relationship_attributes)
        )

    def test_check_invariants_clean(self, chord_schema):
        schema, _, _, _ = chord_schema
        schema.check_invariants()
