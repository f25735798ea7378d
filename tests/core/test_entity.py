"""Entity types and instances."""

import pytest

from repro.errors import (
    IntegrityError,
    SchemaError,
    UnknownAttributeError,
)


class TestDefinition:
    def test_define_and_create(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        instance = note.create(name=1)
        assert instance["name"] == 1
        assert instance.type is note

    def test_duplicate_attribute(self, schema):
        with pytest.raises(SchemaError):
            schema.define_entity("X", [("a", "integer"), ("a", "string")])

    def test_reserved_attribute_name(self, schema):
        with pytest.raises(SchemaError):
            schema.define_entity("X", [("_surrogate", "integer")])

    def test_unknown_attribute_access(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        instance = note.create(name=1)
        with pytest.raises(UnknownAttributeError):
            instance["nope"]

    def test_add_attribute_evolution(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        old = note.create(name=1)
        note.add_attribute(("velocity", "integer"))
        new = note.create(name=2, velocity=80)
        assert old["velocity"] is None
        assert new["velocity"] == 80

    def test_add_duplicate_attribute(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        with pytest.raises(SchemaError):
            note.add_attribute(("name", "string"))


class TestSurrogates:
    def test_unique_across_types(self, schema):
        a = schema.define_entity("A", [("x", "integer")])
        b = schema.define_entity("B", [("x", "integer")])
        surrogates = [a.create(x=i).surrogate for i in range(3)]
        surrogates += [b.create(x=i).surrogate for i in range(3)]
        assert len(set(surrogates)) == 6

    def test_instance_resolution(self, schema):
        a = schema.define_entity("A", [("x", "integer")])
        created = a.create(x=42)
        resolved = schema.instance(created.surrogate, ["A"])
        assert resolved == created
        assert resolved["x"] == 42

    def test_resolution_after_delete(self, schema):
        a = schema.define_entity("A", [("x", "integer")])
        created = a.create(x=1)
        created.delete()
        with pytest.raises(IntegrityError):
            schema.instance(created.surrogate, ["A"])


class TestEntityValuedAttributes:
    def test_reference_and_dereference(self, schema):
        schema.define_entity("DATE", [("year", "integer")])
        comp = schema.define_entity(
            "COMPOSITION", [("title", "string"), ("composition_date", "DATE")]
        )
        date = schema.entity_type("DATE").create(year=1814)
        piece = comp.create(title="Anthem", composition_date=date)
        assert piece.dereference("composition_date") == date
        assert piece["composition_date"] == date.surrogate

    def test_type_mismatch_rejected(self, schema):
        schema.define_entity("DATE", [("year", "integer")])
        schema.define_entity("PLACE", [("name", "string")])
        comp = schema.define_entity(
            "COMPOSITION", [("composition_date", "DATE")]
        )
        place = schema.entity_type("PLACE").create(name="Weimar")
        with pytest.raises(IntegrityError):
            comp.create(composition_date=place)

    def test_dereference_scalar_rejected(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        instance = note.create(name=1)
        with pytest.raises(IntegrityError):
            instance.dereference("name")

    def test_null_reference(self, schema):
        schema.define_entity("DATE", [("year", "integer")])
        comp = schema.define_entity("COMPOSITION", [("composition_date", "DATE")])
        piece = comp.create()
        assert piece.dereference("composition_date") is None


class TestInstanceOps:
    def test_set(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        instance = note.create(name=1)
        instance.set(name=5)
        assert instance["name"] == 5

    def test_find(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer"), ("octave", "integer")])
        for i in range(6):
            note.create(name=i % 2, octave=4)
        assert len(note.find(name=1)) == 3
        assert len(note.find(name=1, octave=4)) == 3
        assert note.find(name=9) == []

    def test_find_one(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        note.create(name=1)
        note.create(name=2)
        assert note.find_one(name=2)["name"] == 2
        with pytest.raises(IntegrityError):
            note.find_one(name=9)

    def test_instances_in_surrogate_order(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        created = [note.create(name=i) for i in range(5)]
        assert note.instances() == created

    def test_as_dict(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer"), ("p", "string")])
        instance = note.create(name=1, p="x")
        assert instance.as_dict() == {"name": 1, "p": "x"}

    def test_equality_by_surrogate(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        created = note.create(name=1)
        again = schema.instance(created.surrogate, ["NOTE"])
        assert created == again
        assert hash(created) == hash(again)

    def test_deleted_access_raises(self, schema):
        note = schema.define_entity("NOTE", [("name", "integer")])
        instance = note.create(name=1)
        instance.delete()
        assert not instance.exists()
        with pytest.raises(IntegrityError):
            instance["name"]
