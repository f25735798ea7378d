"""m:n and 1:n relationships."""

import pytest

from repro.errors import IntegrityError, SchemaError


@pytest.fixture
def composer_schema(schema):
    schema.define_entity("PERSON", [("name", "string")])
    schema.define_entity("COMPOSITION", [("title", "string")])
    rel = schema.define_relationship(
        "COMPOSER",
        [("composer", "PERSON"), ("composition", "COMPOSITION")],
    )
    return schema, rel


class TestDefinition:
    def test_unknown_role_type(self, schema):
        schema.define_entity("A", [("x", "integer")])
        with pytest.raises(SchemaError):
            schema.define_relationship("R", [("a", "A"), ("b", "NOPE")])

    def test_needs_two_roles(self, schema):
        schema.define_entity("A", [("x", "integer")])
        with pytest.raises(SchemaError):
            schema.define_relationship("R", [("a", "A")])

    def test_duplicate_roles(self, schema):
        schema.define_entity("A", [("x", "integer")])
        with pytest.raises(SchemaError):
            schema.define_relationship("R", [("a", "A"), ("a", "A")])

    def test_cardinality_labels(self, composer_schema):
        schema, rel = composer_schema
        assert rel.cardinality == "m:n"
        one_n = schema.define_relationship(
            "PREMIERE",
            [("composition", "COMPOSITION"), ("person", "PERSON")],
            many_role="composition",
        )
        assert one_n.cardinality == "1:n"


class TestInstances:
    def test_m_to_n(self, composer_schema):
        schema, rel = composer_schema
        alice = schema.entity_type("PERSON").create(name="Alice")
        bob = schema.entity_type("PERSON").create(name="Bob")
        piece = schema.entity_type("COMPOSITION").create(title="Duet")
        rel.relate(composer=alice, composition=piece)
        rel.relate(composer=bob, composition=piece)
        composers = rel.related("composition", piece, fetch_role="composer")
        assert {c["name"] for c in composers} == {"Alice", "Bob"}

    def test_missing_role(self, composer_schema):
        schema, rel = composer_schema
        alice = schema.entity_type("PERSON").create(name="Alice")
        with pytest.raises(IntegrityError):
            rel.relate(composer=alice)

    def test_wrong_type_participant(self, composer_schema):
        schema, rel = composer_schema
        piece = schema.entity_type("COMPOSITION").create(title="Solo")
        with pytest.raises(IntegrityError):
            rel.relate(composer=piece, composition=piece)

    def test_one_to_n_enforced(self, composer_schema):
        schema, _ = composer_schema
        premiere = schema.define_relationship(
            "PREMIERE",
            [("composition", "COMPOSITION"), ("person", "PERSON")],
            many_role="composition",
        )
        piece = schema.entity_type("COMPOSITION").create(title="Solo")
        alice = schema.entity_type("PERSON").create(name="Alice")
        bob = schema.entity_type("PERSON").create(name="Bob")
        premiere.relate(composition=piece, person=alice)
        with pytest.raises(IntegrityError):
            premiere.relate(composition=piece, person=bob)

    def test_value_attributes(self, schema):
        schema.define_entity("A", [("x", "integer")])
        schema.define_entity("B", [("x", "integer")])
        rel = schema.define_relationship(
            "R", [("a", "A"), ("b", "B")], [("weight", "integer")]
        )
        a = schema.entity_type("A").create(x=1)
        b = schema.entity_type("B").create(x=2)
        rel.relate(_attributes={"weight": 7}, a=a, b=b)
        record = rel.instances()[0]
        assert record["weight"] == 7
        assert record["a"] == a

    def test_unrelate(self, composer_schema):
        schema, rel = composer_schema
        alice = schema.entity_type("PERSON").create(name="Alice")
        piece = schema.entity_type("COMPOSITION").create(title="Solo")
        rel.relate(composer=alice, composition=piece)
        assert rel.unrelate(composer=alice) == 1
        assert rel.count() == 0

    def test_references(self, composer_schema):
        schema, rel = composer_schema
        alice = schema.entity_type("PERSON").create(name="Alice")
        piece = schema.entity_type("COMPOSITION").create(title="Solo")
        assert not rel.rows_holding("composer", alice.surrogate)
        rel.relate(composer=alice, composition=piece)
        assert rel.rows_holding("composer", alice.surrogate)
        assert rel.rows_holding("composition", piece.surrogate)
        assert not rel.rows_holding("composer", piece.surrogate)

    def test_delete_blocked_while_related(self, composer_schema):
        schema, rel = composer_schema
        alice = schema.entity_type("PERSON").create(name="Alice")
        piece = schema.entity_type("COMPOSITION").create(title="Solo")
        rel.relate(composer=alice, composition=piece)
        with pytest.raises(IntegrityError):
            alice.delete()
        rel.unrelate(composer=alice)
        alice.delete()
