"""Property tests: the meta-catalog is a lossless copy of random schemas.

Random HO schemas -- recursive, multi-parent and inhomogeneous
orderings, entity-valued attributes, relationships with value
attributes, a many side, and roles typed by section 6's own meta types
-- are defined (each define writing its meta rows) and then looked at
through two lenses: the schema rebuilt from the stored rows alone is
the schema (``reconstruct(stored(s)) == s``), and so is the one the
regenerated DDL program defines (``execute_ddl(s.ddl()) == s``).
"""

from hypothesis import given, settings, strategies as st

from repro.core.schema import Schema
from repro.ddl.compiler import execute_ddl

_TYPE_NAMES = ["ALPHA", "BETA", "GAMMA", "DELTA"]
_DOMAINS = ["integer", "string", "float", "boolean", "rational"]

#: An attribute's domain: a scalar, or (an index into the schema's
#: types) an entity-valued reference.
domains = st.one_of(st.sampled_from(_DOMAINS), st.integers(0, 3))

attribute_lists = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), domains),
    max_size=4,
    unique_by=lambda pair: pair[0],
)

schema_descriptions = st.tuples(
    # entity type name -> attribute list
    st.dictionaries(
        st.sampled_from(_TYPE_NAMES), attribute_lists, min_size=1, max_size=4
    ),
    # orderings: (child type indexes, parent type index); a child list
    # of two is inhomogeneous, a parent among the children recursive,
    # and a child type under two parents multi-parent
    st.lists(
        st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=2),
                  st.integers(0, 3)),
        max_size=4,
    ),
    # relationships: (role type indexes -- 4 and 5 are the meta types
    # ENTITY and ATTRIBUTE --, value attributes, many-side role index)
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 5), min_size=2, max_size=3),
            st.lists(st.sampled_from(_DOMAINS), max_size=2),
            st.one_of(st.none(), st.integers(0, 2)),
        ),
        max_size=3,
    ),
)


def build_schema(description):
    entities, ordering_specs, relationship_specs = description
    schema = Schema("prop")
    names = sorted(entities)
    pick = lambda index: names[index % len(names)]  # noqa: E731
    for name in names:
        schema.define_entity(name, [
            (attribute, domain if isinstance(domain, str) else pick(domain))
            for attribute, domain in entities[name]
        ])
    for index, (children, parent) in enumerate(ordering_specs):
        schema.define_ordering(
            "o%d" % index, sorted({pick(c) for c in children}), under=pick(parent)
        )
    for index, (roles, values, many) in enumerate(relationship_specs):
        role_types = [
            ("ENTITY", "ATTRIBUTE")[r - 4] if r >= 4 else pick(r) for r in roles
        ]
        schema.define_relationship(
            "R%d" % index,
            [("role%d" % i, t) for i, t in enumerate(role_types)],
            [("value%d" % i, d) for i, d in enumerate(values)],
            many_role=None if many is None or many >= len(roles)
            else "role%d" % many,
        )
    return schema


@settings(max_examples=50, deadline=None)
@given(schema_descriptions)
def test_catalog_reconstruction_round_trip(description):
    """The rows alone say the schema, in definition order: a Schema
    opened over them, and one defined afresh from them elsewhere."""
    schema = build_schema(description)
    assert Schema("again", database=schema.database).definitions() \
        == schema.definitions()
    assert schema.meta.reconstruct().definitions() == schema.definitions()
    assert schema.meta.reconstruct().ddl() == schema.ddl()


@settings(max_examples=30, deadline=None)
@given(schema_descriptions)
def test_ddl_lens_defines_the_same_schema(description):
    """``execute_ddl(s.ddl())`` defines *s* again -- relationship
    attributes and roles typed by meta types included -- up to the one
    thing DDL has no spelling for, a relationship's many side."""
    schema = build_schema(description)
    rebuilt = execute_ddl(schema.ddl(), Schema("ddl"))

    def spelled(definitions):
        return sorted(
            d[:4] + (None,) if d[0] == "relationship" else d
            for d in definitions
        )

    assert spelled(rebuilt.definitions()) == spelled(schema.definitions())


@settings(max_examples=30, deadline=None)
@given(schema_descriptions)
def test_catalog_rows_are_written_once(description):
    """Re-running every definition binds to the stored one: not a row
    is written, and each type's rows are catalogued exactly once."""
    schema = build_schema(description)
    meta = schema.meta
    before = schema.instance_count()
    for definition in schema.definitions():
        schema.define(definition)
    assert schema.instance_count() == before
    assert sorted(meta.catalogued_entities()) == sorted(schema.entity_types)
    assert sorted(meta.catalogued_orderings()) == sorted(schema.orderings)


@settings(max_examples=30, deadline=None)
@given(schema_descriptions)
def test_ddl_parse_unparse_fixed_point(description):
    schema = build_schema(description)
    ddl = schema.ddl()
    rebuilt = execute_ddl(ddl, Schema("again"))
    assert rebuilt.ddl() == ddl
