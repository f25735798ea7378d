"""Property battery: the meta-catalog is a lossless copy of random schemas.

Random HO schemas -- recursive, multi-parent and inhomogeneous
orderings, entity-valued attributes, relationships with value
attributes, a many side, and roles typed by section 6's own meta types
-- are defined (each define writing its meta rows) and then looked at
through two lenses: the schema rebuilt from the stored rows alone is
the schema (``reconstruct(stored(s)) == s``), and so is the one the
regenerated DDL program defines (``execute_ddl(s.ddl()) == s``).

A schema is drawn from a seed: the smallest and the one-of-each
descriptions come first, random ones after them.
"""

import random

import pytest

from repro.core.schema import Schema
from repro.ddl.compiler import execute_ddl

pytestmark = pytest.mark.props

_TYPE_NAMES = ["ALPHA", "BETA", "GAMMA", "DELTA"]
_DOMAINS = ["integer", "string", "float", "boolean", "rational"]

# A description is (entities, orderings, relationships):
# * entities: 1-4 type names -> 0-4 (attribute, domain) pairs, a domain
#   a scalar or (an index into the schema's types) an entity reference;
# * orderings: 0-4 (child type indexes, parent type index); a child list
#   of two is inhomogeneous, a parent among the children recursive, and
#   a child type under two parents multi-parent;
# * relationships: 0-3 (2-3 role type indexes -- 4 and 5 are the meta
#   types ENTITY and ATTRIBUTE --, 0-2 value attribute domains,
#   many-side role index or None).
DESCRIPTION_EDGES = [
    ({"ALPHA": []}, [], []),
    ({"ALPHA": [("a", 0)]}, [([0], 0)], [([0, 4], ["integer"], 0)]),
]


def _domain(rng):
    return rng.choice(_DOMAINS) if rng.random() < 0.5 else rng.randrange(4)


def _description(seed):
    if seed < len(DESCRIPTION_EDGES):
        return DESCRIPTION_EDGES[seed]
    rng = random.Random(seed)
    entities = {
        name: [(attribute, _domain(rng)) for attribute in rng.sample("abcde", rng.randint(0, 4))]
        for name in rng.sample(_TYPE_NAMES, rng.randint(1, 4))
    }
    orderings = [
        ([rng.randrange(4) for _ in range(rng.randint(1, 2))], rng.randrange(4))
        for _ in range(rng.randint(0, 4))
    ]
    relationships = [
        (
            [rng.randrange(6) for _ in range(rng.randint(2, 3))],
            [rng.choice(_DOMAINS) for _ in range(rng.randint(0, 2))],
            None if rng.random() < 0.5 else rng.randrange(3),
        )
        for _ in range(rng.randint(0, 3))
    ]
    return entities, orderings, relationships


def build_schema(seed):
    entities, ordering_specs, relationship_specs = _description(seed)
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


@pytest.mark.parametrize("seed", range(50))
def test_catalog_reconstruction_round_trip(seed):
    """The rows alone say the schema, in definition order: a Schema
    opened over them, and one defined afresh from them elsewhere."""
    schema = build_schema(seed)
    assert Schema("again", database=schema.database).definitions() \
        == schema.definitions()
    assert schema.meta.reconstruct().definitions() == schema.definitions()
    assert schema.meta.reconstruct().ddl() == schema.ddl()


@pytest.mark.parametrize("seed", range(30))
def test_ddl_lens_defines_the_same_schema(seed):
    """``execute_ddl(s.ddl())`` defines *s* again -- relationship
    attributes and roles typed by meta types included -- up to the one
    thing DDL has no spelling for, a relationship's many side."""
    schema = build_schema(seed)
    rebuilt = execute_ddl(schema.ddl(), Schema("ddl"))

    def spelled(definitions):
        return sorted(
            d[:4] + (None,) if d[0] == "relationship" else d
            for d in definitions
        )

    assert spelled(rebuilt.definitions()) == spelled(schema.definitions())


@pytest.mark.parametrize("seed", range(30))
def test_catalog_rows_are_written_once(seed):
    """Re-running every definition binds to the stored one: not a row
    is written, and each type's rows are catalogued exactly once."""
    schema = build_schema(seed)
    meta = schema.meta
    before = schema.instance_count()
    for definition in schema.definitions():
        schema.define(definition)
    assert schema.instance_count() == before
    assert sorted(meta.catalogued_entities()) == sorted(schema.entity_types)
    assert sorted(meta.catalogued_orderings()) == sorted(schema.orderings)


@pytest.mark.parametrize("seed", range(30))
def test_ddl_parse_unparse_fixed_point(seed):
    schema = build_schema(seed)
    ddl = schema.ddl()
    rebuilt = execute_ddl(ddl, Schema("again"))
    assert rebuilt.ddl() == ddl
