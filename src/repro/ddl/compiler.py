"""Compile DDL ASTs into live schema objects."""

from repro.errors import SchemaError
from repro.core.schema import Schema
from repro.ddl.ast import (
    DefineEntity,
    DefineOrdering,
    DefineRelationship,
    DefineTextIndex,
)
from repro.core.attributes import SCALAR_NAMES
from repro.ddl.parser import parse_ddl


def compile_ddl(statements, schema):
    """Apply parsed *statements* to *schema*; returns the created objects.

    Entities are created first so relationships and orderings can
    resolve entity-type references regardless of statement order within
    each statement class; orderings referencing not-yet-defined entities
    remain an error, as in the paper's DDL.
    """
    created = []
    for statement in statements:
        if isinstance(statement, DefineEntity):
            specs = [(a.name, a.domain_name) for a in statement.attributes]
            created.append(schema.define_entity(statement.name, specs))
        elif isinstance(statement, DefineRelationship):
            roles = []
            attributes = []
            for clause in statement.attributes:
                if schema.has_entity_type(clause.domain_name):
                    roles.append((clause.name, clause.domain_name))
                elif clause.domain_name.lower() in SCALAR_NAMES:
                    attributes.append((clause.name, clause.domain_name.lower()))
                else:
                    raise SchemaError(
                        "relationship %s: %r is neither a known entity type "
                        "nor a scalar domain" % (statement.name, clause.domain_name)
                    )
            created.append(
                schema.define_relationship(statement.name, roles, attributes)
            )
        elif isinstance(statement, DefineOrdering):
            created.append(
                schema.define_ordering(
                    statement.name, statement.child_types, under=statement.parent_type
                )
            )
        elif isinstance(statement, DefineTextIndex):
            if schema.has_entity_type(statement.type_name):
                table = schema.entity_type(statement.type_name).table
            elif statement.type_name in schema.relationships:
                table = schema.relationships[statement.type_name].table
            else:
                raise SchemaError(
                    "text index on unknown type %r" % statement.type_name
                )
            created.append(
                schema.database.create_text_index(
                    table.name, statement.attribute
                )
            )
        else:
            raise SchemaError("unknown DDL statement %r" % (statement,))
    return created


def execute_ddl(source, schema=None):
    """Parse and compile a DDL program; returns the schema."""
    if schema is None:
        schema = Schema()
    compile_ddl(parse_ddl(source), schema)
    return schema
