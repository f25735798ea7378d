"""Blurring the schema/data distinction (section 6).

The schema itself is stored as ordered entities in the database, using
the meta-schema of section 6.1:

    define entity ENTITY (entity_name = string)
    define entity RELATIONSHIP (relationship_name = string, many_role = string)
    define entity ATTRIBUTE (attribute_name = string, attribute_type = string)
    define entity ORDERING (order_name = string, order_parent = ENTITY)
    define ordering entity_attributes (ATTRIBUTE) under ENTITY
    define ordering relationship_attributes (ATTRIBUTE) under RELATIONSHIP
    define relationship order_child (child = ENTITY, ordering = ORDERING)

The catalog lives *inside the same schema it describes*, so the meta
types catalogue themselves -- the "blur" the paper's title for section 6
refers to.  These rows are the schema's only copy: every ``define`` and
``add_attribute`` appends its rows in the commit that creates or widens
its table, and a Schema over them is rebuilt from them.

The lowering is lossless: ``many_role``, which the paper's RELATIONSHIP
lacks, holds a 1:n relationship's many side (null is m:n), and a
relationship's ATTRIBUTE rows are its roles then its attributes, told
apart as the DDL tells them: a scalar domain names an attribute.
"""

from repro.core.attributes import SCALAR_NAMES
from repro.core.entity import SURROGATE_COLUMN

META_ENTITY = "ENTITY"
META_RELATIONSHIP = "RELATIONSHIP"
META_ATTRIBUTE = "ATTRIBUTE"
META_ORDERING = "ORDERING"
ENTITY_ATTRIBUTES = "entity_attributes"
RELATIONSHIP_ATTRIBUTES = "relationship_attributes"
ORDER_CHILD = "order_child"

#: The meta-schema above, as the definitions a new schema starts from.
META_DEFINITIONS = [
    ("entity", META_ENTITY, [("entity_name", "string")]),
    ("entity", META_RELATIONSHIP,
     [("relationship_name", "string"), ("many_role", "string")]),
    ("entity", META_ATTRIBUTE,
     [("attribute_name", "string"), ("attribute_type", "string")]),
    ("entity", META_ORDERING,
     [("order_name", "string"), ("order_parent", META_ENTITY)]),
    ("ordering", ENTITY_ATTRIBUTES, [META_ATTRIBUTE], META_ENTITY),
    ("ordering", RELATIONSHIP_ATTRIBUTES, [META_ATTRIBUTE], META_RELATIONSHIP),
    ("relationship", ORDER_CHILD,
     [("child", META_ENTITY), ("ordering", META_ORDERING)], [], None),
]

#: Names of the meta-schema's types, relationship and orderings.
META_NAMES = frozenset(definition[1] for definition in META_DEFINITIONS)


class MetaCatalog:
    """Schema-as-data catalog for one :class:`~repro.core.schema.Schema`:
    writes a definition's rows and reads them back.

    A *definition* is what one ``define`` statement says, as a tuple:
    ``("entity", name, [(attribute, domain name), ...])``,
    ``("relationship", name, roles, attributes, many_role)`` or
    ``("ordering", name, [child type, ...], parent type)``.
    """

    def __init__(self, schema):
        """Over *schema*, which holds the meta-schema's objects already."""
        self.schema = schema
        self.entity_table, self.relationship_table, self.attribute_table, \
            self.ordering_table = map(schema.entity_type, (
                META_ENTITY, META_RELATIONSHIP, META_ATTRIBUTE, META_ORDERING
            ))
        self.entity_attributes = schema.ordering(ENTITY_ATTRIBUTES)
        self.relationship_attributes = schema.ordering(RELATIONSHIP_ATTRIBUTES)
        self.order_child = schema.relationship(ORDER_CHILD)

    # -- writing: one definition's rows, inside its DDL commit -------------------

    def record(self, definition):
        """Append the rows that say *definition*."""
        kind, name = definition[:2]
        if kind == "entity":
            record = self.entity_table.create(entity_name=name)
            self.record_attributes(record, definition[2])
        elif kind == "relationship":
            roles, attributes, many_role = definition[2:]
            record = self.relationship_table.create(
                relationship_name=name, many_role=many_role
            )
            self.record_attributes(record, roles + attributes)
        else:
            children, parent = definition[2:]
            record = self.ordering_table.create(
                order_name=name, order_parent=self.entity_record(parent)
            )
            for child in children:
                self.order_child.relate(
                    child=self.entity_record(child), ordering=record
                )

    def record_attributes(self, owner, attributes):
        """An ATTRIBUTE row per ``(name, type name)`` of *attributes*,
        ordered last under *owner* (an ENTITY or a RELATIONSHIP record)."""
        ordering = (
            self.entity_attributes if owner.type.name == META_ENTITY
            else self.relationship_attributes
        )
        ordering.extend(owner, [
            self.attribute_table.create(
                attribute_name=attribute_name, attribute_type=type_name
            )
            for attribute_name, type_name in attributes
        ])

    # -- reading: the definitions the rows say, in the order they were made ------

    def definitions(self):
        """Every catalogued definition: the entities, then the
        relationships, then the orderings, each in catalogue order --
        the order they can be defined in again."""
        out = []
        for record in self.entity_table.instances():
            out.append(("entity", record["entity_name"], [
                (a["attribute_name"], a["attribute_type"])
                for a in self.entity_attributes.children(record)
            ]))
        for record in self.relationship_table.instances():
            roles, attributes = [], []
            for a in self.relationship_attributes.children(record):
                pair = (a["attribute_name"], a["attribute_type"])
                scalar = a["attribute_type"].lower() in SCALAR_NAMES
                (attributes if scalar else roles).append(pair)
            out.append(("relationship", record["relationship_name"], roles,
                        attributes, record["many_role"]))
        for record in self.ordering_table.instances():
            out.append(("ordering", record["order_name"], [
                c["entity_name"] for c in self.order_child.related(
                    "ordering", record, fetch_role="child"
                )
            ], record.dereference("order_parent")["entity_name"]))
        return out

    # -- lookups (the "class variable" access pattern of section 6) ---------------

    def entity_record(self, entity_name):
        (row,) = self.entity_table.table.select_eq("entity_name", entity_name)
        return self.entity_table.get(row[SURROGATE_COLUMN])

    def relationship_record(self, relationship_name):
        return self.relationship_table.find_one(relationship_name=relationship_name)

    def ordering_record(self, order_name):
        return self.ordering_table.find_one(order_name=order_name)

    def attributes_of_entity(self, entity_name):
        """The ordered ATTRIBUTE instances catalogued under an entity."""
        record = self.entity_record(entity_name)
        return self.entity_attributes.children(record)

    def attributes_of_relationship(self, relationship_name):
        record = self.relationship_record(relationship_name)
        return self.relationship_attributes.children(record)

    def children_of_ordering(self, order_name):
        """ENTITY records for the child types of an ordering."""
        record = self.ordering_record(order_name)
        return self.order_child.related("ordering", record, fetch_role="child")

    def parent_of_ordering(self, order_name):
        record = self.ordering_record(order_name)
        return record.dereference("order_parent")

    def catalogued_entities(self):
        return [r["entity_name"] for r in self.entity_table.instances()]

    def catalogued_orderings(self):
        return [r["order_name"] for r in self.ordering_table.instances()]

    # -- round trip -----------------------------------------------------------------

    def reconstruct(self, name="reconstructed", database=None):
        """A fresh Schema defined from the catalogued rows alone (over
        *database*, a new in-memory one by default): the proof that the
        rows are a complete description of the schema."""
        from repro.core.schema import Schema

        rebuilt = Schema(name, database=database)
        for definition in self.definitions():
            rebuilt.define(definition)
        return rebuilt
