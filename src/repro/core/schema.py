"""The Schema: named collections of entity types, relationships, and
orderings, backed by one relational database.

This is the object a ``define entity`` / ``define relationship`` /
``define ordering`` program (section 5.4) compiles into, and the root of
the public data-model API.  Its definitions are stored only as section
6's meta rows (:mod:`repro.core.catalog`) in its own database.
"""

import contextlib
import itertools

from repro.errors import (
    IntegrityError,
    SchemaError,
    UnknownEntityTypeError,
    UnknownOrderingError,
    UnknownRelationshipError,
)
from repro.core.attributes import parse_attribute_spec
from repro.core.catalog import META_DEFINITIONS, META_ENTITY, META_NAMES, MetaCatalog
from repro.core.entity import SURROGATE_COLUMN, EntityType
from repro.core.ordering import Ordering, default_ordering_name
from repro.core.relationship import RelationshipType
from repro.storage.database import Database

#: A definition's kind -> the Schema attribute holding its objects, their class.
_KINDS = {
    "entity": ("entity_types", EntityType),
    "relationship": ("relationships", RelationshipType),
    "ordering": ("orderings", Ordering),
}


def _spelled(spec):
    """An attribute spec as its catalog row spells it."""
    attribute = parse_attribute_spec(spec)
    return attribute.name, attribute.domain_name()


class Schema:
    """A database schema in the paper's extended ER model.

    Over a database holding meta rows it is what they say (:meth:`load`);
    over any other it starts as the meta-schema, catalogued in one commit.
    """

    def __init__(self, name="schema", database=None):
        self.name = name
        self.database = database if database is not None else Database()
        self.entity_types = {}
        self.relationships = {}
        self.orderings = {}
        stored = self.stored_in(self.database)
        with contextlib.nullcontext() if stored else self.database.ddl():
            for definition in META_DEFINITIONS:
                self._register(definition[0], self._build(definition))
            self.meta = MetaCatalog(self)
            self.meta.entity_table.table.create_index("entity_name")
            if stored:
                self.load()
            self._surrogates = itertools.count(self._top_surrogate() + 1)
            if not stored:
                for definition in META_DEFINITIONS:
                    self.meta.record(definition)

    @staticmethod
    def stored_in(database):
        """Whether *database* holds a schema's meta rows."""
        return database.has_table(EntityType.table_name(META_ENTITY))

    # -- definition ------------------------------------------------------------

    def define_entity(self, name, attribute_specs=()):
        """``define entity NAME (attr = domain, ...)``"""
        return self.define(("entity", name, [_spelled(s) for s in attribute_specs]))

    def define_relationship(self, name, role_specs, attribute_specs=(), many_role=None):
        """``define relationship NAME (role = TYPE, ...)``"""
        return self.define((
            "relationship", name, [tuple(r) for r in role_specs],
            [_spelled(s) for s in attribute_specs], many_role,
        ))

    def define_ordering(self, name, child_types, under):
        """``define ordering [NAME] (CHILD, ...) under PARENT``

        Passing ``name=None`` generates the default name, as the DDL
        allows the order_name to be omitted.
        """
        if name is None:
            name = default_ordering_name(child_types, under)
        return self.define(("ordering", name, list(child_types), under))

    def define(self, definition):
        """Define *definition* (:class:`MetaCatalog`'s tuple form) in one
        DDL commit -- its table and its meta rows, or, failed, neither --
        or bind to an equal stored one; a different one is refused.  An
        entity binds to a stored one with attributes appended, since
        ``add_attribute`` only appends."""
        kind, name = definition[:2]
        existing = getattr(self, _KINDS[kind][0]).get(name)
        if existing is not None:
            stored = existing.definition()
            grown = kind == "entity" and stored[2][:len(definition[2])] == definition[2]
            if stored != definition and not grown:
                raise SchemaError("%s %r already defined as %r" % (kind, name, stored))
            return existing
        with self.database.ddl():
            created = self._build(definition)
            self.meta.record(created.definition())
        self._register(kind, created)
        return created

    def load(self):
        """Adopt the stored definitions and added attributes this schema
        lacks (at open, and on a replica after each schema change)."""
        for definition in self.meta.definitions():
            kind, name = definition[:2]
            existing = getattr(self, _KINDS[kind][0]).get(name)
            if existing is None:
                self._register(kind, self._build(definition))
            elif kind == "entity" and len(definition[2]) > len(existing.attributes):
                existing.attributes = existing.attributes + [
                    parse_attribute_spec(spec)
                    for spec in definition[2][len(existing.attributes):]
                ]

    def _build(self, definition):
        """The object *definition* says, over its table (bound, or
        created by this DDL commit)."""
        return _KINDS[definition[0]][1](self, *definition[1:])

    def _register(self, kind, created):
        # A fresh dict, not an insert: a reader iterating the old one (a
        # replica's load runs beside its readers) never sees it change.
        attribute = _KINDS[kind][0]
        setattr(self, attribute, {**getattr(self, attribute), created.name: created})

    def definitions(self):
        """What every define of this schema said, entities first."""
        return [
            created.definition()
            for attribute, _ in _KINDS.values()
            for created in getattr(self, attribute).values()
        ]

    # -- lookup ---------------------------------------------------------------

    def entity_type(self, name):
        try:
            return self.entity_types[name]
        except KeyError:
            raise UnknownEntityTypeError("no entity type %r in schema %r" % (name, self.name))

    def has_entity_type(self, name):
        return name in self.entity_types

    def relationship(self, name):
        try:
            return self.relationships[name]
        except KeyError:
            raise UnknownRelationshipError(
                "no relationship %r in schema %r" % (name, self.name)
            )

    def ordering(self, name):
        try:
            return self.orderings[name]
        except KeyError:
            raise UnknownOrderingError("no ordering %r in schema %r" % (name, self.name))

    def resolve_ordering(self, child_type=None, parent_type=None):
        """Find the unique ordering matching the given type constraints.

        This is how a ``before``/``after``/``under`` clause with no
        ``in order_name`` is resolved from its range-variable types.
        """
        candidates = []
        for ordering in self.orderings.values():
            if child_type is not None and child_type not in ordering.child_types:
                continue
            if parent_type is not None and ordering.parent_type != parent_type:
                continue
            candidates.append(ordering)
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise UnknownOrderingError(
                "no ordering with child %r / parent %r" % (child_type, parent_type)
            )
        raise UnknownOrderingError(
            "ambiguous ordering (child %r / parent %r): %s"
            % (child_type, parent_type, ", ".join(sorted(o.name for o in candidates)))
        )

    def orderings_with_parent(self, parent_type):
        return [o for o in self.orderings.values() if o.parent_type == parent_type]

    def orderings_with_child(self, child_type):
        return [o for o in self.orderings.values() if child_type in o.child_types]

    def holders(self, type_name):
        """Where an instance of *type_name* can be held, as ``(holder,
        place)`` pairs: ``(ordering, "child")`` and ``(ordering,
        "parent")`` for each ordering admitting the type there,
        ``(relationship, role)`` for each role it types.  Membership
        rows are type-checked on the way in, so nothing else can hold
        one; ``holder.rows_holding(place, surrogate)`` says what does."""
        return (
            [(o, "child") for o in self.orderings_with_child(type_name)]
            + [(o, "parent") for o in self.orderings_with_parent(type_name)]
            + [
                (r, role) for r in self.relationships.values()
                for role, role_type in r.roles if role_type == type_name
            ]
        )

    # -- surrogates ----------------------------------------------------------------

    def next_surrogate(self):
        return next(self._surrogates)

    def _top_surrogate(self):
        """The largest surrogate any entity table holds (0: none)."""
        indexes = [
            entity.table.index_for(SURROGATE_COLUMN)
            for entity in self.entity_types.values()
        ]
        keys = [index.max_key() for index in indexes]
        return max((key for key in keys if key is not None), default=0)

    def instance(self, surrogate, type_names):
        """Resolve a surrogate to an instance of one of the entity types
        *type_names*, each looked up through its own surrogate index."""
        for name in type_names:
            found = self.entity_types[name].get(surrogate)
            if found is not None:
                return found
        raise IntegrityError("no instance with surrogate %d" % surrogate)

    def instance_count(self):
        return sum(entity.count() for entity in self.entity_types.values())

    def assert_unreferenced(self, instance):
        """Raise if *instance* still participates in orderings/relationships."""
        for holder, place in self.holders(instance.type.name):
            if holder.rows_holding(place, instance.surrogate):
                raise IntegrityError(
                    "%r still participates in %s %r"
                    % (instance, holder.kind, holder.name)
                )

    # -- whole-schema operations ----------------------------------------------------

    def check_invariants(self):
        """Run every ordering's invariant check."""
        for ordering in self.orderings.values():
            ordering.check_invariants()

    def validate_references(self):
        """Dangling entity-valued attribute targets, as messages.

        Forward references are legal while a DDL program is being
        loaded; run this afterwards to confirm every target resolved.
        """
        problems = []
        for type_name in sorted(self.entity_types):
            for attribute in self.entity_types[type_name].attributes:
                if attribute.is_entity_valued and not self.has_entity_type(
                    attribute.target_type
                ):
                    problems.append(
                        "%s.%s references undefined entity type %s"
                        % (type_name, attribute.name, attribute.target_type)
                    )
        return problems

    def ddl(self):
        """Regenerate the DDL program defining this schema (the
        meta-schema every schema starts from is left out)."""
        lines = []
        for kind, name, *clauses in sorted(
            self.definitions(), key=lambda d: (list(_KINDS).index(d[0]), d[1])
        ):
            if name in META_NAMES:
                continue
            if kind == "ordering":
                lines.append(self.orderings[name].ddl())
            else:  # an entity's attributes; a relationship's roles, then attributes
                lines.append("define %s %s (%s)" % (kind, name, ", ".join(
                    "%s = %s" % clause for clause in itertools.chain(*clauses[:2])
                )))
        return "\n".join(lines)

    def statistics(self):
        """Instance and membership counts, for reports and tests."""
        return {
            "entity_types": len(self.entity_types),
            "relationships": len(self.relationships),
            "orderings": len(self.orderings),
            "instances": self.instance_count(),
            "ordering_edges": sum(
                o.table_size() for o in self.orderings.values()
            ),
            "relationship_rows": sum(
                r.count() for r in self.relationships.values()
            ),
        }

    def __repr__(self):
        return "Schema(%r: %d entities, %d relationships, %d orderings)" % (
            self.name,
            len(self.entity_types),
            len(self.relationships),
            len(self.orderings),
        )
