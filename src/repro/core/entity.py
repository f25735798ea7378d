"""Entity types and entity instances.

An :class:`EntityType` owns a relational table whose rows are its
instances.  Every instance carries a *surrogate*: an identity unique
across the whole schema (the RM/T-style surrogate the paper builds on),
which is what relationships, orderings, and entity-valued attributes
reference.
"""

from repro.errors import IntegrityError, SchemaError, UnknownAttributeError
from repro.core.attributes import parse_attribute_spec
from repro.storage.values import Domain

#: Reserved column carrying the schema-wide surrogate on every entity table.
SURROGATE_COLUMN = "_surrogate"


class EntityType:
    """A named entity type with typed attributes (section 5.1).

    Created through :meth:`repro.core.schema.Schema.define_entity`; not
    intended to be constructed directly.
    """

    def __init__(self, schema, name, attribute_specs):
        self.schema = schema
        self.name = name
        self.attributes = [parse_attribute_spec(s) for s in attribute_specs]
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute in entity %r" % name)
        if SURROGATE_COLUMN in names:
            raise SchemaError("%r is a reserved attribute name" % SURROGATE_COLUMN)
        columns = [(SURROGATE_COLUMN, Domain.INTEGER)]
        columns.extend((a.name, a.domain) for a in self.attributes)
        # A stored type (reopen, replica) binds to its recovered rows.
        self.table = schema.database.create_or_bind_table(self.table_name(name), columns)
        self.table.create_index(SURROGATE_COLUMN)

    @staticmethod
    def table_name(name):
        """The storage table holding the instances of type *name*."""
        return "entity:%s" % name

    def definition(self):
        """What this type's define says (``MetaCatalog`` form)."""
        return ("entity", self.name, [(a.name, a.domain_name()) for a in self.attributes])

    # -- introspection -------------------------------------------------------

    def attribute(self, name):
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise UnknownAttributeError(
            "entity %r has no attribute %r" % (self.name, name)
        )

    def has_attribute(self, name):
        return any(a.name == name for a in self.attributes)

    def attribute_names(self):
        return [a.name for a in self.attributes]

    def add_attribute(self, spec):
        """Extend the type with a new attribute (schema evolution): the
        table widens and the ATTRIBUTE row is appended in one DDL commit.
        Existing instances read the new attribute as null."""
        attribute = parse_attribute_spec(spec)
        if self.has_attribute(attribute.name):
            raise SchemaError(
                "entity %r already has attribute %r" % (self.name, attribute.name)
            )
        database, meta = self.schema.database, self.schema.meta
        with database.ddl():
            database.add_column(self.table.name, attribute.name, attribute.domain)
            meta.record_attributes(meta.entity_record(self.name), [
                (attribute.name, attribute.domain_name())
            ])
        self.attributes = self.attributes + [attribute]
        return attribute

    # -- instances -----------------------------------------------------------

    def create(self, **values):
        """Create an instance; returns an :class:`EntityInstance`."""
        coerced = self._coerce_values(values)
        surrogate = self.schema.next_surrogate()
        coerced[SURROGATE_COLUMN] = surrogate
        row = self.table.insert(coerced)
        return EntityInstance(self, surrogate, row.rowid)

    def _coerce_values(self, values):
        coerced = {}
        for name, value in values.items():
            attribute = self.attribute(name)
            if attribute.is_entity_valued and isinstance(value, EntityInstance):
                expected = attribute.target_type
                if value.type.name != expected:
                    raise IntegrityError(
                        "attribute %s.%s expects a %s, got a %s"
                        % (self.name, name, expected, value.type.name)
                    )
                value = value.surrogate
            coerced[name] = value
        return coerced

    def instances(self):
        """All instances, in surrogate order."""
        rows = self.table.sorted_by(SURROGATE_COLUMN)
        return [EntityInstance(self, row[SURROGATE_COLUMN], row.rowid) for row in rows]

    def count(self):
        return len(self.table)

    def get(self, surrogate):
        """The instance with *surrogate*, or None."""
        rows = self.table.select_eq(SURROGATE_COLUMN, surrogate)
        if not rows:
            return None
        return EntityInstance(self, surrogate, rows[0].rowid)

    def find(self, **criteria):
        """Instances whose attributes equal all of *criteria*."""
        coerced = self._coerce_values(criteria)
        out = []
        for row in self.table:
            if all(row.get(k) == v for k, v in coerced.items()):
                out.append(EntityInstance(self, row[SURROGATE_COLUMN], row.rowid))
        out.sort(key=lambda inst: inst.surrogate)
        return out

    def find_one(self, **criteria):
        """The unique instance matching *criteria* (raises otherwise)."""
        matches = self.find(**criteria)
        if len(matches) != 1:
            raise IntegrityError(
                "%d instances of %r match %r" % (len(matches), self.name, criteria)
            )
        return matches[0]

    def __repr__(self):
        return "EntityType(%r, %d attributes)" % (self.name, len(self.attributes))


class EntityInstance:
    """A handle on one entity instance (type + surrogate + rowid).

    Attribute access reads through to the backing table, so handles are
    always current -- except a handle bound by a statement
    (:class:`BoundInstance`), which reads the row that statement saw.
    Two handles are equal iff their surrogates match.
    """

    __slots__ = ("type", "surrogate", "rowid")

    def __init__(self, entity_type, surrogate, rowid):
        self.type = entity_type
        self.surrogate = surrogate
        self.rowid = rowid

    def _row(self):
        row = self.type.table.get(self.rowid)
        if row is None:
            raise IntegrityError(
                "instance %s#%d has been deleted" % (self.type.name, self.surrogate)
            )
        return row

    def exists(self):
        return self.type.table.get(self.rowid) is not None

    def __getitem__(self, attribute_name):
        self.type.attribute(attribute_name)  # validates the name
        return self._row().get(attribute_name)

    def get(self, attribute_name, default=None):
        if not self.type.has_attribute(attribute_name):
            return default
        value = self._row().get(attribute_name)
        return default if value is None else value

    def dereference(self, attribute_name):
        """Follow an entity-valued attribute; returns an instance or None."""
        attribute = self.type.attribute(attribute_name)
        if not attribute.is_entity_valued:
            raise IntegrityError(
                "attribute %s.%s is not entity-valued" % (self.type.name, attribute_name)
            )
        surrogate = self._row().get(attribute_name)
        if surrogate is None:
            return None
        return self.type.schema.instance(surrogate, [attribute.target_type])

    def set(self, **updates):
        """Update attribute values in place."""
        coerced = self.type._coerce_values(updates)
        self.type.table.update(self.rowid, coerced)
        return self

    def as_dict(self):
        """Attribute name -> value (excluding the surrogate column)."""
        row = self._row()
        return {name: row.get(name) for name in self.type.attribute_names()}

    def delete(self):
        """Delete the instance (orderings/relationships must drop it first)."""
        self.type.schema.assert_unreferenced(self)
        self.type.table.delete(self.rowid)

    def __eq__(self, other):
        if not isinstance(other, EntityInstance):
            return NotImplemented
        return self.surrogate == other.surrogate

    def __hash__(self):
        return hash(self.surrogate)

    def __repr__(self):
        return "%s#%d" % (self.type.name, self.surrogate)


class BoundInstance(EntityInstance):
    """An instance as a statement's range variable binds it: attribute
    reads come from *row*, the version its candidate source fetched, so
    the statement reads each row once and sees it as it was when fetched
    (a ``replace`` reads no row an earlier match of it rewrote)."""

    __slots__ = ("row",)

    def __init__(self, entity_type, row):
        self.type = entity_type
        self.surrogate = row[SURROGATE_COLUMN]
        self.rowid = row.rowid
        self.row = row

    def _row(self):
        return self.row
