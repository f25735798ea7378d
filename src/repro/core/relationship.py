"""Relationship types: "m to n" and "1 to n" relationships (section 5.1).

A relationship type names a set of *roles*, each bound to an entity
type, optionally with additional value attributes.  Instances are rows
in a backing table holding the surrogates of the participants.

Cardinality: an ``m:n`` relationship (the default, like COMPOSER) allows
any number of instances per participant; a ``1:n`` relationship declares
one role as the "many" side, on which at most one instance may exist --
though the paper notes 1:n relationships are usually folded into an
entity-valued attribute instead.
"""

from repro.errors import IntegrityError, SchemaError, UnknownAttributeError
from repro.core.attributes import parse_attribute_spec
from repro.core.entity import EntityInstance
from repro.storage.values import Domain


class RelationshipType:
    """A named relationship among entity types."""

    kind = "relationship"

    def __init__(self, schema, name, role_specs, attribute_specs=(), many_role=None):
        self.schema = schema
        self.name = name
        self.roles = []  # (role_name, entity_type_name)
        for role_name, type_name in role_specs:
            if not schema.has_entity_type(type_name):
                raise SchemaError(
                    "relationship %r references unknown entity type %r"
                    % (name, type_name)
                )
            self.roles.append((role_name, type_name))
        if len(self.roles) < 2:
            raise SchemaError("relationship %r needs at least two roles" % name)
        role_names = [r for r, _ in self.roles]
        if len(set(role_names)) != len(role_names):
            raise SchemaError("duplicate role in relationship %r" % name)
        self.attributes = [parse_attribute_spec(s) for s in attribute_specs]
        if any(a.is_entity_valued for a in self.attributes):
            raise SchemaError("relationship %r: an entity-typed clause is a role" % name)
        if many_role is not None and many_role not in role_names:
            raise SchemaError(
                "relationship %r has no role %r to mark as the many-side"
                % (name, many_role)
            )
        self.many_role = many_role  # None => m:n
        columns = [(role, Domain.ENTITY) for role, _ in self.roles]
        columns.extend((a.name, a.domain) for a in self.attributes)
        self.table = schema.database.create_or_bind_table("rel:%s" % name, columns)
        for role, _ in self.roles:
            self.table.create_index(role)

    def definition(self):
        """What this relationship's define says (``MetaCatalog`` form)."""
        return ("relationship", self.name, list(self.roles),
                [(a.name, a.domain_name()) for a in self.attributes], self.many_role)

    @property
    def cardinality(self):
        """``"m:n"`` or ``"1:n"`` per the paper's two relationship forms."""
        return "m:n" if self.many_role is None else "1:n"

    def role_type(self, role_name):
        for role, type_name in self.roles:
            if role == role_name:
                return type_name
        raise UnknownAttributeError(
            "relationship %r has no role %r" % (self.name, role_name)
        )

    # -- instances ---------------------------------------------------------------

    def _surrogate_for(self, role_name, participant):
        expected = self.role_type(role_name)
        if isinstance(participant, EntityInstance):
            if participant.type.name != expected:
                raise IntegrityError(
                    "role %s.%s expects a %s, got a %s"
                    % (self.name, role_name, expected, participant.type.name)
                )
            return participant.surrogate
        if isinstance(participant, int):
            return participant
        raise IntegrityError("bad participant %r for role %r" % (participant, role_name))

    def relate(self, _attributes=None, **participants):
        """Create a relationship instance.

        Role participants are passed as keyword arguments; extra value
        attributes via the *_attributes* dict.
        """
        values = {}
        for role, _ in self.roles:
            if role not in participants:
                raise IntegrityError(
                    "relationship %r requires role %r" % (self.name, role)
                )
            values[role] = self._surrogate_for(role, participants.pop(role))
        if participants:
            raise IntegrityError(
                "unknown role(s) %s for relationship %r"
                % (sorted(participants), self.name)
            )
        if self.many_role is not None:
            existing = self.table.select_eq(self.many_role, values[self.many_role])
            if existing:
                raise IntegrityError(
                    "1:n relationship %r already relates %s#%d"
                    % (self.name, self.role_type(self.many_role), values[self.many_role])
                )
        for attribute in self.attributes:
            values[attribute.name] = (_attributes or {}).get(attribute.name)
        row = self.table.insert(values)
        return row.rowid

    def unrelate(self, **participants):
        """Delete every instance matching the given role participants."""
        criteria = {
            role: self._surrogate_for(role, value)
            for role, value in participants.items()
        }
        removed = 0
        for row in list(self.table):
            if all(row[role] == surrogate for role, surrogate in criteria.items()):
                self.table.delete(row.rowid)
                removed += 1
        return removed

    def instances(self):
        """All relationship instances as role -> EntityInstance dicts."""
        out = []
        for row in self.table:
            out.append(self._materialize(row))
        return out

    def _materialize(self, row):
        record = {}
        for role, type_name in self.roles:
            record[role] = self.schema.instance(row[role], [type_name])
        for attribute in self.attributes:
            record[attribute.name] = row.get(attribute.name)
        return record

    def related(self, role_name, participant, fetch_role=None):
        """Instances related to *participant* through *role_name*.

        Returns the full role dicts, or just the *fetch_role* instances
        when given.
        """
        surrogate = self._surrogate_for(role_name, participant)
        out = []
        for row in self.table.select_eq(role_name, surrogate):
            record = self._materialize(row)
            out.append(record[fetch_role] if fetch_role else record)
        return out

    def rows_holding(self, role, surrogate):
        """The relationship instances whose *role* is *surrogate*."""
        return self.table.select_eq(role, surrogate)

    def count(self):
        return len(self.table)

    def __repr__(self):
        return "RelationshipType(%r, %s, roles=%r)" % (
            self.name,
            self.cardinality,
            [r for r, _ in self.roles],
        )
