"""Attribute definitions for entity and relationship types.

An attribute has a name and a domain.  Following the paper's DDL, the
domain may be a scalar (``integer``, ``string``, ...) or the name of an
entity type, in which case the attribute holds an entity reference --
this is how "1 to n" relationships are "represented implicitly as an
attribute" (section 5.1, the COMPOSITION_DATE example).
"""

from repro.errors import SchemaError
from repro.storage.values import Domain

#: The scalar domains, as DDL spells them; any other domain name is an
#: entity type.
SCALAR_NAMES = frozenset(d.value for d in Domain if d is not Domain.ENTITY)


class AttributeDef:
    """One attribute of an entity or relationship type.

    *domain* is a :class:`~repro.storage.values.Domain`; when it is
    ``Domain.ENTITY``, *target_type* names the referenced entity type.
    """

    __slots__ = ("name", "domain", "target_type")

    def __init__(self, name, domain, target_type=None):
        if not name or not isinstance(name, str):
            raise SchemaError("attribute name must be a non-empty string")
        if isinstance(domain, str):
            lowered = domain.lower()
            if lowered in SCALAR_NAMES:
                domain = Domain(lowered)
            elif domain == "entity":
                # The exact lowercase keyword: an explicit entity domain
                # with the target supplied separately.  (Upper-case
                # "ENTITY" remains an entity-type reference -- it names
                # the section 6 meta type.)
                domain = Domain.ENTITY
            else:
                # An unknown domain name is an entity-type reference.
                target_type = domain
                domain = Domain.ENTITY
        if domain is Domain.ENTITY and not target_type:
            raise SchemaError(
                "entity-valued attribute %r needs a target entity type" % name
            )
        if domain is not Domain.ENTITY and target_type is not None:
            raise SchemaError(
                "scalar attribute %r cannot have a target type" % name
            )
        self.name = name
        self.domain = domain
        self.target_type = target_type

    @property
    def is_entity_valued(self):
        return self.domain is Domain.ENTITY

    def domain_name(self):
        """The domain as written in DDL source."""
        if self.is_entity_valued:
            return self.target_type
        return self.domain.value

    def __repr__(self):
        return "AttributeDef(%r, %s)" % (self.name, self.domain_name())

    def __eq__(self, other):
        if not isinstance(other, AttributeDef):
            return NotImplemented
        return (
            self.name == other.name
            and self.domain is other.domain
            and self.target_type == other.target_type
        )

    def __hash__(self):
        return hash((self.name, self.domain, self.target_type))


def parse_attribute_spec(spec):
    """Normalize an attribute spec into an AttributeDef.

    Accepts an AttributeDef, a ``(name, domain)`` pair, or a
    ``(name, 'entity', target)`` triple.
    """
    if isinstance(spec, AttributeDef):
        return spec
    if isinstance(spec, (tuple, list)):
        if len(spec) == 2:
            return AttributeDef(spec[0], spec[1])
        if len(spec) == 3:
            return AttributeDef(spec[0], spec[1], spec[2])
    raise SchemaError("bad attribute spec %r" % (spec,))
