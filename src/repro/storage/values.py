"""Typed values and domains for the relational substrate.

The paper's DDL declares attributes over a small set of domains
(``integer``, ``string``, entity references, ...).  This module defines
those domains, coercion into them, and a total sort order so ordered
indexes and sorted relations (section 5.2) behave deterministically.
"""

import enum
from fractions import Fraction

from repro.errors import TypeMismatchError


class Domain(enum.Enum):
    """Attribute domains supported by the data manager."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"
    RATIONAL = "rational"  # exact score-time arithmetic (section 7.2)
    ENTITY = "entity"  # surrogate reference to an entity instance
    BLOB = "blob"  # uninterpreted bytes (digitized sound, section 4.1)

    # A member is a singleton, equal only to itself: hash it by identity,
    # in C, not by name in Python as Enum does -- the row codec looks a
    # domain up for every column of every run.
    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name):
        """Return the domain named *name* (as written in DDL source)."""
        try:
            return cls(name.lower())
        except ValueError:
            raise TypeMismatchError("unknown domain %r" % name)


#: The integers every store holds: an ``integer`` or ``entity`` value and
#: each part of a ``rational`` one (``repro.storage.row`` packs them so).
_INT64 = range(-(1 << 63), 1 << 63)


def _int64(value, what):
    if value not in _INT64:
        raise TypeMismatchError("%s %r is outside the 64-bit range" % (what, value))
    return value


def coerce_value(domain, value):
    """Coerce *value* into *domain*, raising TypeMismatchError on failure.

    ``None`` is accepted in every domain (a null attribute value).  So
    is only what every store can hold -- in memory, on disk and on a
    replica alike: integers of 64 bits, strings that encode as
    UTF-8.
    """
    if value is None:
        return None
    if domain is Domain.INTEGER:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError("expected integer, got %r" % (value,))
        return _int64(value, "integer")
    if domain is Domain.FLOAT:
        if isinstance(value, bool):
            raise TypeMismatchError("expected float, got %r" % (value,))
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeMismatchError("expected float, got %r" % (value,))
    if domain is Domain.STRING:
        if not isinstance(value, str):
            raise TypeMismatchError("expected string, got %r" % (value,))
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as error:
                raise TypeMismatchError("string %r is not UTF-8: %s" % (value, error))
        return value
    if domain is Domain.BOOLEAN:
        if not isinstance(value, bool):
            raise TypeMismatchError("expected boolean, got %r" % (value,))
        return value
    if domain is Domain.RATIONAL:
        if isinstance(value, bool):
            raise TypeMismatchError("expected rational, got %r" % (value,))
        if isinstance(value, (int, Fraction)):
            value = Fraction(value)
            _int64(value.numerator, "numerator")
            _int64(value.denominator, "denominator")
            return value
        raise TypeMismatchError("expected rational, got %r" % (value,))
    if domain is Domain.ENTITY:
        if isinstance(value, int) and not isinstance(value, bool):
            return _int64(value, "surrogate")
        surrogate = getattr(value, "surrogate", None)
        if isinstance(surrogate, int):
            return _int64(surrogate, "surrogate")
        raise TypeMismatchError("expected entity reference, got %r" % (value,))
    if domain is Domain.BLOB:
        if isinstance(value, (bytes, bytearray)):
            return bytes(value)
        raise TypeMismatchError("expected blob, got %r" % (value,))
    raise TypeMismatchError("unknown domain %r" % (domain,))


# Rank per type so heterogeneous columns (and nulls) still sort totally.
_TYPE_RANK = {
    type(None): 0,
    bool: 2,
    int: 2,
    float: 2,
    Fraction: 2,
    str: 3,
    bytes: 4,
}


def value_sort_key(value):
    """Return a key tuple giving a total order over all storable values.

    Nulls sort first; numerics sort together by numeric value, compared
    exactly (an integer past 2**53 is not its nearest float); strings
    and blobs sort within their own groups.  This is what lets a
    relation be "sorted ... by ascending key value" (section 5.2)
    regardless of domain.
    """
    cls = type(value)
    # The exact types nearly every key is, first, without the rank
    # look-up.  The same keys as below.
    if cls is str:
        return (3, value)
    if cls is int or cls is float:
        return (2, value)
    rank = _TYPE_RANK.get(cls)
    if rank is None:
        raise TypeMismatchError("unsortable value %r" % (value,))
    if value is None:
        return (0, 0)
    return (rank, value)
