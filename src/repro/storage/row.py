"""Row representation and a compact binary serialization.

Rows are immutable mappings from column name to value.  The binary form
is used by the pager (fixed-size pages) and by the write-ahead log.
A *row run* -- a count followed by that many serialized rows -- is the
one body format shared by checkpoint table images, ``BATCH_INSERT`` log
records and ``REPL_ROWS`` seed frames.
"""

import struct
from fractions import Fraction

from repro.errors import RecoveryError, StorageError

# Serialization tags, one byte each.
_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_STR = 3
_TAG_BOOL = 4
_TAG_RATIONAL = 5
_TAG_BLOB = 6


def _pack_value(value, out):
    if value is None:
        out.append(struct.pack("<B", _TAG_NULL))
    elif isinstance(value, bool):
        out.append(struct.pack("<BB", _TAG_BOOL, 1 if value else 0))
    elif isinstance(value, int):
        out.append(struct.pack("<Bq", _TAG_INT, value))
    elif isinstance(value, float):
        out.append(struct.pack("<Bd", _TAG_FLOAT, value))
    elif isinstance(value, Fraction):
        out.append(struct.pack("<Bqq", _TAG_RATIONAL, value.numerator, value.denominator))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(struct.pack("<BI", _TAG_STR, len(data)))
        out.append(data)
    elif isinstance(value, (bytes, bytearray)):
        out.append(struct.pack("<BI", _TAG_BLOB, len(value)))
        out.append(bytes(value))
    else:
        raise StorageError("unserializable value %r" % (value,))


_ROW_HEAD = struct.Struct("<qH")
_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_RATIONAL = struct.Struct("<qq")
_LENGTH = struct.Struct("<I")
_RUN_COUNT = struct.Struct("<I")


def _decode_rows(buf, column_order, offset, count):
    """The one row decoder: *count* serialized rows at *offset* of
    *buf* as a list of Rows, and the offset past them.  Open spends
    more time here than anywhere once its indexes load, hence the shape:
    the tag read as a byte, precompiled structs, the commonest tags
    first, and the Row filled in without ``__init__``'s copy of a dict
    nobody else holds.  Raises whatever the malformed field raises;
    :func:`decode_row_run` translates."""
    head, integer, length_of = (
        _ROW_HEAD.unpack_from, _INT.unpack_from, _LENGTH.unpack_from
    )
    width = len(column_order)
    new = Row.__new__
    rows = []
    for _ in range(count):
        rowid, fields = head(buf, offset)
        offset += 10
        if fields != width:
            raise StorageError(
                "row has %d fields but schema expects %d" % (fields, width)
            )
        values = {}
        for column in column_order:
            tag = buf[offset]
            offset += 1
            if tag == _TAG_STR:
                (length,) = length_of(buf, offset)
                offset += 4
                values[column] = str(buf[offset:offset + length], "utf-8")
                offset += length
            elif tag == _TAG_INT:
                (values[column],) = integer(buf, offset)
                offset += 8
            elif tag == _TAG_NULL:
                values[column] = None
            elif tag == _TAG_BOOL:
                values[column] = bool(buf[offset])
                offset += 1
            elif tag == _TAG_FLOAT:
                (values[column],) = _FLOAT.unpack_from(buf, offset)
                offset += 8
            elif tag == _TAG_RATIONAL:
                values[column] = Fraction(*_RATIONAL.unpack_from(buf, offset))
                offset += 16
            elif tag == _TAG_BLOB:
                (length,) = length_of(buf, offset)
                offset += 4
                values[column] = bytes(buf[offset:offset + length])
                offset += length
            else:
                raise StorageError("corrupt row: unknown tag %d" % tag)
        row = new(Row)
        row.rowid = rowid
        row._values = values
        rows.append(row)
    return rows, offset


class Row:
    """An immutable named tuple of column values with a stable identity.

    ``rowid`` is assigned by the owning table and is the physical handle
    used by indexes, the log, and entity surrogates.
    """

    __slots__ = ("rowid", "_values")

    def __init__(self, rowid, values):
        self.rowid = rowid
        self._values = dict(values)

    def __getitem__(self, column):
        return self._values[column]

    def get(self, column, default=None):
        return self._values.get(column, default)

    def __contains__(self, column):
        return column in self._values

    def columns(self):
        return list(self._values.keys())

    def as_dict(self):
        """Return a mutable copy of the column -> value mapping."""
        return dict(self._values)

    def replaced(self, updates):
        """Return a new Row with *updates* applied (same rowid)."""
        merged = dict(self._values)
        merged.update(updates)
        return Row(self.rowid, merged)

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        return self.rowid == other.rowid and self._values == other._values

    def __hash__(self):
        return hash(self.rowid)

    def __repr__(self):
        inner = ", ".join("%s=%r" % kv for kv in self._values.items())
        return "Row(#%d, %s)" % (self.rowid, inner)

    def serialize(self, column_order):
        """Serialize to bytes using *column_order* for field positions."""
        out = [struct.pack("<qH", self.rowid, len(column_order))]
        for column in column_order:
            _pack_value(self._values.get(column), out)
        return b"".join(out)

    @classmethod
    def deserialize(cls, buf, column_order, offset=0):
        """Inverse of :meth:`serialize`; returns ``(row, next_offset)``."""
        (row,), offset = _decode_rows(buf, column_order, offset, 1)
        return row, offset


def encode_row_run(rows, column_order, counted=True):
    """Yield the run of *rows* (anything sized) piece by piece:
    ``<count:I>``, then each row's serialization.  *counted* False
    leaves the prefix out, for a carrier (``REPL_ROWS``) whose own
    header holds the count."""
    if counted:
        yield _RUN_COUNT.pack(len(rows))
    for row in rows:
        yield row.serialize(column_order)


def decode_row_run(buf, column_order, offset=0, count=None):
    """Decode the row run at *offset* of *buf* into a list of Rows.

    *count* None reads the ``<count:I>`` prefix.  Every carrier of a
    run is input from outside the process (a file a crash may have
    cut, a peer's frame), so a run that ends before its count is met
    or holds a malformed row raises :class:`RecoveryError` here --
    never the ``struct.error`` of whichever field ran off the end.
    """
    try:
        if count is None:
            (count,) = _RUN_COUNT.unpack_from(buf, offset)
            offset += _RUN_COUNT.size
        rows, offset = _decode_rows(buf, column_order, offset, count)
    except (
        struct.error, ValueError, ZeroDivisionError, StorageError, IndexError,
    ) as error:
        raise RecoveryError("malformed row run: %s" % error)
    # A string field slices without complaint past the end of the
    # buffer; only the running offset shows the run was cut there.
    if offset > len(buf):
        raise RecoveryError(
            "row run truncated: needs %d bytes, has %d" % (offset, len(buf))
        )
    return rows
