"""Rows held by their table's column layout, and the row run.

A table's rows share one :class:`Layout`, column name -> position, and
a :class:`Row` is a rowid and a tuple of values over it.  A layout only
grows: a column added to a table takes the next position, so a row made
before it, whose tuple is shorter, reads that column as null.

A *row run* is the one binary form of rows: the body of a checkpoint
image's pieces (on disk and as a replica's seed) and of a log commit's
runs of rows to install.  It is written column-major, each column typed
by its domain (``repro.storage.values``).  Little-endian; ``n:v`` is an
unsigned LEB128 count::

    run     := <count:v> <width:v> ints(count) column*   rowids, then width columns
    column  := <nulls:B> [bitmap] values      nulls 1: count bits, a set bit a null
    ints(n) := <code:B> [<base:q>] n unsigned ints of 1 << (code & 3) bytes,
                                              each plus base if code & 4
    values  := ints(k)                        integer, entity (k: rows not null)
             | <d>*k                          float
             | <B>*k                          boolean
             | ints(k) ints(k)                rational: numerators, denominators
             | ints(k) bytes                  blob: lengths, then the bytes
             | <n:v> ints(n) <size:v> utf8 [ints(k)]
                                              string: the n distinct values'
                                              character lengths, their UTF-8,
                                              then a code per row unless n == k
"""

import struct
from fractions import Fraction
from itertools import accumulate, chain, repeat, zip_longest

from repro.errors import RecoveryError, StorageError
from repro.storage.values import Domain


class Layout(dict):
    """A table's column -> position map, shared by every row it holds.
    Append-only: :meth:`add_column` gives a new name the next position."""

    __slots__ = ()

    def add_column(self, name):
        if name not in self:
            self[name] = len(self)


class Row:
    """An immutable tuple of column values with a stable identity.

    ``rowid`` is assigned by the owning table and is the physical handle
    used by indexes, the log, and entity surrogates.  *values* is a tuple
    in *layout* order; it may be shorter than the layout, whose later
    columns the row then reads as null.
    """

    __slots__ = ("rowid", "values", "_layout")

    def __init__(self, rowid, values, layout):
        self.rowid = rowid
        self.values = values
        self._layout = layout

    def __getitem__(self, column):
        try:
            return self.values[self._layout[column]]
        except IndexError:  # a column added after the row was made
            return None

    def get(self, column, default=None):
        position = self._layout.get(column)
        if position is None:
            return default
        values = self.values
        return values[position] if position < len(values) else None

    def __contains__(self, column):
        return column in self._layout

    def columns(self):
        return list(self._layout)

    def as_dict(self):
        """Return a mutable copy of the column -> value mapping."""
        return dict(zip_longest(self._layout, self.values))

    def replaced(self, updates):
        """Return a new Row with *updates* applied (same rowid)."""
        layout = self._layout
        values = list(self.values)
        values += [None] * (len(layout) - len(values))
        for column, value in updates.items():
            values[layout[column]] = value
        return Row(self.rowid, tuple(values), layout)

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        if self.rowid != other.rowid:
            return False
        if self._layout is other._layout and len(self.values) == len(other.values):
            return self.values == other.values
        return all(
            self.get(column) == other.get(column)
            for column in self._layout.keys() | other._layout.keys()
        )

    def __hash__(self):
        return hash(self.rowid)

    def __repr__(self):
        inner = ", ".join("%s=%r" % kv for kv in self.as_dict().items())
        return "Row(#%d, %s)" % (self.rowid, inner)


# -- the row run (module docstring) ---------------------------------------------

_BASE = struct.Struct("<q")
_FORMATS = "BHIQ"
#: The width code of a non-negative integer of each bit length.
_CODE = tuple((bits > 8) + (bits > 16) + (bits > 32) for bits in range(65))
#: One unsigned integer, and ints(1) without a base, by width code.
_VALUE = tuple(struct.Struct("<" + form) for form in _FORMATS)
_ONE = tuple(struct.Struct("<B" + form) for form in _FORMATS)
#: Null bitmap bytes (one per row, 0 or 1) as ASCII binary digits.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _put_count(out, n):
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def _put_ints(out, values):
    """ints(len(values)): the narrowest width that holds their range,
    offset by the least of them only when that saves bytes."""
    n = len(values)
    if n == 1 and values[0] >= 0:
        code = _CODE[values[0].bit_length()]
        out += _ONE[code].pack(code, values[0])
        return
    if not n:
        out.append(0)
        return
    low, high = min(values), max(values)
    code = _CODE[(high - low).bit_length()]
    plain = _CODE[high.bit_length()]
    if low >= 0 and n << plain <= (n << code) + _BASE.size:
        out.append(plain)
        out += struct.pack("<%d%s" % (n, _FORMATS[plain]), *values)
    else:
        out.append(code | 4)
        out += _BASE.pack(low)
        out += struct.pack(
            "<%d%s" % (n, _FORMATS[code]), *[value - low for value in values]
        )


def _put_strings(out, values):
    distinct = list(dict.fromkeys(values)) if len(values) > 1 else values
    _put_count(out, len(distinct))
    _put_ints(out, list(map(len, distinct)))
    data = "".join(distinct).encode("utf-8")
    _put_count(out, len(data))
    out += data
    if len(distinct) != len(values):
        code = {value: at for at, value in enumerate(distinct)}
        _put_ints(out, list(map(code.__getitem__, values)))


def _put_blobs(out, values):
    _put_ints(out, list(map(len, values)))
    out += b"".join(values)


def _put_rationals(out, values):
    _put_ints(out, [value.numerator for value in values])
    _put_ints(out, [value.denominator for value in values])


def _put_floats(out, values):
    out += struct.pack("<%dd" % len(values), *values)


_PUT = {
    Domain.INTEGER: _put_ints,
    Domain.ENTITY: _put_ints,
    Domain.FLOAT: _put_floats,
    Domain.BOOLEAN: lambda out, values: out.extend(bytes(values)),
    Domain.RATIONAL: _put_rationals,
    Domain.BLOB: _put_blobs,
    Domain.STRING: _put_strings,
}


def encode_row_run(rows, schema, out):
    """Append the run of *rows* (a sequence of Rows over
    ``schema.layout``) to the bytearray *out*, a column of
    ``schema.columns`` after another."""
    layout = schema.layout
    width = len(layout)
    rowids, tuples = [], []
    for row in rows:
        if row._layout is not layout:
            raise StorageError("a row of another layout in a run of %r" % schema.name)
        values = row.values
        if len(values) != width:
            values += (None,) * (width - len(values))
        rowids.append(row.rowid)
        tuples.append(values)
    by_position = list(zip(*tuples)) if tuples else [()] * width
    _put_count(out, len(tuples))
    _put_count(out, len(schema.columns))
    _put_ints(out, rowids)
    for column in schema.columns:
        values = by_position[layout[column.name]]
        if None in values:
            flags = bytes([value is None for value in values])
            out.append(1)
            out += int(flags.translate(_DIGITS)[::-1], 2).to_bytes(
                (len(values) + 7) // 8, "little"
            )
            values = [value for value in values if value is not None]
        else:
            out.append(0)
        _PUT[column.domain](out, values)


class _Reader:
    """A cursor over a run.  Every count is checked against the bytes
    present before anything is allocated for it; a read past the end
    raises :class:`RecoveryError`, or ``IndexError`` for one byte, which
    :func:`decode_row_run` refuses the same way."""

    __slots__ = ("buf", "at")

    def __init__(self, buf):
        self.buf = buf
        self.at = 0

    def take(self, size):
        at = self.at
        self.at = end = at + size
        if end > len(self.buf):
            raise RecoveryError(
                "row run truncated: needs %d bytes, has %d" % (end, len(self.buf))
            )
        return self.buf[at:end]

    def byte(self):
        at = self.at
        self.at = at + 1
        return self.buf[at]

    def count(self):
        n = self.byte()
        if n < 0x80:
            return n
        n, shift = n & 0x7F, 7
        while True:
            byte = self.byte()
            n |= (byte & 0x7F) << shift
            if byte < 0x80:
                return n
            shift += 7
            if shift > 63:
                raise RecoveryError("malformed row run: count overflows")

    def ints(self, n):
        buf, at = self.buf, self.at
        code = buf[at]
        if code > 7:
            raise RecoveryError("malformed row run: integer code %d" % code)
        width = code & 3
        start = at + 1 + _BASE.size * (code >> 2)
        self.at = end = start + (n << width)
        if end > len(buf):
            raise RecoveryError(
                "row run truncated: needs %d bytes, has %d" % (end, len(buf))
            )
        values = (
            _VALUE[width].unpack_from(buf, start) if n == 1
            else struct.unpack_from("<%d%s" % (n, _FORMATS[width]), buf, start)
        )
        if code & 4:
            (base,) = _BASE.unpack_from(buf, at + 1)
            return [base + value for value in values]
        return values

    def floats(self, n):
        return struct.unpack("<%dd" % n, self.take(8 * n))

    def booleans(self, n):
        return list(map(bool, self.take(n)))

    def rationals(self, n):
        return list(map(Fraction, self.ints(n), self.ints(n)))

    def blobs(self, n):
        lengths = self.ints(n)
        if n and min(lengths) < 0:
            raise RecoveryError("malformed row run: a negative blob length")
        data = self.take(sum(lengths))
        ends = list(accumulate(lengths))
        return [bytes(data[start:end]) for start, end in zip(chain((0,), ends), ends)]

    def strings(self, n):
        distinct = self.count()
        lengths = self.ints(distinct)
        text = str(self.take(self.count()), "utf-8")
        if sum(lengths) != len(text) or (distinct and min(lengths) < 0):
            raise RecoveryError("malformed row run: string lengths do not add up")
        if distinct == 1:
            values = [text]
        else:
            ends = list(accumulate(lengths))
            values = [text[start:end] for start, end in zip(chain((0,), ends), ends)]
        if distinct == n:
            return values
        codes = self.ints(n)
        if codes and (min(codes) < 0 or max(codes) >= distinct):
            raise RecoveryError("malformed row run: a string code past its values")
        return list(map(values.__getitem__, codes))


_GET = {
    Domain.INTEGER: _Reader.ints,
    Domain.ENTITY: _Reader.ints,
    Domain.FLOAT: _Reader.floats,
    Domain.BOOLEAN: _Reader.booleans,
    Domain.RATIONAL: _Reader.rationals,
    Domain.BLOB: _Reader.blobs,
    Domain.STRING: _Reader.strings,
}


def decode_row_run(buf, schema):
    """The Rows of the run that is all of *buf*, over ``schema.layout``.

    Every carrier of a run is input from outside the process (a file a
    crash may have cut, a peer's frame), so a run that ends early, runs
    on past its last column or says anything malformed raises
    :class:`RecoveryError` -- never the error of whichever field ran off
    the end.
    """
    try:
        return _decode(_Reader(buf), schema)
    except (struct.error, ValueError, ZeroDivisionError, IndexError) as error:
        raise RecoveryError("malformed row run: %s" % error)


def _decode(reader, schema):
    count = reader.count()
    columns = schema.columns
    width = reader.count()
    if width != len(columns):
        raise RecoveryError(
            "row run has %d columns, table %r %d" % (width, schema.name, len(columns))
        )
    rowids = reader.ints(count)
    layout = schema.layout
    by_position = [repeat(None, count) for _ in layout]
    for column in columns:
        nulls = reader.byte()
        if nulls > 1:
            raise RecoveryError("malformed row run: null flag %d" % nulls)
        if nulls:
            bits = reader.take((count + 7) // 8)
            bits = format(int.from_bytes(bits, "little"), "0%db" % count)[::-1][:count]
            present = iter(_GET[column.domain](reader, bits.count("0")))
            values = [None if bit == "1" else next(present) for bit in bits]
        else:
            values = _GET[column.domain](reader, count)
        by_position[layout[column.name]] = values
    if reader.at != len(reader.buf):
        raise RecoveryError(
            "malformed row run: %d bytes past its last column"
            % (len(reader.buf) - reader.at)
        )
    new = Row.__new__
    rows = []
    for rowid, values in zip(rowids, zip(*by_position) if layout else repeat((), count)):
        row = new(Row)
        row.rowid = rowid
        row.values = values
        row._layout = layout
        rows.append(row)
    return rows
