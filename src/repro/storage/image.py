"""The checkpoint image: the ledger and every table's committed rows at
one LSN.

``Database.image`` produces it.  A checkpoint publishes it as
``image.mdm`` through ``Database._write_atomic`` (temp file, fsync, the
rename that commits) and an open installs it before the log's redo; a
replica is seeded with it, a piece a frame, and installs it the same
way.  This module is the format; when an image is taken, and what its
LSN is to the log, is ``repro.storage.database``'s to decide.

Everything is little-endian; ``str`` is ``<bytes:H>`` and that many of
UTF-8::

    image  := <magic:7s> <format:B> <lsn:Q> <count:I> answer* table* <crc32:I>
    answer := <client:str> <seq:q> <result:q>   count of them
    table  := <name:str> <count:I> piece*       count rows, in pieces
    piece  := <size:I> run                      a row run of size bytes
                                                (repro.storage.row)

*lsn* is the log's last LSN when the rows were read: the image holds
every commit at or below it and none above.  An *answer* is one
client's entry in the exactly-once ledger (``Database.ledger``) at
*lsn*.  The storage catalog's table comes first; its rows make the
tables whose schemas decode the tables after it.  The CRC covers every
byte before it.  A file of another magic or format byte, or whose
checksum fails, is refused whole, never guessed at.  Neither
:func:`pack` nor :func:`unpack` holds more than a piece at a time: a
piece is :data:`PIECE_ROWS` rows.
"""

import os
import struct
import zlib

from repro.errors import RecoveryError
from repro.storage.row import decode_row_run, encode_row_run

__all__ = ["FORMAT", "pack", "unpack"]

FORMAT = 3
_MAGIC = b"MDM-IMG"

_HEAD = struct.Struct("<7sBQ")
_STR = struct.Struct("<H")
_COUNT = struct.Struct("<I")
_CRC = struct.Struct("<I")
_ANSWER = struct.Struct("<qq")
#: The rows a piece holds (the last of a table's, what is left).
PIECE_ROWS = 1024
#: The size the checksum pass reads in.
_CHUNK = 1 << 20


def pack(lsn, ledger, tables):
    """Yield the image naming *lsn* of *ledger* (client -> ``(seq,
    result)``) and *tables* -- ``(name, rows, schema)`` each, the
    catalog first -- a piece at a time: no table is ever encoded
    whole."""
    crc = 0
    for part in _parts(lsn, ledger, tables):
        crc = zlib.crc32(part, crc)
        yield part
    yield _CRC.pack(crc)


def _str(text):
    raw = text.encode("utf-8")
    return _STR.pack(len(raw)) + raw


def _parts(lsn, ledger, tables):
    head = bytearray(_HEAD.pack(_MAGIC, FORMAT, lsn))
    head += _COUNT.pack(len(ledger))
    for client, (seq, result) in sorted(ledger.items()):
        head += _str(client) + _ANSWER.pack(seq, result)
    yield head
    for name, rows, schema in tables:
        # One walk of a pinned table gives its count and its pieces
        # (iter() first: list() asks for a length hint, and a table's
        # len() is a walk of its own).
        rows = list(iter(rows))
        yield _str(name) + _COUNT.pack(len(rows))
        for start in range(0, len(rows), PIECE_ROWS):
            piece = rows[start:start + PIECE_ROWS]
            run = bytearray(_COUNT.size)
            encode_row_run(piece, schema, run)
            _COUNT.pack_into(run, 0, len(run) - _COUNT.size)
            yield run


def unpack(open_image, schema_of):
    """``(lsn, ledger, tables)`` of the image ``open_image()`` opens (a
    binary file, read in two passes): *ledger* maps client to ``(seq,
    result)``, read with the checksum; *tables* yields ``(name, rows)``
    in file order, decoding each table by ``schema_of(name)`` -- asked
    only once the tables before it are taken, so the catalog's rows can
    make the tables the later ones name.  Raises :class:`RecoveryError`
    naming the defect for anything but a whole image of this format,
    before any table is decoded."""
    with open_image() as handle:
        end = handle.seek(0, os.SEEK_END) - _CRC.size
        if end < _HEAD.size:
            raise RecoveryError("torn image: %d bytes" % (end + _CRC.size))
        handle.seek(0)
        crc, at = 0, 0
        while at < end:
            chunk = _read(handle, min(_CHUNK, end - at))
            if not at:
                magic, version, lsn = _HEAD.unpack_from(chunk)
                if magic != _MAGIC or version != FORMAT:
                    raise RecoveryError(
                        "not a format-%d image (it begins %r)" % (FORMAT, chunk[:8])
                    )
            crc = zlib.crc32(chunk, crc)
            at += len(chunk)
        if _CRC.unpack(_read(handle, _CRC.size))[0] != crc:
            raise RecoveryError("image checksum mismatch")
        handle.seek(_HEAD.size)
        body = _Body(handle, _HEAD.size, end)
        ledger = {}
        for _ in range(body.count("the ledger")):
            client = body.text("a ledger entry")
            answer = body.take(_ANSWER.size, "a ledger entry")
            ledger[client] = _ANSWER.unpack(answer)
    return lsn, ledger, _tables(open_image, body.at, end, schema_of)


def _read(handle, size):
    data = handle.read(size)
    if len(data) != size:
        raise RecoveryError("torn image: read %d bytes of %d" % (len(data), size))
    return data


class _Body:
    """Reads an image's body from offset *at*, never past *end*."""

    def __init__(self, handle, at, end):
        self.handle, self.at, self.end = handle, at, end

    def take(self, size, what):
        if self.at + size > self.end:
            raise RecoveryError(
                "malformed image: %s runs past the tables" % what
            )
        self.at += size
        return _read(self.handle, size)

    def count(self, what):
        return _COUNT.unpack(self.take(_COUNT.size, what))[0]

    def text(self, what):
        size = _STR.unpack(self.take(_STR.size, what))[0]
        try:
            return self.take(size, what).decode("utf-8")
        except UnicodeDecodeError as error:
            raise RecoveryError("malformed image: %s" % error)


def _tables(open_image, at, end, schema_of):
    with open_image() as handle:
        handle.seek(at)
        body = _Body(handle, at, end)
        while body.at < end:
            name = body.text("a table name")
            count = body.count("a table")
            schema, rows = schema_of(name), []
            while len(rows) < count:
                size = body.count("a piece")
                rows += decode_row_run(body.take(size, "a piece"), schema)
            if len(rows) != count:
                raise RecoveryError(
                    "malformed image: table %r holds %d rows, not %d"
                    % (name, len(rows), count)
                )
            yield name, rows
