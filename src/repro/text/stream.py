"""The posting stream: a database's trigram indexes as one file.

A durable database publishes it where its indexes provably equal a
rebuild from committed rows (``Database.checkpoint`` and ``close``) and
the next open loads it in place of that rebuild.  This module is the
file's format and the one place it is written down; what makes a stream
*valid* for the rows an open recovered -- the LSN it names, the row
counts -- is ``repro.storage.database``'s to decide.

Everything is little-endian; ``str`` is ``<bytes:H>`` and that many of
UTF-8; a ``mask`` is one bitset chunk, ``WIDTH / 8`` bytes, bit
``r & LOW`` of chunk ``r >> SHIFT`` being rowid *r*::

    stream  := <format:B> <crc32:I> payload        crc32 is the payload's
    payload := <lsn:Q> <indexes:H> entry* body*    bodies in entry order
    entry   := <table:str> <column:str> <rows:Q> <length:Q>
    body    := <rows:Q> <posting entries:Q> <grams:I> <sized chunks:I>
               gram* sized*                        TrigramIndex.dump()
    gram    := <bytes:B> UTF-8 <form:B> posting
    posting := <count:I> count * <rowid:I>         form 0, Sparse.dump()
             | <count:I> <chunks:I> chunks * <chunk index:I>
               chunks * mask                       form 1, Bits.dump()
    sized   := <chunk index:I> <planes:B> planes * mask

*lsn* is the log's ``change_lsn`` when the bytes were taken, *rows* the
rows the index described (gram-less ones included), a ``sized`` the
bit-sliced planes of a chunk's row gram counts.  A posting is written
in the form it is held in, so a loaded index reports the bytes the
dumped one did.  An unknown format byte is a stream from another
version: refused whole, never guessed at.
"""

import struct
import zlib

from repro.errors import RecoveryError

__all__ = ["FORMAT", "pack", "unpack"]

FORMAT = 1

_HEAD = struct.Struct("<BI")
_PAYLOAD_HEAD = struct.Struct("<QH")
_STR = struct.Struct("<H")
_ENTRY_TAIL = struct.Struct("<QQ")


def pack(lsn, indexes):
    """The stream naming *lsn* over *indexes*, ``(table, column, rows,
    body)`` each, *body* a ``TrigramIndex.dump()``: a list of bytes
    pieces, like the bodies, so that a catalogue-sized stream is never
    held twice."""
    pieces = [_PAYLOAD_HEAD.pack(lsn, len(indexes))]
    for table, column, rows, body in indexes:
        for name in (table, column):
            raw = name.encode("utf-8")
            pieces += [_STR.pack(len(raw)), raw]
        pieces.append(_ENTRY_TAIL.pack(rows, sum(map(len, body))))
    for _, _, _, body in indexes:
        pieces += body
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    return [_HEAD.pack(FORMAT, crc)] + pieces


def unpack(raw):
    """``(lsn, {(table, column): (rows, body)})`` of stream *raw*, each
    *body* a view into it.  Raises :class:`RecoveryError` naming the
    defect for anything but a whole stream of this format."""
    if len(raw) < _HEAD.size:
        raise RecoveryError("torn header")
    version, crc = _HEAD.unpack_from(raw, 0)
    if version != FORMAT:
        raise RecoveryError("unknown format byte %d" % version)
    payload = memoryview(raw)[_HEAD.size:]
    if zlib.crc32(payload) != crc:
        raise RecoveryError("checksum mismatch")
    try:
        lsn, count = _PAYLOAD_HEAD.unpack_from(payload, 0)
        offset = _PAYLOAD_HEAD.size
        entries = []
        for _ in range(count):
            names = []
            for _ in range(2):
                (size,) = _STR.unpack_from(payload, offset)
                offset += _STR.size
                names.append(str(payload[offset:offset + size], "utf-8"))
                offset += size
            rows, length = _ENTRY_TAIL.unpack_from(payload, offset)
            offset += _ENTRY_TAIL.size
            entries.append((tuple(names), rows, length))
    except (struct.error, UnicodeDecodeError) as error:
        raise RecoveryError("malformed directory: %s" % error)
    bodies = {}
    for key, rows, length in entries:
        bodies[key] = rows, payload[offset:offset + length]
        offset += length
    if offset != len(payload):
        raise RecoveryError(
            "directory accounts for %d bytes of %d" % (offset, len(payload))
        )
    return lsn, bodies
