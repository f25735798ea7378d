"""The MDM wire protocol: length-prefixed, CRC-tagged binary frames.

Framing mirrors the WAL's on-disk format deliberately — the same
``<length:I><crc32:I><payload>`` header, with the CRC covering the
payload — so the two torn-data stories stay symmetric: a partial send
tears a frame exactly as a power cut tears a log record, and the
receiver detects both with the same checksum-then-length discipline.
The payload's first byte is the frame *kind*; the rest is the body.

Control frames carry JSON bodies (QUEL text, shell meta-commands,
structured results and errors); replication data frames carry binary
bodies (``REPL_FRAME`` embeds a raw WAL record — itself CRC-framed —
prefixed by its LSN, and ``REPL_ROWS`` embeds serialized rows), so row
values that JSON cannot express (rationals, blobs) replicate losslessly.

Every connection opens with a version handshake (``HELLO``/``WELCOME``
for clients, ``REPL_HELLO`` for replicas); a version mismatch is a
structured refusal, not a hung socket.
"""

import json
import struct
import zlib
from fractions import Fraction

from repro.errors import ProtocolError, RecoveryError
from repro.storage.row import decode_row_run, encode_row_run

#: Bumped on any incompatible frame-layout change.
PROTOCOL_VERSION = 1

#: Frames larger than this are refused outright: a corrupt length field
#: must fail fast, not allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Frame header: payload length, CRC32 of the payload.
FRAME_HEADER = struct.Struct("<II")

# -- frame kinds ---------------------------------------------------------------

# Client -> server.
HELLO = 0x01       # {proto, client, last_seq}
REQUEST = 0x02     # {seq, source, timeout_s, read_only, row_budget, min_lsn}
META = 0x03        # {seq, command}
BYE = 0x04         # {}

# Server -> client.
WELCOME = 0x11     # {proto, server, role, last_seq}
RESULT = 0x12      # {seq, kind, rows|count|text, duplicate, commit_lsn, applied_lsn}
ERROR = 0x13       # {seq, code, message, retryable}

# Replication (replica <-> primary).
REPL_HELLO = 0x21  # {proto, replica, last_lsn}
REPL_SEED = 0x22   # {lsn, schema, tables: [{name, columns}]}  (rows follow)
REPL_ROWS = 0x23   # binary: <name_len:H><count:I><name><row bytes...>
REPL_SEED_END = 0x24  # {lsn}
REPL_FRAME = 0x25  # binary: <lsn:Q><raw WAL frame>
REPL_ACK = 0x26    # {lsn}
REPL_ERROR = 0x27  # {code, message, lsn}

KIND_NAMES = {
    HELLO: "HELLO", REQUEST: "REQUEST", META: "META", BYE: "BYE",
    WELCOME: "WELCOME", RESULT: "RESULT", ERROR: "ERROR",
    REPL_HELLO: "REPL_HELLO", REPL_SEED: "REPL_SEED",
    REPL_ROWS: "REPL_ROWS", REPL_SEED_END: "REPL_SEED_END",
    REPL_FRAME: "REPL_FRAME", REPL_ACK: "REPL_ACK",
    REPL_ERROR: "REPL_ERROR",
}

_REPL_ROWS_HEAD = struct.Struct("<HI")
_REPL_FRAME_HEAD = struct.Struct("<Q")


def encode_frame(kind, body):
    """Build one wire frame around *body* (bytes)."""
    payload = bytes((kind,)) + body
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit"
            % (len(payload), MAX_FRAME_BYTES)
        )
    return FRAME_HEADER.pack(
        len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


def decode_payload(payload, crc):
    """Verify and split a received payload; returns ``(kind, body)``."""
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ProtocolError("frame checksum mismatch")
    if not payload:
        raise ProtocolError("empty frame payload")
    return payload[0], payload[1:]


def pack(kind, obj):
    """A control frame with a JSON body.  A value JSON has no form for
    (a rational, a blob) is written as :func:`encode_value` writes it."""
    return encode_frame(kind, _ENCODER.encode(obj).encode("utf-8"))


def unpack_json(kind, body):
    """Parse a control frame's JSON body."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            "unparseable %s body: %s" % (KIND_NAMES.get(kind, kind), exc)
        )


# -- result values over JSON -----------------------------------------------------


def encode_value(value):
    """Make one attribute value JSON-safe (rationals, blobs)."""
    if isinstance(value, Fraction):
        return {"__rat__": [value.numerator, value.denominator]}
    if isinstance(value, (bytes, bytearray)):
        return {"__blob__": bytes(value).hex()}
    return value


def _encode_unknown(value):
    """``json``'s ``default`` hook: called only for a value the encoder
    has no form for, so a reply of strings and numbers never pays a
    Python call per value."""
    encoded = encode_value(value)
    if encoded is value:
        raise TypeError(
            "%s is not JSON serializable" % type(value).__name__
        )
    return encoded


#: ``json.dumps(obj, sort_keys=True, default=...)``, built once.
_ENCODER = json.JSONEncoder(sort_keys=True, default=_encode_unknown)


def decode_value(value):
    """Undo :func:`encode_value`."""
    if isinstance(value, dict):
        if "__rat__" in value:
            numerator, denominator = value["__rat__"]
            return Fraction(numerator, denominator)
        if "__blob__" in value:
            return bytes.fromhex(value["__blob__"])
    return value


def encode_rows(rows):
    """QUEL result rows as a ``RESULT`` frame carries them: as they
    are.  :func:`pack` encodes the values JSON cannot express when it
    meets one; this is the step's name on the serving path."""
    return rows


def decode_rows(rows):
    """Undo what :func:`pack` did to the values of parsed result
    *rows*, in place: only an object-typed value can be an encoded one."""
    for row in rows:
        for key, value in row.items():
            if type(value) is dict:
                row[key] = decode_value(value)
    return rows


# -- binary replication bodies ---------------------------------------------------


def pack_repl_frame(lsn, wal_frame):
    """``REPL_FRAME`` body: the WAL record's LSN plus its raw bytes."""
    return encode_frame(REPL_FRAME, _REPL_FRAME_HEAD.pack(lsn) + wal_frame)


def unpack_repl_frame(body):
    """Split a ``REPL_FRAME`` body into ``(lsn, wal_frame_bytes)``."""
    if len(body) < _REPL_FRAME_HEAD.size:
        raise ProtocolError("short REPL_FRAME body")
    (lsn,) = _REPL_FRAME_HEAD.unpack_from(body, 0)
    return lsn, body[_REPL_FRAME_HEAD.size:]


def pack_repl_rows(table_name, rows, column_order):
    """``REPL_ROWS`` body: one table's serialized rows (seed transfer)."""
    name_bytes = table_name.encode("utf-8")
    chunks = [_REPL_ROWS_HEAD.pack(len(name_bytes), len(rows)), name_bytes]
    chunks.extend(encode_row_run(rows, column_order, counted=False))
    return encode_frame(REPL_ROWS, b"".join(chunks))


def unpack_repl_rows(body, column_orders):
    """Split a ``REPL_ROWS`` body into ``(table_name, [Row, ...])``.

    *column_orders* maps table name -> column order (the receiver's
    schema must already know the table from the ``REPL_SEED`` manifest).
    """
    if len(body) < _REPL_ROWS_HEAD.size:
        raise ProtocolError("short REPL_ROWS body")
    name_len, count = _REPL_ROWS_HEAD.unpack_from(body, 0)
    offset = _REPL_ROWS_HEAD.size
    table_name = body[offset:offset + name_len].decode("utf-8")
    offset += name_len
    order = column_orders.get(table_name)
    if order is None:
        raise ProtocolError("REPL_ROWS for unknown table %r" % table_name)
    try:
        rows = decode_row_run(body, order, offset, count)
    except RecoveryError as error:
        raise ProtocolError("REPL_ROWS for %r: %s" % (table_name, error))
    return table_name, rows
