"""The MDM wire protocol: length-prefixed, CRC-tagged binary frames.

Framing mirrors the WAL's on-disk format deliberately — the same
``<length:I><crc32:I><payload>`` header, with the CRC covering the
payload — so the two torn-data stories stay symmetric: a partial send
tears a frame exactly as a power cut tears a log record, and the
receiver detects both with the same checksum-then-length discipline.
The payload's first byte is the frame *kind*; the rest is the body.

Control frames carry compact JSON bodies (QUEL text, shell
meta-commands, structured results and errors), keys in the order the
sender set them; a rational or a blob travels as a one-key object that
the decoder's object hook turns back into itself.  A ``RESULT`` of rows
(version 6) names its columns once and sends each row as an array of
its values.  It stays JSON rather than the log's typed column runs
(``repro.storage.row``): the C encoder and decoder round-trip 1 / 20 /
50 title rows in 11 / 39 / 101 µs, where building, encoding and
decoding a column run took 16 / 142 / 242 µs.  Replication data frames
carry binary bodies: ``REPL_SEED`` a piece of a checkpoint image
(``repro.storage.image``, checksummed whole), ``REPL_FRAME`` a raw WAL
record (one whole commit or a marker, CRC-framed) prefixed by its LSN.

Every connection opens with a version handshake (``HELLO``/``WELCOME``
for clients, ``REPL_HELLO`` for replicas); a version mismatch is a
structured refusal, not a hung socket.
"""

import json
import struct
import zlib
from fractions import Fraction

from repro.errors import ProtocolError

#: Bumped on any incompatible frame-layout change.
PROTOCOL_VERSION = 6

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
RESULT = 0x12      # {seq, duplicate, kind, [columns,] value, commit_lsn}
ERROR = 0x13       # {seq, code, message, retryable}

# Replication (replica <-> primary).
REPL_HELLO = 0x21  # {proto, replica, last_lsn}
REPL_SEED = 0x22   # binary: the next piece of a checkpoint image
REPL_SEED_END = 0x24  # {}  (the image is whole)
REPL_FRAME = 0x25  # binary: <lsn:Q><raw WAL frame>
REPL_ACK = 0x26    # {lsn}
REPL_ERROR = 0x27  # {code, message, lsn}

KIND_NAMES = {
    HELLO: "HELLO", REQUEST: "REQUEST", META: "META", BYE: "BYE",
    WELCOME: "WELCOME", RESULT: "RESULT", ERROR: "ERROR",
    REPL_HELLO: "REPL_HELLO", REPL_SEED: "REPL_SEED",
    REPL_SEED_END: "REPL_SEED_END",
    REPL_FRAME: "REPL_FRAME", REPL_ACK: "REPL_ACK",
    REPL_ERROR: "REPL_ERROR",
}

_REPL_FRAME_HEAD = struct.Struct("<Q")

#: Each kind as the payload's first byte.
_KIND_BYTES = [bytes((kind,)) for kind in range(256)]


def encode_frame(kind, body):
    """Build one wire frame around *body* (bytes)."""
    size = len(body) + 1
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit"
            % (size, MAX_FRAME_BYTES)
        )
    kind = _KIND_BYTES[kind]
    return b"".join((
        FRAME_HEADER.pack(size, zlib.crc32(body, zlib.crc32(kind))), kind, body
    ))


def decode_payload(payload, crc):
    """Verify and split a received payload; returns ``(kind, body)``."""
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ProtocolError("frame checksum mismatch")
    if not payload:
        raise ProtocolError("empty frame payload")
    return payload[0], payload[1:]


def pack(kind, obj):
    """A control frame with a JSON body, its keys in the order *obj*
    holds them.  A value JSON has no form for (a rational, a blob) is
    written as :func:`encode_value` writes it."""
    return encode_frame(kind, "".join(_ENCODE(obj, 0)).encode("ascii"))


def unpack_json(kind, body):
    """Parse a control frame's JSON body, undoing :func:`encode_value`."""
    try:
        text = body.decode("utf-8")
        obj, end = _SCAN(text, 0)
        if end == len(text):
            return obj
        problem = "extra data at char %d" % end
    except StopIteration as exc:  # no JSON value where the body starts
        problem = "expecting a value at char %d" % exc.value
    except (ValueError, UnicodeDecodeError) as exc:
        problem = exc
    raise ProtocolError(
        "unparseable %s body: %s" % (KIND_NAMES.get(kind, kind), problem)
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


def decode_value(value):
    """Undo :func:`encode_value`."""
    if isinstance(value, dict):
        if "__rat__" in value:
            numerator, denominator = value["__rat__"]
            return Fraction(numerator, denominator)
        if "__blob__" in value:
            return bytes.fromhex(value["__blob__"])
    return value


def _body_encoder(c_make_encoder=json.encoder.c_make_encoder):
    """The body encoder, ``(obj, 0) -> chunks``: CPython's C encoder,
    built once and called directly (``JSONEncoder.encode`` builds one
    per call).  A body is a tree built for one frame, never circular,
    so the encoder keeps no record of the containers it is inside
    (``markers`` None: one dict insert and delete a row array, a third
    of a 50-row encode).  Strings are written ASCII-escaped.  Without
    the C accelerator it is the pure-Python encoder, which writes the
    same bytes."""
    if c_make_encoder is None:
        return json.JSONEncoder(
            separators=(",", ":"), check_circular=False,
            default=_encode_unknown,
        ).iterencode
    return c_make_encoder(
        None, _encode_unknown, json.encoder.encode_basestring_ascii, None,
        ":", ",", False, False, True,
    )


#: The body codec.  The scanner is called directly too
#: (``JSONDecoder.decode`` wraps the scan in two whitespace matches; a
#: body has no whitespace around it).  ``decode_value`` is its
#: ``object_hook``: it meets each JSON object, and a ``RESULT``'s rows
#: are arrays, so it runs once for the body and once for each
#: tunnelled value, never once a row.
_ENCODE = _body_encoder()
_SCAN = json.JSONDecoder(object_hook=decode_value).scan_once


def encode_rows(columns, values):
    """The ``RESULT`` fields that carry QUEL result rows as a retrieve
    made them (:class:`repro.quel.executor.Rows`): the column names
    once, under ``columns``, and each row as the array of its values in
    that order, under ``value`` -- the tuples themselves, which the
    encoder writes as arrays, so no row is copied on its way out."""
    return {"kind": "rows", "columns": columns, "value": values}


def decode_rows(message):
    """The result rows a parsed ``RESULT`` *message* carries, one dict
    a row -- the one place a remote row becomes a dict;
    ``ProtocolError`` if it carries none."""
    try:
        columns = message["columns"]
        return [dict(zip(columns, values)) for values in message["value"]]
    except (KeyError, TypeError) as exc:
        raise ProtocolError("RESULT carries no rows: %r" % (exc,)) from None


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
