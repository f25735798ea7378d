"""Frame-layer tests: framing, checksums, JSON-safe values, binary bodies."""

from fractions import Fraction

import pytest

from repro.errors import ProtocolError
from repro.net import protocol

pytestmark = pytest.mark.net


def split_frame(frame):
    """Decode one encoded frame the way a receiver would."""
    length, crc = protocol.FRAME_HEADER.unpack_from(frame, 0)
    payload = frame[protocol.FRAME_HEADER.size:]
    assert len(payload) == length
    return protocol.decode_payload(payload, crc)


class TestFraming:
    def test_json_frame_round_trips(self):
        frame = protocol.pack(protocol.REQUEST, {"seq": 7, "source": "x"})
        kind, body = split_frame(frame)
        assert kind == protocol.REQUEST
        assert protocol.unpack_json(kind, body) == {"seq": 7, "source": "x"}

    def test_corrupt_payload_fails_checksum(self):
        frame = bytearray(protocol.pack(protocol.RESULT, {"seq": 1}))
        frame[-1] ^= 0xFF
        length, crc = protocol.FRAME_HEADER.unpack_from(bytes(frame), 0)
        with pytest.raises(ProtocolError):
            protocol.decode_payload(
                bytes(frame)[protocol.FRAME_HEADER.size:], crc
            )

    def test_oversized_frame_refused_at_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_frame(
                protocol.RESULT, b"x" * (protocol.MAX_FRAME_BYTES + 1)
            )

    def test_empty_payload_refused(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"", 0)

    def test_garbage_json_body_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            protocol.unpack_json(protocol.RESULT, b"\xff\xfe not json")


def result_frame(rows):
    """The ``RESULT`` frame a server sends for *rows*."""
    return protocol.pack(protocol.RESULT, {
        "seq": 4, "kind": "rows", "value": protocol.encode_rows(rows),
        "commit_lsn": 9,
    })


def rows_of(frame):
    """What a client makes of a ``RESULT`` frame."""
    kind, body = split_frame(frame)
    return protocol.decode_rows(protocol.unpack_json(kind, body)["value"])


#: ``RESULT`` frames as the per-value codec this one replaced wrote
#: them (recorded at its last commit): an old peer writes and reads
#: exactly these bytes, so a new server answers an old client, and a
#: new client reads an old server, only while they stay what we write.
GOLDEN_FRAMES = [
    (
        [{"t.title": 'Prélude "in" C', "t.n": 5, "t.x": None, "t.f": 1.5,
          "t.ok": True}],
        "8e000000561c604d127b22636f6d6d69745f6c736e223a20392c20226b696e64"
        "223a2022726f7773222c2022736571223a20342c202276616c7565223a205b7b"
        "22742e66223a20312e352c2022742e6e223a20352c2022742e6f6b223a207472"
        "75652c2022742e7469746c65223a202250725c75303065396c756465205c2269"
        "6e5c222043222c2022742e78223a206e756c6c7d5d7d",
    ),
    (
        [{"d": Fraction(3, 8), "n": Fraction(-7, 1)}],
        "6e00000045298a50127b22636f6d6d69745f6c736e223a20392c20226b696e64"
        "223a2022726f7773222c2022736571223a20342c202276616c7565223a205b7b"
        "2264223a207b225f5f7261745f5f223a205b332c20385d7d2c20226e223a207b"
        "225f5f7261745f5f223a205b2d372c20315d7d7d5d7d",
    ),
    (
        [{"b": b"\x00\x01\xff", "e": b""}],
        "6d000000aafe0d5d127b22636f6d6d69745f6c736e223a20392c20226b696e64"
        "223a2022726f7773222c2022736571223a20342c202276616c7565223a205b7b"
        "2262223a207b225f5f626c6f625f5f223a2022303030316666227d2c20226522"
        "3a207b225f5f626c6f625f5f223a2022227d7d5d7d",
    ),
]


class TestValues:
    def test_rational_and_blob_survive_json(self):
        row = {"d": Fraction(3, 8), "b": b"\x00\x01\xff", "n": 5, "s": "x"}
        (decoded,) = rows_of(result_frame([row]))
        assert decoded == row
        assert isinstance(decoded["d"], Fraction)
        assert isinstance(decoded["b"], bytes)

    @pytest.mark.parametrize("rows, golden", GOLDEN_FRAMES)
    def test_result_frames_are_byte_identical_to_the_old_codec(
        self, rows, golden
    ):
        assert result_frame(rows).hex() == golden
        assert rows_of(bytes.fromhex(golden)) == rows

    def test_a_value_with_no_wire_form_is_refused_not_mangled(self):
        with pytest.raises(TypeError):
            result_frame([{"x": object()}])

    def test_plain_values_untouched(self):
        assert protocol.encode_value(42) == 42
        assert protocol.decode_value("abc") == "abc"
        assert protocol.decode_value({"other": 1}) == {"other": 1}


class TestReplicationBodies:
    def test_repl_frame_round_trips(self):
        wal_bytes = b"pretend-wal-frame"
        frame = protocol.pack_repl_frame(123, wal_bytes)
        kind, body = split_frame(frame)
        assert kind == protocol.REPL_FRAME
        assert protocol.unpack_repl_frame(body) == (123, wal_bytes)
