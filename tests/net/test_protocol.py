"""Frame-layer tests: framing, checksums, JSON-safe values, binary bodies."""

from fractions import Fraction

import pytest

from repro.errors import ProtocolError
from repro.net import protocol
from repro.storage.row import Row

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


class TestValues:
    def test_rational_and_blob_survive_json(self):
        row = {"d": Fraction(3, 8), "b": b"\x00\x01\xff", "n": 5, "s": "x"}
        encoded = protocol.encode_rows([row])
        import json

        wire = json.loads(json.dumps(encoded))
        (decoded,) = protocol.decode_rows(wire)
        assert decoded == row
        assert isinstance(decoded["d"], Fraction)
        assert isinstance(decoded["b"], bytes)

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

    def test_repl_rows_round_trip_with_rationals(self):
        order = ["a", "b"]
        rows = [
            Row(1, {"a": Fraction(1, 3), "b": "x"}),
            Row(2, {"a": Fraction(2, 3), "b": b"\x01\x02"}),
        ]
        frame = protocol.pack_repl_rows("t", rows, order)
        kind, body = split_frame(frame)
        assert kind == protocol.REPL_ROWS
        name, out = protocol.unpack_repl_rows(body, {"t": order})
        assert name == "t"
        assert out == rows

    def test_repl_rows_unknown_table_refused(self):
        frame = protocol.pack_repl_rows("t", [], ["a"])
        kind, body = split_frame(frame)
        with pytest.raises(ProtocolError):
            protocol.unpack_repl_rows(body, {})
