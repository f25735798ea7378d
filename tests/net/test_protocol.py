"""Frame-layer tests: framing, checksums, JSON-safe values, binary bodies."""

import json
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
    """The ``RESULT`` frame a server sends for *rows*, dicts that share
    their keys (what a retrieve answers a local caller)."""
    body = {"seq": 4, "duplicate": False}
    body.update(protocol.encode_rows(
        list(rows[0]) if rows else [],
        [tuple(row.values()) for row in rows],
    ))
    body["commit_lsn"] = 9
    return protocol.pack(protocol.RESULT, body)


def rows_of(frame):
    """What a client makes of a ``RESULT`` frame."""
    kind, body = split_frame(frame)
    return protocol.decode_rows(protocol.unpack_json(kind, body))


#: ``RESULT`` frames as protocol version 6 writes them: the names once,
#: each row an array, keys in the order the server sets them, no
#: whitespace.  A peer of this version writes and reads exactly these
#: bytes, so a change to them is a change of ``PROTOCOL_VERSION``.
GOLDEN_FRAMES = [
    (
        [{"t.title": 'Prélude "in" C', "t.n": 5, "t.x": None, "t.f": 1.5,
          "t.ok": True}],
        "9c0000007eab5ea2127b22736571223a342c226475706c6963617465223a6661"
        "6c73652c226b696e64223a22726f7773222c22636f6c756d6e73223a5b22742e"
        "7469746c65222c22742e6e222c22742e78222c22742e66222c22742e6f6b225d"
        "2c2276616c7565223a5b5b2250725c75303065396c756465205c22696e5c2220"
        "43222c352c6e756c6c2c312e352c747275655d5d2c22636f6d6d69745f6c736e"
        "223a397d",
    ),
    (
        [{"d": Fraction(3, 8), "n": Fraction(-7, 1)}],
        "7e000000388fab1d127b22736571223a342c226475706c6963617465223a6661"
        "6c73652c226b696e64223a22726f7773222c22636f6c756d6e73223a5b226422"
        "2c226e225d2c2276616c7565223a5b5b7b225f5f7261745f5f223a5b332c385d"
        "7d2c7b225f5f7261745f5f223a5b2d372c315d7d5d5d2c22636f6d6d69745f6c"
        "736e223a397d",
    ),
    (
        [{"b": b"\x00\x01\xff", "e": b""}],
        "7f0000007f227c29127b22736571223a342c226475706c6963617465223a6661"
        "6c73652c226b696e64223a22726f7773222c22636f6c756d6e73223a5b226222"
        "2c2265225d2c2276616c7565223a5b5b7b225f5f626c6f625f5f223a22303030"
        "316666227d2c7b225f5f626c6f625f5f223a22227d5d5d2c22636f6d6d69745f"
        "6c736e223a397d",
    ),
]


class TestValues:
    def test_rational_and_blob_survive_json(self):
        rows = [
            {"d": Fraction(3, 8), "b": b"\x00\x01\xff", "n": 5, "s": "x"},
            {"d": None, "b": b"", "n": 6, "s": "y"},
        ]
        frame = result_frame(rows)
        kind, body = split_frame(frame)
        raw = json.loads(body)
        assert raw["columns"] == ["d", "b", "n", "s"]
        assert raw["value"] == [
            [{"__rat__": [3, 8]}, {"__blob__": "0001ff"}, 5, "x"],
            [None, {"__blob__": ""}, 6, "y"],
        ]
        decoded = rows_of(frame)
        assert decoded == rows
        assert isinstance(decoded[0]["d"], Fraction)
        assert isinstance(decoded[0]["b"], bytes)
        assert isinstance(decoded[1]["b"], bytes)

    @pytest.mark.parametrize("message", [
        {"kind": "count", "value": 1}, {"columns": ["a"], "value": 3},
        {"columns": [["a"]], "value": [[1]]},
    ])
    def test_a_result_without_rows_is_a_protocol_error(self, message):
        with pytest.raises(ProtocolError):
            protocol.decode_rows(message)

    @pytest.mark.parametrize("rows, golden", GOLDEN_FRAMES)
    def test_result_frames_are_the_recorded_v6_bytes(self, rows, golden):
        assert result_frame(rows).hex() == golden
        assert rows_of(bytes.fromhex(golden)) == rows

    def test_the_pure_python_encoder_writes_the_same_bytes(self):
        """Without CPython's C json accelerator the body encoder falls
        back to the pure-Python one, byte for byte."""
        body = {
            "seq": 3, "kind": "rows", "columns": ["d", "b", "s", "f"],
            "value": [
                (Fraction(3, 8), b"\x00\xff", "caf\u00e9 \"x\"", 0.5),
                (None, b"", "", float("inf")),
            ],
        }
        fallback = protocol._body_encoder(None)
        assert "".join(fallback(body, 0)) == "".join(
            protocol._ENCODE(body, 0)
        )
        with pytest.raises(TypeError):
            "".join(fallback({"x": object()}, 0))

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
