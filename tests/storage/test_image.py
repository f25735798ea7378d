"""The checkpoint image: its format, its streaming, its refusals, and how
a database publishes and opens it."""

import collections
import io
import os
import struct
import zlib
from fractions import Fraction

import pytest

from repro.errors import RecoveryError
from repro.storage import database as database_module
from repro.storage import image
from repro.storage.database import CATALOG, Database
from repro.storage.faults import fsync_directory
from repro.storage.row import Row, decode_row_run, encode_row_run
from repro.storage.table import Column, Table, TableSchema

_HEAD = struct.Struct("<7sBQ")  # magic, format byte, LSN
_SIZE = struct.Struct("<I")  # a piece's size
#: The schema every test table has unless it names another.
KV = TableSchema("kv", [Column("k", "integer"), Column("v", "string")])


def _rows(count, width=8):
    return [
        Row(i, KV.coerce({"k": i, "v": "x" * width}), KV.layout)
        for i in range(1, count + 1)
    ]


def _image(lsn=9, tables=(("a", _rows(3), KV),), ledger=None):
    return b"".join(image.pack(lsn, ledger or {}, list(tables)))


def _decode(raw, schemas=None):
    """``(lsn, {name: rows})`` of *raw*, every table of schema KV
    unless *schemas* names another."""
    schemas = schemas or {}
    lsn, _, tables = image.unpack(
        lambda: io.BytesIO(raw), lambda name: schemas.get(name, KV)
    )
    return lsn, dict(tables)


def _seal(body, ledger=struct.pack("<I", 0)):
    """*body* after a header and *ledger* (by default an empty one),
    with its CRC32 trailer: an image whose checksum holds."""
    body = _HEAD.pack(b"MDM-IMG", image.FORMAT, 1) + ledger + body
    return body + struct.pack("<I", zlib.crc32(body))


def _table(name, count):
    raw = name.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw + struct.pack("<I", count)


def _piece(rows, held=None):
    """A piece of *rows* whose run says it holds *held* of them."""
    run = bytearray()
    encode_row_run(rows, KV, run)
    if held is not None:
        run[0] = held  # a count below 128 is its one byte
    return _SIZE.pack(len(run)) + run


class _RecordingReads(io.BytesIO):
    """An in-memory image that records the size of every read."""

    def __init__(self, raw):
        super().__init__(raw)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


class TestRoundTrip:
    def test_lsn_names_and_rows_come_back(self):
        first, second = _rows(4), _rows(2, width=30)
        lsn, tables = _decode(_image(41, [
            ("first", first, KV), ("second", second, KV),
        ]))
        assert lsn == 41
        assert list(tables) == ["first", "second"]
        assert tables["first"] == first and tables["second"] == second

    def test_an_image_of_no_tables(self):
        raw = _image(0, [])
        assert len(raw) == _HEAD.size + 4 + 4  # an empty ledger, the CRC
        assert _decode(raw) == (0, {})

    def test_the_ledger_comes_back_before_any_table_is_read(self):
        ledger = {"b": (7, 1), "a": (2 ** 40, -3), "Stück": (1, 0)}
        raw = _image(6, [("t", _rows(2), KV)], ledger=ledger)
        opened = []

        def open_image():
            opened.append(io.BytesIO(raw))
            return opened[-1]

        lsn, found, tables = image.unpack(open_image, lambda name: KV)
        assert (lsn, found) == (6, ledger)
        assert len(opened) == 1  # read with the checksum
        assert dict(tables)["t"] == _rows(2)

    def test_an_empty_table_keeps_its_place(self):
        lsn, tables = _decode(_image(3, [
            ("empty", [], KV), ("full", _rows(1), KV),
        ]))
        assert list(tables) == ["empty", "full"]
        assert tables["empty"] == []

    def test_every_value_type_survives(self):
        values = {
            "none": None, "yes": True, "int": -(2 ** 62), "float": 2.5,
            "ratio": Fraction(3, 8), "text": "Gloria in excelsis ♯",
            "blob": b"\x00\xffMDM", "work": 2 ** 40,
        }
        schema = TableSchema("t", [
            Column("none", "integer"), Column("yes", "boolean"),
            Column("int", "integer"), Column("float", "float"),
            Column("ratio", "rational"), Column("text", "string"),
            Column("blob", "blob"), Column("work", "entity"),
        ])
        row = Row(7, schema.coerce(values), schema.layout)
        _, tables = _decode(_image(1, [("t", [row], schema)]), {"t": schema})
        assert tables["t"] == [row]
        assert tables["t"][0].as_dict() == values
        assert tables["t"][0]["yes"] is True

    def test_a_unicode_table_name_survives(self):
        _, tables = _decode(_image(1, [("Stück", _rows(1), KV)]))
        assert list(tables) == ["Stück"]

    def test_schemas_are_asked_in_file_order_as_tables_are_taken(self):
        """The catalog's rows make the tables the later ones name, so no
        schema is asked for before the tables ahead of it are read."""
        asked = []

        def schema_of(name):
            asked.append(name)
            return KV

        raw = _image(5, [("_catalog", _rows(1), KV), ("b", _rows(2), KV)])
        lsn, _, tables = image.unpack(lambda: io.BytesIO(raw), schema_of)
        assert asked == []
        assert next(tables)[0] == "_catalog" and asked == ["_catalog"]
        assert next(tables)[0] == "b" and asked == ["_catalog", "b"]


class TestLayout:
    def test_the_header_names_magic_format_and_lsn(self):
        raw = _image(2 ** 40 + 3)
        assert _HEAD.unpack_from(raw, 0) == (b"MDM-IMG", image.FORMAT, 2 ** 40 + 3)

    def test_a_large_table_comes_out_in_pieces_of_piece_rows_rows(self):
        rows = _rows(2 * image.PIECE_ROWS + 7, width=100)
        # header, table, the full pieces, the last piece, CRC
        parts = list(image.pack(1, {}, [("t", rows, KV)]))
        assert len(parts) == 6
        pieces = [decode_row_run(part[_SIZE.size:], KV) for part in parts[2:-1]]
        assert [len(piece) for piece in pieces] == [
            image.PIECE_ROWS, image.PIECE_ROWS, 7,
        ]
        assert [row for piece in pieces for row in piece] == rows
        for part in parts[2:-1]:
            assert _SIZE.unpack_from(part)[0] == len(part) - _SIZE.size

    def test_the_decode_pass_reads_a_piece_at_a_time(self):
        tables = [("t", _rows(3000, width=100), KV)]
        pieces = list(image.pack(1, {}, tables))[2:-1]
        raw = _image(1, tables)
        opened = []

        def open_image():
            opened.append(_RecordingReads(raw))
            return opened[-1]

        _, _, tables = image.unpack(open_image, lambda name: KV)
        assert len(opened) == 1  # the checksum pass; no table decoded yet
        assert len(dict(tables)["t"]) == 3000
        decoded = opened[1]
        # Everything but the header, the (empty) ledger and the CRC.
        assert sum(decoded.sizes) == len(raw) - _HEAD.size - 4 - 4
        assert max(decoded.sizes) == max(map(len, pieces)) - _SIZE.size

    def test_no_table_is_encoded_whole_before_its_first_piece(
        self, monkeypatch
    ):
        encoded = []

        def encode(rows, schema, out):
            encoded.append(len(rows))
            encode_row_run(rows, schema, out)

        monkeypatch.setattr(image, "encode_row_run", encode)
        parts = image.pack(1, {}, [("t", _rows(2 * image.PIECE_ROWS + 1), KV)])
        for _ in range(3):  # header, table, first piece
            next(parts)
        assert encoded == [image.PIECE_ROWS]
        rest = b"".join(parts)
        assert encoded == [image.PIECE_ROWS, image.PIECE_ROWS, 1] and rest


class TestRefusal:
    """What the checksum cannot catch: a cut, flipped or other-format
    file is a carrier of ``test_short_redo_input_raises_a_typed_error``,
    and these are images whose CRC holds over a malformed body."""

    @pytest.mark.parametrize("body, defect", [
        (struct.pack("<H", 900), "a table name runs past the tables"),
        (b"\x02\x00\xff\xfe" + struct.pack("<I", 0), "can't decode"),
        (_table("t", 5) + _piece(_rows(1)), "a piece runs past the tables"),
        (_table("t", 2) + _piece(_rows(1), held=2), "row run"),
        (_table("t", 1) + _piece(_rows(2)), "holds 2 rows, not 1"),
    ], ids=[
        "name-past-the-tables", "name-not-utf8", "table-short-of-its-count",
        "piece-short-of-its-rows", "table-over-its-count",
    ])
    def test_a_malformed_body(self, body, defect):
        with pytest.raises(RecoveryError, match=defect):
            _decode(_seal(body))

    @pytest.mark.parametrize("ledger, defect", [
        (b"\x01\x00", "the ledger runs past the tables"),
        (struct.pack("<I", 2) + _table("c", 0)[:3], "a ledger entry runs past"),
        (struct.pack("<IH", 1, 2) + b"\xff\xfe" + bytes(16), "can't decode"),
    ], ids=["count-cut", "entry-short", "client-not-utf8"])
    def test_a_malformed_ledger(self, ledger, defect):
        with pytest.raises(RecoveryError, match=defect):
            _decode(_seal(b"", ledger=ledger))


def _checkpointed(path):
    db = Database(path)
    db.create_table("t", [("v", "integer")])
    db.bulk_ingest("t", [{"v": i} for i in range(20)])
    db.checkpoint()
    return db


def _image_lsn(path):
    with open(os.path.join(path, "image.mdm"), "rb") as handle:
        return _HEAD.unpack_from(handle.read(_HEAD.size))[2]


class TestDatabaseImage:
    def test_the_next_checkpoint_replaces_the_image(self, tmp_path):
        path = str(tmp_path / "db")
        db = _checkpointed(path)
        first = _image_lsn(path)
        db.table("t").insert({"v": 100})
        db.checkpoint()
        db.close()
        assert _image_lsn(path) > first
        assert sorted(os.listdir(path)) == ["image.mdm", "wal.log"]
        with Database(path) as db:
            assert sorted(row["v"] for row in db.table("t")) == list(range(20)) + [100]

    def test_a_temporary_file_left_by_a_crash_is_not_read(self, tmp_path):
        """A crash before the rename leaves the old image in force."""
        path = str(tmp_path / "db")
        _checkpointed(path).close()
        with open(os.path.join(path, "image.mdm.tmp"), "wb") as handle:
            handle.write(b"MDM-IMG half an image")
        with Database(path) as db:
            assert len(db.table("t")) == 20
            db.checkpoint()
        assert sorted(os.listdir(path)) == ["image.mdm", "wal.log"]

    def test_an_image_naming_a_table_its_catalog_lacks(self, tmp_path):
        path = str(tmp_path / "db")
        db = _checkpointed(path)
        with db.image() as (_, pieces):
            raw = b"".join(pieces)[:-4] + _table("ghost", 0)
        raw += struct.pack("<I", zlib.crc32(raw))
        db.close()
        with open(os.path.join(path, "image.mdm"), "wb") as handle:
            handle.write(raw)
        with pytest.raises(RecoveryError, match="'ghost'"):
            Database(path)

    def test_an_image_is_pinned_while_taken_and_installs_as_a_seed(self):
        """``image()`` pins its LSN until the block ends; the bytes install
        into an empty in-memory database as a replica installs them."""
        db = Database()
        db.create_table("t", [("v", "integer")])
        db.bulk_ingest("t", [{"v": i} for i in range(5)])
        with db.image() as (lsn, pieces):
            assert db.transactions.current_snapshot() == lsn
            raw = b"".join(pieces)
        assert db.transactions.current_snapshot() is None
        copy = Database()
        seed_lsn, ledger, tables = copy.read_image(lambda: io.BytesIO(raw))
        copy.install_image(ledger, tables)
        copy.build_deferred_indexes()
        assert seed_lsn == lsn
        assert copy.table_names() == ["t"]
        assert sorted(row["v"] for row in copy.table("t")) == list(range(5))

    def test_an_image_walks_each_table_once(self, monkeypatch):
        """Its count and its pieces come from one snapshot walk."""
        db = Database()
        for name in ("t", "u"):
            db.create_table(name, [("v", "integer")])
            db.bulk_ingest(name, [{"v": i} for i in range(5)])
        walks = collections.Counter()
        walk = Table._snapshot_rows

        def counting(table, snapshot):
            walks[table.name] += 1
            return walk(table, snapshot)

        monkeypatch.setattr(Table, "_snapshot_rows", counting)
        with db.image() as (_, pieces):
            b"".join(pieces)
        assert walks == {CATALOG: 1, "t": 1, "u": 1}

    def test_a_seed_naming_a_table_its_catalog_lacks(self):
        """Whole by its CRC, yet refused once the install reaches it."""
        raw = _image(5, [("ghost", [], KV)])
        copy = Database()
        lsn, ledger, tables = copy.read_image(lambda: io.BytesIO(raw))
        assert lsn == 5
        with pytest.raises(RecoveryError, match="'ghost'"):
            copy.install_image(ledger, tables)
        assert not copy.has_table("ghost")

    def test_the_rename_is_durable_before_a_segment_is_deleted(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "db")
        events = []
        monkeypatch.setattr(
            database_module, "fsync_directory",
            lambda where: events.append(("fsync_directory", where)),
        )
        remove = os.remove

        def recording_remove(name):
            if ".log." in os.path.basename(name):
                image_there = os.path.exists(os.path.join(path, "image.mdm"))
                events.append(("remove", image_there))
            remove(name)

        monkeypatch.setattr(os, "remove", recording_remove)
        _checkpointed(path).close()
        assert events == [("fsync_directory", path), ("remove", True)]


class TestDirectoryFsync:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        synced = []
        real = os.fsync

        def recording_fsync(fd):
            synced.append(os.path.realpath("/proc/self/fd/%d" % fd))
            real(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        return synced

    def test_the_directory_itself_is_fsynced(self, tmp_path, fsyncs):
        fsync_directory(str(tmp_path))
        assert fsyncs == [os.path.realpath(str(tmp_path))]

    def test_a_directory_that_cannot_be_opened_is_skipped(self, tmp_path, fsyncs):
        fsync_directory(str(tmp_path / "absent"))
        assert fsyncs == []
