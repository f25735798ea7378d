"""One redo path, two consumers: recovery and replicas must agree.

``repro.storage.wal.RedoApplier`` is the only code that decides what a
log record does to a table.  Crash recovery feeds it the log file, a
WAL-shipping replica feeds it shipped frames.  Two checks live here:

* a seeded differential test -- the crash oracle's one workload on a
  durable primary with a replica attached part-way in, so its seed
  carries rows; the live tables, the tables after reopening the
  directory and the replica's tables at its applied LSN must be the
  same rowid for rowid, with the same exactly-once ledger (remote writes
  set it before the seed, between it and a checkpoint, and after),
  and every index registered on each -- the schema's hash and ordered-
  composite ones, the trigram ones -- must equal the crash battery's
  rebuild-from-rows oracle (the live side got there by per-row upkeep,
  recovery and the seed by one deferred build each);
* malformed redo input -- a cut or flipped checkpoint image, on disk
  or as a replica's seed, a commit's run of rows shorter than its
  count, a storage catalog row of the wrong shape, a log or image of
  another format -- raises a typed ``repro.errors`` exception from every
  carrier, never a bare ``struct.error`` and never other rows.

Marked both ``crash`` and ``net``: ``scripts/crash_smoke.sh`` and
``scripts/net_smoke.sh`` each run the differential test, so either
smoke catches the two consumers drifting apart.
"""

import os
import zlib

import pytest

from repro.errors import RecoveryError
from repro.mdm.manager import MusicDataManager
from repro.net import MdmClient, MdmServer, ReplicaServer, protocol
from repro.net.replica import _ReplicaState
from repro.storage import image as image_module
from repro.storage import wal as wal_module
from repro.storage.database import CATALOG, Database
from repro.storage.row import Row, encode_row_run
from repro.storage.table import Column, TableSchema

from tests.crash.oracle import Workload, table_state
from tests.net.conftest import send_seed, wait_applied, wait_serving

pytestmark = [pytest.mark.crash, pytest.mark.net]


@pytest.mark.parametrize("seed", range(6))
def test_recovery_equals_replica_equals_live(tmp_path, seed):
    path = str(tmp_path / "db")
    mdm = MusicDataManager(path, with_cmn=False)
    database = mdm.database
    workload = Workload(database, seed, schema=mdm.schema)
    # What the replica's seed will carry: it fills every index the
    # schema replay registered, not only empty tables.
    for step in range(15):
        workload.step()
    server = MdmServer(mdm)
    server.start()
    writers = [MdmClient(server.address, client_id="w%d" % i) for i in range(2)]

    def remote_write(step):
        writer = writers[step % 2]
        assert writer.execute('append to PIECE (title = "remote %d")' % step) == 1

    remote_write(0)  # the seed carries it
    replica = ReplicaServer(server.address, name="diff-%d" % seed)
    replica.start()
    checkpoint = database.checkpoint

    def caught_up():
        # End on a fresh commit point the replica can be seen to reach.
        workload.text_commit()
        return wait_applied(replica, database._log.flushed_lsn)

    def checkpoint_once_caught_up():
        # The replica must hold everything the checkpoint is about to
        # drop, or it is (rightly) re-seeded.
        assert caught_up()
        checkpoint()

    database.checkpoint = checkpoint_once_caught_up
    try:
        assert wait_serving(replica)
        for step in range(15, 60):
            if step == 30:
                workload.checkpoint()
            if step % 7 == 0:
                remote_write(step)
            workload.step()
        assert caught_up()
        assert replica.metrics.value("repl.seeds_received") == 1
        live = table_state(database)
        ledger = dict(database.ledger)
        assert ledger == {"w0": (4, 1), "w1": (3, 1)}
        assert table_state(replica._state.database) == live
        assert replica._state.database.ledger == ledger
    finally:
        for writer in writers:
            writer.close()
        replica.stop()
        server.stop()
        mdm.close()
    reopened = Database(path)
    try:
        assert table_state(reopened) == live
        assert reopened.ledger == ledger
    finally:
        reopened.close()


# -- malformed redo input ------------------------------------------------------


def _wal_frame(lsn, table, row_bytes):
    """A well-framed (CRC-valid) commit of one run of rows to install,
    *row_bytes* whatever they are."""
    name = table.encode("utf-8")
    payload = (
        wal_module._HEAD.pack(lsn, wal_module.COMMIT)
        + wal_module._RUN.pack(wal_module._INSTALL_RUN, len(name), len(row_bytes))
        + name + row_bytes
    )
    return wal_module._FRAME.pack(
        len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


def _one_row_run():
    """The run of one row of a table ``t`` of one integer column ``v``:
    its count, column count and rowid take a byte each, then ``v``."""
    schema = TableSchema("t", [Column("v", "integer")])
    run = bytearray()
    encode_row_run([Row(1, schema.coerce({"v": 1}), schema.layout)], schema, run)
    return run


def _short_batch_frame(lsn=1):
    """A commit whose run promises three rows and carries one."""
    run = _one_row_run()
    run[0] = 3
    return _wal_frame(lsn, "t", bytes(run))


def _open_damaged_image(damage, match=None):
    """Open a checkpointed database whose image bytes *damage* rewrites;
    the refusal names *match*, where given."""
    def carrier(tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("v", "string")])
        db.bulk_ingest("t", [{"v": "value-%d" % i} for i in range(20)])
        db.checkpoint()
        db.close()
        image = os.path.join(path, "image.mdm")
        with open(image, "rb") as handle:
            raw = bytearray(handle.read())
        with open(image, "wb") as handle:
            handle.write(damage(raw))
        if match is not None:
            with pytest.raises(RecoveryError, match=match):
                Database(path)
        Database(path)
    return carrier


def _flip_a_byte(raw):
    """The damage that once reopened as other rows, with no error: one
    digit of a row's value."""
    raw[raw.rindex(b"value-1") + 6] ^= 0x06
    return raw


def _open_short_batch(tmp_path):
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("v", "integer")])
    db.close()
    with open(os.path.join(path, "wal.log"), "ab") as handle:
        handle.write(_short_batch_frame(100))
    Database(path)


def _open_batch_cut_at_a_column(tmp_path):
    """A run that ends after its rowids, where its column's null flag
    should be: the decoder reads it by index."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("v", "integer")])
    db.close()
    with open(os.path.join(path, "wal.log"), "ab") as handle:
        handle.write(_wal_frame(100, "t", bytes(_one_row_run()[:4])))
    Database(path)


def _open_misshapen(column, value):
    """Open a directory whose log installs a storage catalog row whose
    *column* is well-formed JSON of the wrong shape."""
    def carrier(tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("title", "string")])
        db.close()
        entry = {"table_name": "u", "columns": '[["title", "string"]]',
                 "text_indexed": "[]", column: value}
        schema = db.table(CATALOG).schema
        row = Row(99, schema.coerce(entry), schema.layout)
        with wal_module.WriteAheadLog(os.path.join(path, "wal.log")) as log:
            log.append_batch([("insert", CATALOG, row, None)], {CATALOG: schema})
            log.flush()
        with pytest.raises(RecoveryError, match="catalog row"):
            Database(path)
        Database(path)
    return carrier


def _open_another_format(filename, content):
    """Open a directory whose *filename* holds *content*: what an
    earlier format wrote, a bare frame log or a format-2 to -5 log."""
    def carrier(tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("v", "integer")])
        db.checkpoint()
        db.close()
        with open(os.path.join(path, filename), "wb") as handle:
            handle.write(content)
        with pytest.raises(RecoveryError, match="format-%d" % wal_module.LOG_FORMAT):
            Database(path)
        Database(path)
    return carrier


def _install_a_cut_seed(tmp_path):
    """A replica's seed that ends early, installed as a replica does."""
    seeded = Database()
    seeded.create_table("t", [("v", "integer")])
    seeded.bulk_ingest("t", [{"v": 1}, {"v": 2}])
    with seeded.image(10) as (_, pieces):
        seed = b"".join(pieces)
    _ReplicaState(seed[:-3])


@pytest.mark.parametrize("carrier, error", [
    (_open_damaged_image(lambda raw: b""), RecoveryError),
    (_open_damaged_image(lambda raw: raw[:-9]), RecoveryError),
    (_open_damaged_image(_flip_a_byte), RecoveryError),
    # A format-2 image held no ledger.
    (_open_damaged_image(
        lambda raw: raw[:7] + b"\x02" + raw[8:],
        match="format-%d" % image_module.FORMAT,
    ), RecoveryError),
    # A format-1 image held its rows a tagged field at a time.
    (_open_damaged_image(
        lambda raw: raw[:7] + b"\x01" + raw[8:],
        match="format-%d" % image_module.FORMAT,
    ), RecoveryError),
    (_open_damaged_image(lambda raw: b"MDM1" + raw[4:]), RecoveryError),
    (_open_short_batch, RecoveryError),
    (_open_batch_cut_at_a_column, RecoveryError),
    (_install_a_cut_seed, RecoveryError),
    # Each of these would escape untyped or misleading: a TypeError
    # from a number walked as a list, a column named "t" from a string.
    (_open_misshapen("columns", "[1, 2]"), RecoveryError),
    (_open_misshapen("columns", '"title"'), RecoveryError),
    (_open_misshapen("columns", '[["title"]]'), RecoveryError),
    (_open_misshapen("text_indexed", "[1, 2]"), RecoveryError),
    (_open_misshapen("text_indexed", '"title"'), RecoveryError),
    (_open_misshapen("text_indexed", "3"), RecoveryError),
    (_open_another_format("wal.log", _short_batch_frame()), RecoveryError),
    # A format-2 directory's log holds only what followed the checkpoint
    # its roots.json named: refused, not opened as if it were all.
    (_open_another_format(
        "wal.log", b"MDM-WAL\x02" + _short_batch_frame()
    ), RecoveryError),
    # A format-3 log wrote a transaction as a run of frames, and rows
    # as another encoding: refused, never misread.
    (_open_another_format(
        "wal.log", b"MDM-WAL\x03" + _short_batch_frame()
    ), RecoveryError),
    # A format-4 log held its rows a tagged field at a time.
    (_open_another_format(
        "wal.log", b"MDM-WAL\x04" + _short_batch_frame()
    ), RecoveryError),
    # A format-5 log kept exactly-once state in a table of its own.
    (_open_another_format(
        "wal.log", b"MDM-WAL\x05" + _short_batch_frame()
    ), RecoveryError),
], ids=[
    "empty-image", "truncated-image", "flipped-byte-image",
    "another-image-format", "format-1-image", "another-image-magic", "short-batch",
    "batch-cut-at-a-column",
    "cut-seed", "catalog-list", "catalog-string", "catalog-short-pair",
    "text-indexes-list", "text-indexes-string", "text-indexes-number",
    "earlier-log-format", "format-2-log", "format-3-log", "format-4-log",
    "format-5-log",
])
def test_short_redo_input_raises_a_typed_error(tmp_path, carrier, error):
    with pytest.raises(error):
        carrier(tmp_path)


def test_short_shipped_batch_degrades_the_replica():
    """The same short run, shipped: the replica refuses it with
    REPL_ERROR and stops serving (it used to kill the feed thread)."""
    import socket

    from repro.net.transport import Transport

    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    replica = ReplicaServer(listener.getsockname(), name="short")
    replica.start()
    try:
        sock, _ = listener.accept()
        primary = Transport(sock)
        kind, _ = primary.recv(timeout=5.0)
        assert kind == protocol.REPL_HELLO
        seeded = Database()
        seeded.create_table("t", [("v", "integer")])
        send_seed(primary, 10, seeded)
        kind, _ = primary.recv(timeout=5.0)
        assert kind == protocol.REPL_ACK
        primary.send_raw(protocol.pack_repl_frame(11, _short_batch_frame(11)))
        kind, body = primary.recv(timeout=5.0)
        assert kind == protocol.REPL_ERROR
        assert protocol.unpack_json(kind, body)["code"] == "RecoveryError"
        status = replica.status()
        assert status["serving"] is False
        assert status["applied_lsn"] == 10
        primary.close()
    finally:
        replica.stop()
        listener.close()
