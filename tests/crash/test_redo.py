"""One redo path, two consumers: recovery and replicas must agree.

``repro.storage.wal.RedoApplier`` is the only code that decides what a
log record does to a table.  Crash recovery feeds it the log file, a
WAL-shipping replica feeds it shipped frames.  Two checks live here:

* a seeded differential test -- the crash oracle's one workload on a
  durable primary with a replica attached part-way in, so its seed
  carries rows; the live tables, the tables after reopening the
  directory and the replica's tables at its applied LSN must be the
  same rowid for rowid,
  and every index registered on each -- the schema's hash and ordered-
  composite ones, the trigram ones -- must equal the crash battery's
  rebuild-from-rows oracle (the live side got there by per-row upkeep,
  recovery and the seed by one deferred build each);
* malformed redo input -- a cut table image, a ``BATCH_INSERT`` body
  shorter than its count, a ``REPL_ROWS`` body that runs out of bytes --
  raises a typed ``repro.errors`` exception from every carrier, never a
  bare ``struct.error``.

Marked both ``crash`` and ``net``: ``scripts/crash_smoke.sh`` and
``scripts/net_smoke.sh`` each run the differential test, so either
smoke catches the two consumers drifting apart.
"""

import os
import struct
import zlib

import pytest

from repro.errors import ProtocolError, RecoveryError
from repro.mdm.manager import MusicDataManager
from repro.net import MdmServer, ReplicaServer, protocol
from repro.storage import wal as wal_module
from repro.storage.database import Database
from repro.storage.pager import PAGE_SIZE
from repro.storage.row import Row

from tests.crash.oracle import Workload, table_state
from tests.net.conftest import wait_applied, wait_serving

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
    # A lag budget no burst of this workload can exceed: every later
    # change must reach the replica as a shipped frame, never as a
    # re-seed.
    server = MdmServer(mdm, lag_budget=10 ** 6)
    server.start()
    replica = ReplicaServer(server.address, name="diff-%d" % seed)
    replica.start()
    checkpoint = database.checkpoint

    def caught_up():
        # End on a fresh commit point the replica can be seen to reach.
        workload.text_commit()
        return wait_applied(replica, database._log.flushed_lsn)

    def checkpoint_once_caught_up():
        # The replica must hold everything the checkpoint is about to
        # truncate, or it is (rightly) re-seeded.
        assert caught_up()
        checkpoint()

    database.checkpoint = checkpoint_once_caught_up
    try:
        assert wait_serving(replica)
        for step in range(15, 60):
            if step == 30:
                workload.checkpoint()
            workload.step()
        assert caught_up()
        assert replica.metrics.value("repl.seeds_received") == 1
        live = table_state(database)
        assert table_state(replica._state.database) == live
    finally:
        replica.stop()
        server.stop()
        mdm.close()
    reopened = Database(path)
    try:
        assert table_state(reopened) == live
    finally:
        reopened.close()


# -- malformed redo input ------------------------------------------------------


def _wal_frame(lsn, kind, table, row_bytes):
    """A well-framed (CRC-valid) log record with an arbitrary body."""
    name = table.encode("utf-8")
    payload = wal_module._BODY.pack(
        lsn, 1, kind, len(name), len(row_bytes), 0
    ) + name + row_bytes
    return wal_module._FRAME.pack(
        len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


def _short_batch_frame(lsn=1):
    """A BATCH_INSERT that promises three rows and carries one."""
    return _wal_frame(
        lsn, wal_module.BATCH_INSERT, "t",
        struct.pack("<I", 3) + Row(1, {"v": 1}).serialize(["v"]),
    )


def _open_cut_image(tmp_path, length):
    """Open a checkpointed database whose table image claims *length*
    bytes."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("v", "integer")])
    db.bulk_ingest("t", [{"v": i} for i in range(20)])
    db.checkpoint()
    db.close()
    (image,) = [n for n in os.listdir(path) if n.startswith("data.")]
    with open(os.path.join(path, image), "r+b") as handle:
        handle.seek(PAGE_SIZE)  # page 1 heads the only chain
        handle.write(struct.pack("<II", 0, length))
    Database(path)


def _open_short_batch(tmp_path):
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("v", "integer")])
    db.close()
    with open(os.path.join(path, "wal.log"), "ab") as handle:
        handle.write(_short_batch_frame())
    Database(path)


def _open_batch_cut_at_a_tag(tmp_path):
    """A run that ends after a row's header, where a field's tag byte
    should be: the decoder reads it by index."""
    path = str(tmp_path / "db")
    db = Database(path)
    db.create_table("t", [("v", "integer")])
    db.close()
    with open(os.path.join(path, "wal.log"), "ab") as handle:
        handle.write(_wal_frame(
            1, wal_module.BATCH_INSERT, "t",
            struct.pack("<I", 1) + Row(1, {"v": 1}).serialize(["v"])[:10],
        ))
    Database(path)


def _open_misshapen(filename, document):
    """Open a directory whose *filename* is well-formed JSON of the
    wrong shape."""
    def carrier(tmp_path):
        import json

        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table("t", [("title", "string")])
        db.create_text_index("t", "title")
        db.table("t").insert({"title": "Prélude"})
        db.close()
        with open(os.path.join(path, filename), "w") as handle:
            json.dump(document, handle)
        with pytest.raises(RecoveryError, match=filename):
            Database(path)
        Database(path)
    return carrier


def _unpack_short_repl_rows(tmp_path):
    frame = protocol.pack_repl_rows(
        "t", [Row(1, {"v": 1}), Row(2, {"v": 2})], ["v"]
    )
    body = frame[protocol.FRAME_HEADER.size + 1:-3]
    protocol.unpack_repl_rows(body, {"t": ["v"]})


@pytest.mark.parametrize("carrier, error", [
    (lambda tmp_path: _open_cut_image(tmp_path, 0), RecoveryError),
    (lambda tmp_path: _open_cut_image(tmp_path, 9), RecoveryError),
    (_open_short_batch, RecoveryError),
    (_open_batch_cut_at_a_tag, RecoveryError),
    (_unpack_short_repl_rows, ProtocolError),
    # Each of these escaped untyped or misleading: AttributeError on
    # ``.items()``, "no column 't'" from a string walked as a list.
    (_open_misshapen("catalog.json", [1, 2]), RecoveryError),
    (_open_misshapen("catalog.json", {"t": "title"}), RecoveryError),
    (_open_misshapen("catalog.json", {"t": [["title"]]}), RecoveryError),
    (_open_misshapen("text_indexes.json", [1, 2]), RecoveryError),
    (_open_misshapen("text_indexes.json", {"t": "title"}), RecoveryError),
    (_open_misshapen("text_indexes.json", {"t": [1]}), RecoveryError),
], ids=[
    "empty-image", "truncated-image", "short-batch", "batch-cut-at-a-tag",
    "short-repl-rows", "catalog-list", "catalog-string", "catalog-short-pair",
    "text-indexes-list", "text-indexes-string", "text-indexes-number",
])
def test_short_redo_input_raises_a_typed_error(tmp_path, carrier, error):
    with pytest.raises(error):
        carrier(tmp_path)


def test_short_shipped_batch_degrades_the_replica():
    """The same short BATCH_INSERT, shipped: the replica refuses it with
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
        primary.send(protocol.REPL_SEED, {
            "lsn": 10,
            "schema": {"entities": [], "relationships": [], "orderings": []},
            "tables": [{"name": "t", "columns": [["v", "integer"]]}],
        })
        primary.send(protocol.REPL_SEED_END, {"lsn": 10})
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
