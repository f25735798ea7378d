"""Exactly-once remote writes, kept by the commit frame and the ledger.

A write's commit frame carries ``(client, seq, result)`` and sets the
client's entry in ``Database.ledger``; a per-client guard runs one
write of a client at a time.  What that guarantees, checked against the
ledger:

* two connections of one client sending one seq at once commit it once;
* a write parked in its flush holds no lock another client's write
  needs: that write runs its statement meanwhile;
* ``WELCOME`` reports only a durable seq, and a failed commit puts its
  client's entry back;
* a restarted server answers a re-sent seq from the checkpoint image's
  ledger, or from the redo of the log when there is no image;
* under concurrent writers, every snapshot pinned with the ledger sees
  each client's entry and its newest row as one state.
"""

import os
import sys
import threading

import pytest

from repro.errors import MDMError, NetworkTimeoutError, RetryExhaustedError
from repro.mdm.manager import MusicDataManager
from repro.net import MdmClient, MdmServer, protocol
from repro.net.transport import Transport
from repro.quel.executor import QuelSession
from repro.storage import image
from repro.storage.faults import FaultPlan
from tests.net.conftest import reply, wait_until

pytestmark = pytest.mark.net


class _FlushParking(FaultPlan):
    """A fault plan whose next fsync, once armed, parks until released."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.parked = threading.Event()
        self.released = threading.Event()

    def _on_sync(self, faulty):
        if self.armed:
            self.armed = False
            self.parked.set()
            self.released.wait(10)
        super()._on_sync(faulty)


@pytest.fixture
def parking(tmp_path):
    """``(plan, mdm, server)``: a served MDM whose files go through a
    :class:`_FlushParking` plan."""
    plan = _FlushParking()
    mdm = MusicDataManager(str(tmp_path / "db"), opener=plan.opener)
    server = MdmServer(mdm)
    server.start()
    yield plan, mdm, server
    plan.released.set()
    server.stop()
    mdm.close()


def _connect(server, client_id):
    """A raw connection past its handshake; returns it and ``WELCOME``."""
    wire = Transport.connect(server.address, 5.0)
    wire.send(protocol.HELLO, {
        "proto": protocol.PROTOCOL_VERSION, "client": client_id,
        "last_seq": 0,
    })
    return wire, reply(wire, protocol.WELCOME)


def _write(wire, seq, source):
    wire.send(protocol.REQUEST, {
        "seq": seq, "source": source, "read_only": False, "timeout_s": 5.0,
    })


def _degrees(mdm):
    return sorted(row["n.degree"] for row in mdm.retrieve(
        "range of n is NOTE retrieve (n.degree)"
    ))


def _in_thread(target):
    outcome = {}

    def run():
        try:
            outcome["value"] = target()
        except Exception as error:  # surfaced by the caller's asserts
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def test_one_seq_sent_on_two_connections_at_once_commits_once(parking):
    plan, mdm, server = parking
    first, _ = _connect(server, "twice")
    second, _ = _connect(server, "twice")
    try:
        plan.armed = True
        _write(first, 1, "append to NOTE (degree = 4)")
        assert plan.parked.wait(5)  # committed, not yet durable
        requests = mdm.database.metrics.value("net.requests")
        _write(second, 1, "append to NOTE (degree = 4)")
        assert wait_until(
            lambda: mdm.database.metrics.value("net.requests") > requests
        )
        # Answered now, the resend would ack a commit not yet durable.
        with pytest.raises(NetworkTimeoutError):
            second.recv(timeout=0.3)
        plan.released.set()
        answers = [reply(first, protocol.RESULT), reply(second, protocol.RESULT)]
    finally:
        first.close()
        second.close()
    assert [(a["duplicate"], a["value"]) for a in answers] == [
        (False, 1), (True, 1),
    ]
    assert _degrees(mdm) == [4]
    assert mdm.database.ledger["twice"] == (1, 1)


def test_a_write_parked_in_its_flush_does_not_hold_another_clients(
    parking, monkeypatch
):
    """The TRACK write holds its client's guard and the log through its
    fsync, nothing else: the NOTE write of another client runs its
    statement meanwhile, and rides the next flush."""
    plan, mdm, server = parking
    tracks = MdmClient(server.address, client_id="tracks")
    notes = MdmClient(server.address, client_id="notes")
    tracks.execute("define entity TRACK (title = string)")
    ran = threading.Event()
    execute = QuelSession.execute

    def recording(session, source, tuples=False):
        result = execute(session, source, tuples)
        if "NOTE" in source:
            ran.set()
        return result

    monkeypatch.setattr(QuelSession, "execute", recording)
    try:
        plan.armed = True
        track, track_outcome = _in_thread(
            lambda: tracks.execute('append to TRACK (title = "Aria")')
        )
        assert plan.parked.wait(5)
        note, note_outcome = _in_thread(
            lambda: notes.execute("append to NOTE (degree = 2)")
        )
        assert ran.wait(5), "the NOTE write waited for the parked TRACK write"
        assert note.is_alive()  # its commit waits for the log
        plan.released.set()
        track.join(10)
        note.join(10)
        assert track_outcome == {"value": 1} and note_outcome == {"value": 1}
    finally:
        plan.released.set()
        tracks.close()
        notes.close()
    assert mdm.database.ledger["tracks"][1] == 1
    assert mdm.database.ledger["notes"] == (1, 1)


def test_welcome_reports_only_a_durable_seq(parking):
    plan, mdm, server = parking
    client = MdmClient(server.address, client_id="w")
    try:
        assert client.execute("append to NOTE (degree = 1)") == 1
        plan.armed = True
        write, outcome = _in_thread(
            lambda: client.execute("append to NOTE (degree = 2)")
        )
        assert plan.parked.wait(5)
        assert mdm.database.ledger["w"] == (2, 1)  # set with the stamps
        wire, welcome = _connect(server, "w")
        wire.close()
        assert welcome["last_seq"] == 1  # seq 2 is not durable yet
        plan.released.set()
        write.join(10)
        assert outcome == {"value": 1}
        wire, welcome = _connect(server, "w")
        wire.close()
        assert welcome["last_seq"] == 2
    finally:
        plan.released.set()
        client.close()


def test_a_failed_commit_puts_the_entry_back(tmp_path):
    plan = FaultPlan()
    mdm = MusicDataManager(str(tmp_path / "db"), opener=plan.opener)
    server = MdmServer(mdm)
    server.start()
    client = MdmClient(server.address, client_id="f", max_attempts=1)
    try:
        assert client.execute("append to NOTE (degree = 1)") == 1
        plan.io_error_at_sync = plan.sync_count + 1
        with pytest.raises(MDMError):
            client.execute("append to NOTE (degree = 2)")
        assert mdm.database.ledger["f"] == (1, 1)
        assert mdm.database.transactions.durable_entry("f") == (1, 1)
        plan.io_error_at_sync = None
        plan.heal_io()
        mdm.database.exit_degraded()
        assert client.execute("append to NOTE (degree = 3)") == 1
        assert mdm.database.ledger["f"][1] == 1
        assert _degrees(mdm) == [1, 3]
    finally:
        client.close()
        server.stop()
        mdm.close()


@pytest.mark.parametrize("checkpointed", [False, True],
                         ids=["from-redo", "from-image"])
def test_a_restarted_server_answers_a_resent_seq(tmp_path, checkpointed):
    """The ack of a durable write is lost; the server restarts, from a
    checkpoint image or from its log alone, and answers the re-sent seq
    as a duplicate without running it again."""
    path = str(tmp_path / "db")
    mdm = MusicDataManager(path)
    server = MdmServer(mdm)
    server.start()
    port = server.address[1]

    def crash(client_id, seq):
        raise RuntimeError("die before ack")

    server.on_pre_ack = crash
    client = MdmClient(server.address, client_id="c", max_attempts=1,
                       backoff_base=0.001, default_timeout=2.0)
    with pytest.raises(RetryExhaustedError):
        client.execute("append to NOTE (degree = 9)")
    server.stop()
    if checkpointed:
        mdm.checkpoint()
    mdm.close()
    image_path = os.path.join(path, "image.mdm")
    if checkpointed:
        _, ledger, _ = image.unpack(
            lambda: open(image_path, "rb"), lambda name: None
        )
        assert ledger == {"c": (1, 1)}
    else:
        assert not os.path.exists(image_path)

    mdm = MusicDataManager.reopen(path)
    if checkpointed:  # the log past the image holds no commit
        assert mdm.database.metrics.value("db.recovery.redo_records") <= 1
    assert mdm.database.ledger == {"c": (1, 1)}
    server = MdmServer(mdm, port=port)
    server.start()
    try:
        assert client.execute("append to NOTE (degree = 9)") == 1
        assert client.metrics.value("client.duplicate_acks") == 1
        assert _degrees(mdm) == [9]
    finally:
        client.close()
        server.stop()
        mdm.close()


def test_writers_beside_a_pinning_reader_keep_ledger_and_rows_one_state(
    served_mdm
):
    """Four clients, each appending to a type of its own so no lock is
    contended, write while a reader pins snapshots with the ledger
    (``pin_with_ledger``, what an image takes): at every pin, each
    client's entry is the seq of its newest row the snapshot sees."""
    mdm, server = served_mdm
    clients, writes = 4, 25
    for index in range(clients):
        mdm.execute("define entity S%d (seq = integer)" % index)
    transactions = mdm.database.transactions
    done = threading.Event()
    seen = []

    def write(index):
        client = MdmClient(server.address, client_id="s%d" % index)
        try:
            for seq in range(1, writes + 1):
                statement = "append to S%d (seq = %d)" % (index, seq)
                assert client.execute(statement) == 1
        finally:
            client.close()

    def newest(index):
        rows = mdm.retrieve("range of s is S%d retrieve (s.seq)" % index)
        return max((row["s.seq"] for row in rows), default=0)

    def pin_and_check():
        while not done.is_set():
            lsn, ledger = transactions.pin_with_ledger()
            try:
                rows = {"s%d" % index: newest(index) for index in range(clients)}
            finally:
                transactions.unpin_snapshot()
            seen.append(sum(rows.values()))
            answered = {client: entry[0] for client, entry in ledger.items()}
            assert answered == {c: n for c, n in rows.items() if n}, lsn

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        checker, checked = _in_thread(pin_and_check)
        writers = [_in_thread(lambda i=i: write(i)) for i in range(clients)]
        for thread, outcome in writers:
            thread.join(60)
            assert not thread.is_alive() and outcome == {"value": None}
        done.set()
        checker.join(60)
        assert not checker.is_alive() and checked == {"value": None}
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert len(set(seen)) > 1  # the reader saw the writes land
    assert mdm.database.ledger == {
        "s%d" % index: (writes, 1) for index in range(clients)
    }
