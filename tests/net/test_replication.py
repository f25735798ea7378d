"""WAL shipping: seeding, streaming, failover, quarantine, CRC refusal."""

import socket
import threading
import time

import pytest

from repro.errors import NetworkTimeoutError
from repro.net import MdmClient, protocol
from repro.net.transport import Transport
from tests.net.conftest import (
    ROLES,
    reply,
    serving,
    start_replica,
    wait_applied,
    wait_serving,
    wait_until,
)

pytestmark = pytest.mark.net


class TestShipping:
    def test_seed_then_stream(self, served_mdm, client):
        mdm, server = served_mdm
        client.execute("append to NOTE (degree = 1)")  # pre-seed write
        replica = start_replica(server)
        try:
            assert wait_serving(replica)
            client.execute("append to NOTE (degree = 2)")  # streamed write
            assert wait_applied(replica, client.last_commit_lsn)
            reader = MdmClient(server.address, replicas=[replica.address],
                               client_id="reader")
            try:
                reader.execute("range of n is NOTE")
                rows = reader.retrieve("retrieve (n.degree) where n.degree != 0")
                assert sorted(r["n.degree"] for r in rows) == [1, 2]
                assert replica.metrics.value("repl.reads_served") >= 1
            finally:
                reader.close()
        finally:
            replica.stop()

    def test_seed_carries_text_indexes(self, served_mdm, client):
        """A text index created before the seed point never re-ships as
        a stream frame; the seed's catalog must install it so streamed
        row changes keep the replica's postings maintained."""
        mdm, server = served_mdm
        client.execute("define entity SONG (title = string)")
        client.execute('append to SONG (title = "Prélude in C")')
        client.execute("define text index on SONG (title)")
        replica = start_replica(server, name="txt")
        try:
            assert wait_serving(replica)
            client.execute('append to SONG (title = "Nocturne Op. 9")')
            assert wait_applied(replica, client.last_commit_lsn)
            index = replica._state.database.table(
                "entity:SONG"
            ).text_index_for("title")
            assert index is not None
            assert len(index) == 2
            assert index.candidates_matching("nocturne") == {2}
            reader = MdmClient(server.address, replicas=[replica.address],
                               client_id="txt-reader")
            try:
                reader.execute("range of s is SONG")
                rows = reader.retrieve(
                    'retrieve (s.title) where matches(s.title, "prelude")'
                )
                assert [r["s.title"] for r in rows] == ["Prélude in C"]
            finally:
                reader.close()
        finally:
            replica.stop()

    def test_replica_reads_bind_indexes_while_rewrites_land(self, served_mdm):
        """A replica read is a pinned read: it must answer from the
        replica's indexes and still equal a state the primary committed,
        while shipped rewrites of the indexed key are being installed
        under it.  Exactness is judged on the replica itself -- the
        indexed answer against the scan-everything reference under one
        pin -- and against the primary by history: every answer is one
        of the states the writer left behind, never a mix."""
        mdm, server = served_mdm
        writer = MdmClient(server.address, client_id="writer")
        writer.execute(
            "define entity SONG (slot = integer, tag = string, title = string)"
        )
        for slot in range(12):
            writer.execute(
                'append to SONG (slot = %d, tag = "g0", title = "take zero")'
                % slot
            )
        writer.execute("define text index on SONG (title)")
        replica = start_replica(server, name="idx")
        reader = MdmClient(server.address, replicas=[replica.address],
                           client_id="idx-reader")
        #: tag -> the slots carrying it, after each write -- recorded
        #: *before* the write is sent, so the replica cannot show a
        #: state the history has not heard of yet.
        history = [{"g0": list(range(12))}]
        failures = []
        done = threading.Event()

        def rewrite():
            try:
                for step in range(1, 41):
                    slot = (step * 5) % 12
                    state = {
                        tag: [s for s in slots if s != slot]
                        for tag, slots in history[-1].items()
                    }
                    state["g%d" % step] = [slot]
                    history.append({t: s for t, s in state.items() if s})
                    writer.execute(
                        'replace s (tag = "g%d", title = "take %d") '
                        "where s.slot = %d" % (step, step, slot)
                    )
            except BaseException as error:
                failures.append(error)
            finally:
                done.set()

        try:
            assert wait_serving(replica)
            writer.execute("range of s is SONG")
            reader.execute("range of s is SONG")
            plan = reader.retrieve(
                'explain retrieve (s.slot) where s.tag = "g0"'
            )
            assert plan == [{"plan": "bind s via index (12 candidates)"}]
            served_before = replica.metrics.value("repl.reads_served")
            thread = threading.Thread(target=rewrite)
            thread.start()
            reads = 0
            last = 0
            while not done.is_set() or reads < 20:
                rows = reader.retrieve(
                    'retrieve (s.slot, s.tag) where s.tag = "g0"'
                )
                seen = sorted(r["s.slot"] for r in rows)
                assert all(r["s.tag"] == "g0" for r in rows)
                # One of the written states, and never an older one
                # than the read before saw (g0 only ever shrinks, so
                # the first state showing this g0 dates the read).
                at = [state.get("g0", []) for state in history].index(seen)
                assert at >= last
                last = at
                self._assert_replica_index_equals_its_scan(replica)
                reads += 1
            thread.join(timeout=30)
            assert not thread.is_alive() and not failures, failures
            assert replica.metrics.value("repl.reads_served") \
                >= served_before + reads
            # Caught up: replica, primary and the model agree exactly.
            assert wait_applied(replica, writer.last_commit_lsn)
            for tag, slots in history[-1].items():
                source = 'retrieve (s.slot) where s.tag = "%s"' % tag
                on_replica = reader.retrieve(source)
                assert sorted(r["s.slot"] for r in on_replica) == slots
                assert on_replica == writer.retrieve(source)
            state = replica._state.database
            assert state.metrics.value("quel.snapshot_index_reads") > reads
            assert state.metrics.value("quel.snapshot_scan_fallbacks") == 0
        finally:
            done.set()
            reader.close()
            writer.close()
            replica.stop()

    @staticmethod
    def _assert_replica_index_equals_its_scan(replica):
        """Under one pin on the replica's database: every indexed QUEL
        source against the reference oracle's full scans."""
        from repro.quel.executor import QuelSession
        from tests.quel.reference import reference_execute

        state = replica._state
        transactions = state.database.transactions
        session = QuelSession(state.schema)
        session.execute("range of s is SONG")
        transactions.pin_snapshot()
        try:
            for source, label in (
                ('retrieve (s.slot, s.tag) where s.tag = "g0"', "index"),
                ('retrieve (s.slot) where matches(s.title, "take zero")',
                 "index text"),
                ('retrieve (s.slot) where matches(s.title, "take") limit 4',
                 "index text stream"),
            ):
                assert session.execute(source) == reference_execute(
                    state.schema, "range of s is SONG\n" + source
                ), source
                assert session.last_plan_object.label == label
        finally:
            transactions.unpin_snapshot()

    def test_read_your_writes_via_min_lsn(self, served_mdm):
        _, server = served_mdm
        replica = start_replica(server)
        try:
            assert wait_serving(replica)
            client = MdmClient(server.address, replicas=[replica.address],
                               client_id="ryw")
            try:
                client.execute("range of n is NOTE")
                for degree in range(10):
                    client.execute("append to NOTE (degree = %d)" % degree)
                    # Immediately read back: min_lsn forces the replica
                    # to be caught up (or the client to fail over).
                    rows = client.retrieve(
                        "retrieve (n.degree) where n.degree = %d" % degree
                    )
                    assert [r["n.degree"] for r in rows] == [degree]
            finally:
                client.close()
        finally:
            replica.stop()

    def test_replicas_meta_command_lists_peers(self, served_mdm, client):
        _, server = served_mdm
        replica = start_replica(server, name="shown")
        try:
            assert wait_serving(replica)
            listing = client.meta("\\replicas")
            assert "shown" in listing
            assert "streaming" in listing
        finally:
            replica.stop()


class TestFailover:
    def test_replica_death_is_invisible_to_readers(self, served_mdm):
        """Kill a replica mid-run: retrieves keep succeeding, zero errors."""
        _, server = served_mdm
        r1 = start_replica(server, name="r1")
        r2 = start_replica(server, name="r2")
        assert wait_serving(r1) and wait_serving(r2)
        client = MdmClient(server.address,
                           replicas=[r1.address, r2.address],
                           client_id="failover")
        try:
            client.execute("range of n is NOTE")
            client.execute("append to NOTE (degree = 42)")
            for i in range(20):
                if i == 5:
                    r1.stop()  # dies mid-run
                if i == 12:
                    r2.stop()  # now primary-only
                rows = client.retrieve(
                    "retrieve (n.degree) where n.degree = 42"
                )
                assert [r["n.degree"] for r in rows] == [42]
            assert client.metrics.value("client.failovers") >= 1
        finally:
            client.close()
            r1.stop()
            r2.stop()

    def test_degraded_to_primary_only_without_replicas(self, served_mdm):
        _, server = served_mdm
        # A replica address nobody listens on: cooldown + primary serve.
        dead = ("127.0.0.1", 1)  # port 1: connection refused
        client = MdmClient(server.address, replicas=[dead],
                           client_id="lonely", connect_timeout=0.2)
        try:
            client.execute("range of n is NOTE")
            client.execute("append to NOTE (degree = 9)")
            rows = client.retrieve("retrieve (n.degree) where n.degree = 9")
            assert [r["n.degree"] for r in rows] == [9]
            assert client.metrics.value("client.failovers") >= 1
        finally:
            client.close()


class TestQuarantine:
    def test_ddl_after_seed_quarantines_then_reseeds(self, served_mdm, client):
        """Un-shipped DDL leaves the replica behind; re-seed catches it up."""
        mdm, server = served_mdm
        replica = start_replica(server, name="q")
        try:
            assert wait_serving(replica)
            seeds_before = replica.metrics.value("repl.seeds_received")
            client.execute("define entity GADGET (size = integer)")
            client.execute("append to GADGET (size = 3)")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if replica.metrics.value("repl.seeds_received") > seeds_before:
                    break
                time.sleep(0.05)
            assert replica.metrics.value("repl.seeds_received") > seeds_before
            assert wait_applied(replica, client.last_commit_lsn)
            assert mdm.database.metrics.value("repl.quarantines") >= 1
            reader = MdmClient(server.address, replicas=[replica.address],
                               client_id="qr")
            try:
                reader.execute("range of g is GADGET")
                rows = reader.retrieve("retrieve (g.size) where g.size = 3")
                assert [r["g.size"] for r in rows] == [3]
            finally:
                reader.close()
            status = server.replication.status()
            (peer,) = [p for p in status if p["name"] == "q"]
            assert peer["quarantines"] >= 1
            assert peer["state"] == "streaming"
        finally:
            replica.stop()


class TestReconnectResume:
    def test_in_flight_txn_survives_reconnect_exactly_once(self, tmp_path):
        """Feed torn inside a transaction: after its BEGIN and one of
        its two changes.

        The replica drops the partial buffer and resumes at its
        ``applied_lsn`` -- a transaction's frames are contiguous, so all
        of them lie above the last applied commit point -- rebuilds the
        transaction from the re-stream and installs it exactly once.
        """
        from repro.net.replica import ReplicaServer
        from repro.storage import wal as wal_module
        from repro.storage.database import Database

        # The log is the writer's own: two explicit transactions.
        with Database(str(tmp_path / "primary")) as db:
            table = db.create_table("t", [("v", "integer")])
            with db.begin():
                table.insert({"v": 1})
            with db.begin():
                table.insert({"v": 2})
                table.insert({"v": 3})
            frames = dict(db._log.stream_frames(1))
        kinds = [wal_module.decode_frame(frames[lsn])[2] for lsn in sorted(frames)]
        B, I, C = wal_module.BEGIN, wal_module.INSERT, wal_module.COMMIT
        assert kinds == [B, I, C, B, I, I, C]  # LSNs 1..7

        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        manifest = {"entities": [], "relationships": [], "orderings": []}
        tables = [{"name": "t", "columns": [["v", "integer"]]}]
        replica = ReplicaServer(listener.getsockname(), name="resume",
                                reconnect_base=0.01)
        replica.start()
        try:
            sock, _ = listener.accept()
            primary = Transport(sock)
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_HELLO
            assert protocol.unpack_json(kind, body)["last_lsn"] == 0
            primary.send(protocol.REPL_SEED,
                         {"lsn": 0, "schema": manifest, "tables": tables})
            primary.send(protocol.REPL_SEED_END, {"lsn": 0})
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_ACK
            for lsn in range(1, 6):  # cut after BEGIN + one change of txn 2
                primary.send_raw(protocol.pack_repl_frame(lsn, frames[lsn]))
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_ACK
            assert protocol.unpack_json(kind, body)["lsn"] == 3
            primary.close()  # torn feed: txn 2 is half buffered

            sock, _ = listener.accept()
            primary = Transport(sock)
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_HELLO
            # The resume point is applied_lsn itself; nothing to back below.
            assert protocol.unpack_json(kind, body)["last_lsn"] == 3
            assert replica.status()["applied_lsn"] == 3
            for lsn in range(4, 8):  # re-stream txn 2, whole
                primary.send_raw(protocol.pack_repl_frame(lsn, frames[lsn]))
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_ACK
            assert protocol.unpack_json(kind, body)["lsn"] == 7
            assert wait_applied(replica, 7)
            table = replica._state.database.table("t")
            # Exactly once: the change buffered before the cut is not doubled.
            assert sorted(row["v"] for row in table) == [1, 2, 3]
            with pytest.raises(NetworkTimeoutError):  # one ACK, no more
                primary.recv(timeout=0.2)
            primary.close()
        finally:
            replica.stop()
            listener.close()


class TestReaderIsolation:
    @pytest.mark.parametrize("role", ROLES)
    def test_reader_connections_have_independent_sessions(self, served_mdm,
                                                          client, role):
        """One reader's range declarations must not rebind another's,
        whichever role answers (``primary``: no replicas, so every
        retrieve is MdmServer's)."""
        _, server = served_mdm
        client.execute("define entity GADGET (size = integer)")
        client.execute("append to NOTE (degree = 1)")
        client.execute("append to GADGET (size = 2)")
        replica = start_replica(server, name="iso") \
            if role == "replica" else None
        replicas = [replica.address] if replica else []
        try:
            if replica:
                assert wait_serving(replica)
                assert wait_applied(replica, client.last_commit_lsn)
            r1 = MdmClient(server.address, replicas=replicas,
                           client_id="iso-a")
            r2 = MdmClient(server.address, replicas=replicas,
                           client_id="iso-b")
            try:
                r1.execute("range of x is NOTE")
                r2.execute("range of x is GADGET")
                note = "retrieve (x.degree) where x.degree != 0"
                gadget = "retrieve (x.size) where x.size != 0"
                assert r1.retrieve(note) == [{"x.degree": 1}]
                assert r2.retrieve(gadget) == [{"x.size": 2}]
                # Interleave again on the same, now-warm connections: a
                # shared session would have x rebound to GADGET here.
                assert r1.retrieve(note) == [{"x.degree": 1}]
                # Every retrieve was served by the replica — a clobbered
                # session errors there and silently fails over instead.
                assert r1.metrics.value("client.failovers") == 0
                assert r2.metrics.value("client.failovers") == 0
            finally:
                r1.close()
                r2.close()
        finally:
            if replica:
                replica.stop()

    def test_writes_go_through_the_connections_own_ranges(self, served_mdm,
                                                          client):
        """Same variable, same attribute name, two connections: a
        replace or delete through ``x`` touches its own type's rows."""
        mdm, server = served_mdm
        client.execute("define entity GADGET (degree = integer)")
        client.execute("append to NOTE (degree = 1)")
        client.execute("append to GADGET (degree = 1)")
        a = MdmClient(server.address, client_id="iso-w-a")
        b = MdmClient(server.address, client_id="iso-w-b")

        def degrees(type_name):
            return [i.get("degree")
                    for i in mdm.schema.entity_type(type_name).instances()]

        try:
            a.execute("range of x is NOTE")
            b.execute("range of x is GADGET")
            assert a.execute("replace x (degree = 9) where x.degree = 1") == 1
            assert degrees("NOTE") == [9]
            assert degrees("GADGET") == [1]
            assert a.execute("delete x where x.degree = 9") == 1
            assert degrees("NOTE") == []
            assert degrees("GADGET") == [1]
        finally:
            a.close()
            b.close()

    def test_concurrent_redeclaration_never_leaks(self, served_mdm, client):
        """Two clients re-declare a conflicting ``x`` before every
        retrieve, each on its own thread: every answer is the one a
        lone client gets, and nothing errors."""
        _, server = served_mdm
        client.execute("define entity GADGET (degree = integer)")
        client.execute("append to NOTE (degree = 1)")
        client.execute("append to GADGET (degree = 2)")
        wrong = []

        def read(type_name, expected):
            reader = MdmClient(server.address)
            try:
                for _ in range(300):
                    reader.execute("range of x is %s" % type_name)
                    rows = reader.retrieve(
                        "retrieve (x.degree) where x.degree != 0"
                    )
                    if rows != [{"x.degree": expected}]:
                        wrong.append((type_name, rows))
            except Exception as error:
                wrong.append((type_name, error))
            finally:
                reader.close()

        threads = [
            threading.Thread(target=read, args=("NOTE", 1)),
            threading.Thread(target=read, args=("GADGET", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not wrong, wrong[:3]


class TestReplicaRefusals:
    def test_refusals_and_counters_on_the_replicas_registry(self, tmp_path):
        """Raw frames at a replica: reads are served, anything else is a
        non-retryable ``ReadOnlyError``, lag is retryable, and the
        ``net.*`` counters land in the replica's own registry."""
        with serving(tmp_path, "replica") as (replica, metrics, _connect):
            with Transport.connect(replica.address) as wire:
                wire.send(protocol.HELLO, {
                    "proto": protocol.PROTOCOL_VERSION, "client": "raw",
                })
                welcome = reply(wire, protocol.WELCOME)
                assert (welcome["role"], welcome["last_seq"]) == ("replica", 0)
                assert metrics.value("net.connections") == 1

                read = {"seq": None, "read_only": True, "timeout_s": 5.0,
                        "source": "retrieve (NOTE.degree)"}
                wire.send(protocol.REQUEST, read)
                assert reply(wire, protocol.RESULT)["value"] == []
                assert metrics.value("repl.reads_served") == 1

                write = {"seq": 1, "read_only": False,
                         "source": "append to NOTE (degree = 1)"}
                meta = {"seq": None, "command": "\\health"}
                for kind, body in (
                    (protocol.REQUEST, write), (protocol.META, meta),
                ):
                    wire.send(kind, body)
                    refusal = reply(wire, protocol.ERROR)
                    assert refusal["code"] == "ReadOnlyError"
                    assert refusal["retryable"] is False

                wire.send(protocol.REQUEST, dict(read, min_lsn=10 ** 9))
                refusal = reply(wire, protocol.ERROR)
                assert refusal["code"] == "ReplicaLagError"
                assert refusal["retryable"] is True
                assert metrics.value("repl.lag_refusals") == 1

                assert metrics.value("net.requests") == 3
                assert metrics.value("net.errors") == 3
                assert metrics.value("repl.reads_served") == 1
                wire.send(protocol.BYE, {})
            assert wait_until(
                lambda: metrics.value("net.connections") == 0
            )


class TestCrcRefusal:
    def test_corrupt_shipped_frame_degrades_until_reseed(self):
        """A replica refuses a torn WAL frame and recovers via re-seed."""
        from repro.net.replica import ReplicaServer

        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        replica = ReplicaServer(listener.getsockname(), name="crc")
        replica.start()
        try:
            sock, _ = listener.accept()
            primary = Transport(sock)
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_HELLO
            manifest = {"entities": [], "relationships": [], "orderings": []}
            primary.send(protocol.REPL_SEED, {
                "lsn": 10, "schema": manifest, "tables": [],
            })
            primary.send(protocol.REPL_SEED_END, {"lsn": 10})
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_ACK
            assert protocol.unpack_json(kind, body)["lsn"] == 10
            assert wait_serving(replica)

            primary.send_raw(protocol.pack_repl_frame(11, b"torn-garbage"))
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_ERROR
            status = replica.status()
            assert status["serving"] is False
            assert "corrupt" in status["last_error"]
            assert replica.metrics.value("repl.crc_failures") == 1

            # The primary's quarantine response: a fresh seed heals it.
            primary.send(protocol.REPL_SEED, {
                "lsn": 20, "schema": manifest, "tables": [],
            })
            primary.send(protocol.REPL_SEED_END, {"lsn": 20})
            kind, body = primary.recv(timeout=5.0)
            assert kind == protocol.REPL_ACK
            assert wait_serving(replica)
            assert replica.status()["applied_lsn"] == 20
            primary.close()
        finally:
            replica.stop()
            listener.close()


class TestReplicaVersionChains:
    def test_shipped_rewrites_prune_the_chain(self, served_mdm):
        """Redo on a replica prunes like the primary's own write path:
        the chain of a hot row stays bounded, a pinned reader keeps its
        version, and a shipped CHECKPOINT sweeps what a delete left."""
        mdm, server = served_mdm
        database = mdm.database
        table = database.create_table("hot", [("v", "integer")])
        row = table.insert({"v": 0})
        replica = start_replica(server, name="chains")
        try:
            assert wait_serving(replica)
            assert wait_applied(replica, database._log.flushed_lsn)
            shadow = replica._state.database
            chains = shadow.table("hot")._chains

            pinned = shadow.transactions.pin_snapshot()
            try:
                for v in range(1, 101):
                    table.update(row.rowid, {"v": v})
                    assert shadow.table("hot").get(row.rowid)["v"] == 0
                assert wait_applied(replica, database._log.flushed_lsn)
                assert shadow.table("hot").get(row.rowid)["v"] == 0
            finally:
                shadow.transactions.unpin_snapshot()
            assert pinned < replica.applied_lsn

            for v in range(101, 201):
                table.update(row.rowid, {"v": v})
            assert wait_applied(replica, database._log.flushed_lsn)
            assert len(chains[row.rowid]) <= 2
            assert chains[row.rowid][-1].row["v"] == 200

            table.delete(row.rowid)
            assert wait_applied(replica, database._log.flushed_lsn)
            database.checkpoint()  # ships a CHECKPOINT record
            assert wait_applied(replica, database._log.flushed_lsn)
            assert row.rowid not in chains
            # All of it arrived as shipped frames, not as a re-seed.
            assert replica.metrics.value("repl.seeds_received") == 1
        finally:
            replica.stop()
