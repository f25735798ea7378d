"""Server tests: remote sessions, structured errors, dedup, drain-on-close."""

import threading
import time

import pytest

from repro.errors import (
    MDMError,
    NetworkError,
    NetworkTimeoutError,
    ParseError,
    ProtocolError,
    QueryError,
    RetryExhaustedError,
    ShutdownError,
)
from repro.mdm.manager import MusicDataManager
from repro.net import MdmClient, MdmServer, protocol
from repro.net.server import DEDUP_TABLE
from repro.net.transport import Transport
from tests.net.conftest import ROLES, reply, serving, wait_until

pytestmark = pytest.mark.net


class TestBasicServing:
    def test_execute_and_retrieve_round_trip(self, client):
        client.execute("range of n is NOTE")
        count = client.execute("append to NOTE (degree = 5)")
        assert count == 1
        rows = client.retrieve("retrieve (n.degree) where n.degree = 5")
        assert rows == [{"n.degree": 5}]

    def test_meta_commands_serve_the_shell(self, client):
        health = client.meta("\\health")
        assert "mode" in health
        replicas = client.meta("\\replicas")
        assert "no replicas connected" in replicas

    def test_ddl_over_the_wire(self, served_mdm, client):
        mdm, _ = served_mdm
        client.execute("define entity WIDGET (weight = integer)")
        assert mdm.schema.has_entity_type("WIDGET")
        # Known by its first token, not its first characters.
        client.execute("-- a part\n  define entity GEAR (teeth = integer)")
        assert mdm.schema.has_entity_type("GEAR")
        with pytest.raises(ParseError, match="a QUEL statement"):
            client.execute("defined (x = 1)")  # an identifier, not the verb

    def test_errors_are_structured_and_typed(self, client):
        with pytest.raises(QueryError):
            client.execute("range of z is NO_SUCH_TYPE")

    def test_two_clients_multiplex_one_server(self, served_mdm):
        _, server = served_mdm
        a = MdmClient(server.address, client_id="a")
        b = MdmClient(server.address, client_id="b")
        try:
            a.execute("append to NOTE (degree = 1)")
            b.execute("append to NOTE (degree = 2)")
            a.execute("range of n is NOTE")
            rows = a.retrieve("retrieve (n.degree) where n.degree != 0")
            assert sorted(r["n.degree"] for r in rows) == [1, 2]
        finally:
            a.close()
            b.close()


class TestConnectionOwnsItsSession:
    def test_meta_speaks_for_its_own_connection(self, served_mdm):
        """``\\plan`` shows this client's last statement, and a range
        declared through ``META`` is this connection's alone."""
        mdm, server = served_mdm
        a = MdmClient(server.address, client_id="meta-a")
        b = MdmClient(server.address, client_id="meta-b")
        try:
            a.execute("append to NOTE (degree = 5)")
            a.execute("range of n is NOTE")
            b.execute("range of c is CHORD")
            a.retrieve("retrieve (n.degree) where n.degree = 5")
            b.retrieve("retrieve (c.duration)")
            assert "bind n via index" in a.meta("\\plan")
            assert "bind c via snapshot scan" in b.meta("\\plan")
            assert "bind n via index" in a.meta("\\plan")
            assert mdm.session.last_plan is None  # in-process callers' own

            assert a.meta("range of m is NOTE ;;") == "ok"
            assert a.retrieve("retrieve (m.degree)") == [{"m.degree": 5}]
            with pytest.raises(QueryError):
                b.retrieve("retrieve (m.degree)")
            assert "m" not in mdm.session.ranges
        finally:
            a.close()
            b.close()

    def test_the_plan_cache_and_the_registry_stay_shared(self, served_mdm):
        mdm, server = served_mdm
        hits = mdm.database.metrics.counter("quel.cache.hits")
        a = MdmClient(server.address, client_id="shared-a")
        b = MdmClient(server.address, client_id="shared-b")
        try:
            statement = "retrieve (n.degree) where n.degree != 0"
            a.execute("range of n is NOTE")
            b.execute("range of n is NOTE")
            a.retrieve(statement)
            before = hits.value
            b.retrieve(statement)  # compiled once, for the database
            assert hits.value == before + 1
        finally:
            a.close()
            b.close()


class TestPreambleReplay:
    def test_an_identical_declaration_is_replayed_once(self, served_mdm,
                                                       client):
        _, server = served_mdm
        for _ in range(1000):
            client.execute("range of n is NOTE")
        assert list(client._preamble) == ["range of n is NOTE"]
        frames = server.mdm.database.metrics.counter("net.frames_in")
        client._primary.close()  # a torn link, as the client sees it
        before = frames.value
        assert client.retrieve("retrieve (n.degree)") == []
        # HELLO, one replayed declaration, the retrieve.
        assert frames.value == before + 3

    def test_the_last_declaration_of_a_variable_wins(self, served_mdm,
                                                     client):
        client.execute("define entity GADGET (degree = integer)")
        client.execute("append to NOTE (degree = 1)")
        client.execute("append to GADGET (degree = 2)")
        client.execute("range of x is NOTE")
        client.execute("range of x is GADGET")
        client.execute("range of x is NOTE")
        client._primary.close()
        assert client.retrieve("retrieve (x.degree)") == [{"x.degree": 1}]

    @pytest.mark.parametrize("declaration", [
        "range  of t is NOTE",
        "-- the tracks\nrange of t is NOTE",
        "# tracks\n  RANGE\tOF t is NOTE",
    ])
    def test_a_declaration_is_known_by_its_tokens_not_its_prefix(
        self, served_mdm, client, declaration
    ):
        """Two spaces or a leading comment used to make it a *write*:
        answered 0, a durable ledger row and a seq spent, and -- never
        recorded for replay -- lost with the connection."""
        mdm, _ = served_mdm
        client.execute("append to NOTE (degree = 3)")
        seq = client._seq
        assert client.execute(declaration) is None
        assert client._seq == seq  # no ledger write, no seq
        assert list(client._preamble) == [declaration]
        client._primary.close()  # the transport drops
        assert client.retrieve("retrieve (t.degree)") == [{"t.degree": 3}]


class TestExactlyOnceDedup:
    def test_pre_ack_crash_does_not_double_apply(self, served_mdm):
        """Server dies between WAL flush and ack; the retry must dedup."""
        mdm, server = served_mdm
        crashes = {"left": 1}

        def crash_once(client_id, seq):
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("injected crash before ack")

        server.on_pre_ack = crash_once
        client = MdmClient(server.address, client_id="dedup",
                           backoff_base=0.001)
        try:
            count = client.execute("append to NOTE (degree = 7)")
            assert count == 1
            assert client.metrics.value("client.duplicate_acks") == 1
            client.execute("range of n is NOTE")
            rows = client.retrieve("retrieve (n.degree) where n.degree = 7")
            assert len(rows) == 1  # committed exactly once
        finally:
            client.close()

    def test_welcome_reports_last_committed_seq(self, served_mdm):
        _, server = served_mdm
        client = MdmClient(server.address, client_id="w")
        try:
            client.execute("append to NOTE (degree = 1)")
            client.execute("append to NOTE (degree = 2)")
        finally:
            client.close()
        fresh = MdmClient(server.address, client_id="w")
        try:
            fresh.execute("range of n is NOTE")  # connects, handshakes
            assert fresh._primary.welcome["last_seq"] == 2
        finally:
            fresh.close()

    def test_restarted_client_reusing_an_id_executes_new_writes(
            self, served_mdm):
        """A fresh client must adopt WELCOME's last_seq: starting over
        at seq 1 would have its genuinely new writes classified as
        duplicates of the previous client's history (stale results,
        statements silently not executed)."""
        _, server = served_mdm
        first = MdmClient(server.address, client_id="reuse")
        try:
            first.execute("append to NOTE (degree = 1)")
            first.execute("append to NOTE (degree = 2)")
        finally:
            first.close()
        fresh = MdmClient(server.address, client_id="reuse")
        try:
            count = fresh.execute("append to NOTE (degree = 3)")
            assert count == 1
            assert fresh.metrics.value("client.duplicate_acks") == 0
            assert fresh.last_seq == 3
            fresh.execute("range of n is NOTE")
            rows = fresh.retrieve("retrieve (n.degree) where n.degree = 3")
            assert len(rows) == 1  # the write really ran
        finally:
            fresh.close()

    def test_default_client_ids_are_unique(self, served_mdm):
        _, server = served_mdm
        a = MdmClient(server.address)
        b = MdmClient(server.address)
        try:
            assert a.client_id != b.client_id
        finally:
            a.close()
            b.close()

    def test_ledger_row_commits_with_the_statement(self, served_mdm, client):
        mdm, _ = served_mdm
        client.execute("append to NOTE (degree = 3)")
        rows = mdm.database.table(DEDUP_TABLE).select_eq(
            "client", "test-client"
        )
        assert len(rows) == 1
        assert rows[0]["seq"] == 1

    def test_exactly_once_across_server_restart(self, tmp_path):
        """Crash after commit, before ack; a NEW server must still dedup."""
        path = str(tmp_path / "db")
        mdm = MusicDataManager(path)
        server = MdmServer(mdm)
        server.start()
        port = server.address[1]

        def crash(client_id, seq):
            raise RuntimeError("die before ack")

        server.on_pre_ack = crash
        # max_attempts=1: the client surfaces the torn ack immediately
        # instead of resolving it against the still-running server, so
        # the dedup decision demonstrably happens on the NEW server.
        client = MdmClient(server.address, client_id="c",
                           max_attempts=1, backoff_base=0.001,
                           default_timeout=2.0)
        with pytest.raises(RetryExhaustedError):
            client.execute("append to NOTE (degree = 9)")
        server.stop()
        mdm.close()

        mdm2 = MusicDataManager.reopen(path)
        server2 = MdmServer(mdm2, port=port)
        server2.start()
        try:
            # Same client object, same pending seq: the restarted
            # server's durable ledger resolves it as duplicate-success.
            count = client.execute("append to NOTE (degree = 9)")
            assert count == 1
            assert client.metrics.value("client.duplicate_acks") == 1
            client.execute("range of n is NOTE")
            rows = client.retrieve("retrieve (n.degree) where n.degree = 9")
            assert len(rows) == 1
        finally:
            client.close()
            server2.stop()
            mdm2.close()


def _write_then_read(client, degree):
    """One write (the primary's) and one retrieve (the role's)."""
    assert client.execute("append to NOTE (degree = %d)" % degree) == 1
    rows = client.retrieve(
        "retrieve (NOTE.degree) where NOTE.degree = %d" % degree
    )
    assert rows == [{"NOTE.degree": degree}]


@pytest.mark.parametrize("role", ROLES)
class TestConnectionHygiene:
    def test_connection_threads_are_pruned(self, tmp_path, role):
        """Finished connections must not accumulate thread bookkeeping."""
        with serving(tmp_path, role) as (server, registry, connect):
            for i in range(5):
                c = connect("prune-%d" % i)
                _write_then_read(c, i + 1)
                c.close()

            def idle():
                with server._mutex:
                    live = len(server._conn_threads)
                return live == 0 and registry.value("net.connections") == 0

            assert wait_until(idle)
            assert registry.value("net.requests") >= 5
            if role == "primary":
                assert server.status()["connections"] == 0

    def test_idle_connections_are_reaped_and_clients_reconnect(
            self, tmp_path, role):
        """An abandoned client must not pin a server thread forever; a
        live one reaped while idle reconnects transparently."""
        with serving(tmp_path, role, idle_timeout=0.2) as (
                server, registry, connect):
            client = connect("idler")
            _write_then_read(client, 1)
            served = registry.value("net.requests")
            assert wait_until(  # reaped while idle
                lambda: registry.value("net.connections") == 0
            )
            # Transparent to the caller: the primary's client redials,
            # a replica's reader fails over and redials the replica on
            # its next retrieve.
            _write_then_read(client, 2)
            _write_then_read(client, 3)
            assert registry.value("net.requests") > served


@pytest.mark.parametrize("role", ROLES)
class TestHandshake:
    def test_wrong_version_is_refused_once_then_closed(self, tmp_path, role):
        with serving(tmp_path, role) as (server, registry, _connect):
            theirs = protocol.PROTOCOL_VERSION + 1
            with Transport.connect(server.address) as wire:
                wire.send(protocol.HELLO, {"proto": theirs, "client": "new"})
                refusal = reply(wire, protocol.ERROR)
                message = refusal.pop("message")
                assert refusal == {
                    "seq": None, "code": "ProtocolError", "retryable": False,
                }
                assert str(theirs) in message
                assert str(protocol.PROTOCOL_VERSION) in message
                _assert_closed(wire)
            assert wait_until(lambda: registry.value("net.connections") == 0)

    def test_a_connection_must_open_with_hello(self, tmp_path, role):
        """Anything else is closed without a reply (the primary also
        takes ``REPL_HELLO``, from replicas; a replica feeds nobody)."""
        with serving(tmp_path, role) as (server, _registry, _connect):
            openers = [(protocol.REQUEST, {"seq": 1, "source": "retrieve"})]
            if role == "replica":
                openers.append((protocol.REPL_HELLO, {
                    "proto": protocol.PROTOCOL_VERSION, "replica": "r",
                }))
            for kind, body in openers:
                with Transport.connect(server.address) as wire:
                    wire.send(kind, body)
                    _assert_closed(wire)

    def test_frames_carry_the_fields_a_parent_peer_reads(self, tmp_path,
                                                         role):
        """Raw frames, so a renamed or dropped body field fails here
        and not in somebody's deployed client."""
        with serving(tmp_path, role) as (server, _registry, _connect), \
                Transport.connect(server.address) as wire:
            wire.send(protocol.HELLO, {
                "proto": protocol.PROTOCOL_VERSION, "client": "raw",
                "last_seq": 0,
            })
            assert reply(wire, protocol.WELCOME) == {
                "proto": protocol.PROTOCOL_VERSION, "server": server.name,
                "role": role, "last_seq": 0,
            }
            wire.send(protocol.REQUEST, {
                "seq": None, "source": "retrieve (NOTE.degree)",
                "read_only": True, "timeout_s": 5.0,
            })
            result = reply(wire, protocol.RESULT)
            assert isinstance(result.pop("commit_lsn"), int)
            assert result == {
                "seq": None, "kind": "rows", "value": [], "duplicate": False,
            }
            wire.send(protocol.REQUEST, {
                "seq": 7, "source": "range of z is NO_SUCH_TYPE",
                "read_only": True, "timeout_s": 5.0,
            })
            error = reply(wire, protocol.ERROR)
            assert error.pop("message")
            assert error == {
                "seq": 7, "code": "QueryError", "retryable": False,
            }
            wire.send(protocol.BYE, {})


def _assert_closed(wire):
    """The peer hung up: end of stream, not silence and not a frame."""
    with pytest.raises(NetworkError) as caught:
        wire.recv(timeout=5.0)
    assert not isinstance(caught.value, (NetworkTimeoutError, ProtocolError))


class TestCloseUnderLoad:
    def test_close_drains_in_flight_and_refuses_new(self, tmp_path):
        """MusicDataManager.close under remote load: drain, then refuse."""
        mdm = MusicDataManager(str(tmp_path / "db"))
        server = MdmServer(mdm)
        server.start()
        clients = [
            MdmClient(server.address, client_id="load-%d" % i,
                      max_attempts=2, backoff_base=0.001,
                      default_timeout=1.0)
            for i in range(4)
        ]
        stop = threading.Event()
        outcomes = {"committed": 0, "refused": 0, "other": 0}
        lock = threading.Lock()

        def pound(client, k):
            degree = k * 1000
            while not stop.is_set():
                degree += 1
                try:
                    client.execute("append to NOTE (degree = %d)" % degree)
                    with lock:
                        outcomes["committed"] += 1
                except (ShutdownError, RetryExhaustedError, MDMError):
                    with lock:
                        outcomes["refused"] += 1
                    return

        threads = [
            threading.Thread(target=pound, args=(c, k), daemon=True)
            for k, c in enumerate(clients)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)  # let load build
        mdm.close(drain_timeout=5.0)  # must not raise under load
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        server.stop()
        for c in clients:
            c.close()
        assert outcomes["committed"] > 0
        # Every acked commit is durable: reopen and count.
        reopened = MusicDataManager.reopen(str(tmp_path / "db"))
        try:
            reopened.execute("range of n is NOTE")
            rows = reopened.retrieve("retrieve (n.degree) where n.degree != 0")
            assert len(rows) >= outcomes["committed"]
        finally:
            reopened.close()

    def test_new_remote_work_refused_while_draining(self, served_mdm):
        mdm, _ = served_mdm
        mdm.remote.begin_drain()
        with pytest.raises(ShutdownError):
            mdm.remote.enter("late request")
        # close() after drain still clean
        assert mdm.remote.drain(0.1) is True
