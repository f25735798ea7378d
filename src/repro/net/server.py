"""Serving over the wire: one loop, two roles.

:class:`WireServer` is the only code that owns a listening socket: one
thread per connection, the ``HELLO`` → version check → ``WELCOME``
handshake, the receive / idle-reap / ``BYE`` loop, and the one
``except`` block in which a refusal becomes a structured ``ERROR``
frame (retryable for overload, shutdown, a network timeout and replica
lag; final otherwise).  A role says who it is and supplies what
differs: the state a connection owns (``_open_session``), the answer to
one frame (``_handle``), the seq ``WELCOME`` reports, and what to do
with a peer that is not a client.  :class:`MdmServer` is the primary;
:class:`repro.net.replica.ReplicaServer` is the other role.

Every connection owns its :class:`~repro.quel.executor.QuelSession`, so
range declarations, limits, the statement cache and ``last_plan`` are
never shared between remote clients; the per-database plan cache and
the metrics registry are.

Remote clients of the primary get exactly the service-layer guarantees
local ones do — every ``REQUEST`` runs through :meth:`MdmSession.run`,
so admission control, wait-die retry, and deadline propagation apply
unchanged; the client's remaining time budget travels in the frame and
bounds lock waits and QUEL execution on the server, surfacing as a
structured ``ERROR`` frame instead of a hung socket.

A read-only ``REQUEST`` is one pass: the frame is received (one
``recv`` when it arrives whole) and parsed, one ``MdmSession.run``
sets the limits and pins the snapshot once, the cached plan runs, the
rows go into the reply as the projection made them (names once, a
tuple a row), and the frame's ``net.*`` counts are slots of the
connection thread's cell (:class:`repro.obs.metrics.Tally`).

Exactly-once writes survive a server crash between WAL flush and ack:
each write request carries a per-client sequence number, and the
statement's commit frame carries ``(client, seq, result)``, which the
commit sets in the database's ledger (``Database.ledger``; recovery, a
checkpoint image and a replica keep it).  A write of a seq the ledger
already holds answers duplicate-success without re-running the
statement.  A per-client guard runs one write of a client at a time, so
a seq re-sent on another connection waits until the first is durable or
undone; ``WELCOME`` reports the client's last durable seq, so a
reconnecting client can resolve its in-flight write the same way.

Replica connections (``REPL_HELLO``) are handed to the
:class:`~repro.net.replication.ReplicationHub`, which seeds and then
streams WAL frames (see that module for when it re-seeds a replica).
"""

import contextlib
import socket
import threading

from repro.errors import (
    NetworkError,
    NetworkTimeoutError,
    OverloadError,
    ParseError,
    ProtocolError,
    QueryError,
    ReplicaLagError,
    RetryExhaustedError,
    ShutdownError,
)
from repro.lang.lexer import leading_keywords
from repro.mdm.shell import MdmShell
from repro.net import protocol
from repro.net.replication import ReplicationHub
from repro.net.transport import Transport
from repro.quel.executor import QuelSession, Rows

#: Refusals a client may transparently retry (transient server states).
_RETRYABLE = (
    OverloadError, ShutdownError, NetworkTimeoutError, ReplicaLagError,
)

#: Seconds a fresh connection gets to send its opening frame.
_HANDSHAKE_TIMEOUT = 10.0

#: Pending-connection backlog of the listening socket.
_BACKLOG = 32

#: What a read that is not a retrieve (a range declaration) answers.
_NO_ROWS = Rows([], [])


class WireServer:
    """The serving loop both roles share.

    A role passes its ``role`` string (reported in ``WELCOME``), the
    name its connection threads carry and the registry the ``net.*``
    counters land in, and supplies :meth:`_open_session` and
    :meth:`_handle`; it may override :meth:`_last_committed_seq`,
    :meth:`_in_flight` and :meth:`_serve_peer`.  Nothing outside this
    class touches a listening socket or turns a refusal into an
    ``ERROR`` frame.
    """

    def __init__(self, role, conn_thread_name, name, host, port,
                 idle_timeout, registry):
        self.role = role
        self.name = name
        self.host = host
        self.port = port
        self.address = None  # set by start()
        #: Seconds a client session may sit idle between frames before
        #: its connection (and thread) is reaped; clients reconnect
        #: transparently on their next call.
        self.idle_timeout = idle_timeout
        self._conn_thread_name = conn_thread_name
        self._listener = None
        self._threads = []
        self._conn_threads = set()
        self._transports = set()
        self._mutex = threading.Lock()
        self._stopping = False
        self._m_frames_in = registry.counter("net.frames_in")
        self._m_frames_out = registry.counter("net.frames_out")
        # The request loop's counts, in its thread's cell: frames in,
        # requests, frames out, errors.
        self._m_exchange = registry.tally(
            ("net.frames_in", "net.requests", "net.frames_out", "net.errors")
        )
        self._m_connections = registry.gauge("net.connections")

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Bind, listen, and start accepting; returns ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(_BACKLOG)
        self._listener = listener
        self.address = listener.getsockname()
        self._spawn(self._accept_loop, "%s-accept-%s" % (self.role, self.name))
        return self.address

    def _spawn(self, target, thread_name):
        """Start a server-lifetime thread that :meth:`stop` joins."""
        thread = threading.Thread(target=target, name=thread_name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self):
        """Release the port, close every connection, join the threads."""
        with self._mutex:
            if self._stopping:
                return
            self._stopping = True
        if self._listener is not None:
            try:
                # shutdown() wakes the thread blocked in accept();
                # close() alone leaves the fd (and port) held by it.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._mutex:
            transports = list(self._transports)
        for transport in transports:
            transport.close()
        with self._mutex:
            conn_threads = list(self._conn_threads)
        for thread in self._threads + conn_threads:
            thread.join(timeout=2.0)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False

    # -- accepting and the handshake ---------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            transport = Transport(sock)
            thread = threading.Thread(
                target=self._serve_connection, args=(transport,),
                name=self._conn_thread_name, daemon=True,
            )
            with self._mutex:
                if self._stopping:
                    transport.close()
                    return
                self._transports.add(transport)
                self._conn_threads.add(thread)
            thread.start()

    def _serve_connection(self, transport):
        self._m_connections.inc()
        try:
            kind, body = transport.recv(timeout=_HANDSHAKE_TIMEOUT)
            self._m_frames_in.inc()
            if kind == protocol.HELLO:
                hello = self._hello(transport, kind, body)
                self._serve_client(transport, hello)
            else:
                self._serve_peer(transport, kind, body)
        except (NetworkError, OSError):
            pass  # torn/garbage connections die quietly; client retries
        finally:
            transport.close()
            with self._mutex:
                self._transports.discard(transport)
                self._conn_threads.discard(threading.current_thread())
            self._m_connections.dec()

    def _hello(self, transport, kind, body):
        """The opening frame's body, refused unless it speaks our version."""
        hello = protocol.unpack_json(kind, body)
        if hello.get("proto") != protocol.PROTOCOL_VERSION:
            error = ProtocolError(
                "protocol version %s unsupported (server speaks %d)"
                % (hello.get("proto"), protocol.PROTOCOL_VERSION)
            )
            self._refuse(transport, None, error)
            raise error
        return hello

    def _serve_peer(self, transport, kind, body):
        """Serve a connection whose opening frame is not ``HELLO``."""
        raise ProtocolError(
            "connection must open with HELLO, got %s"
            % protocol.KIND_NAMES.get(kind, kind)
        )

    # -- the client request loop -----------------------------------------------

    def _serve_client(self, transport, hello):
        """Answer the client's frames, one pass each: receive, parse,
        answer inside :meth:`_in_flight`, send, each frame's ``net.*``
        counts added into this thread's cell."""
        client_id = str(hello.get("client", "anonymous"))
        self._send(transport, protocol.WELCOME, {
            "proto": protocol.PROTOCOL_VERSION,
            "server": self.name,
            "role": self.role,
            "last_seq": self._last_committed_seq(client_id),
        })
        session = self._open_session(client_id)
        idle_timeout = self.idle_timeout
        counts = self._m_exchange.cell()  # in, requests, out, errors
        while True:
            try:
                kind, body = transport.recv(timeout=idle_timeout)
            except NetworkTimeoutError:
                return  # idle past the budget: reap the connection
            counts[0] += 1
            if kind == protocol.BYE:
                return
            if kind == protocol.REQUEST:
                counts[1] += 1
            message = protocol.unpack_json(kind, body)
            seq = message.get("seq")
            try:
                # The ack is sent inside the scope, so a role that
                # counts work in flight still counts it until the
                # client has it.  The reply is counted as it is handed
                # over, so a client that has it finds it counted.
                with self._in_flight(session):
                    reply = self._handle(session, kind, message, seq)
                    counts[2] += 1
                    transport.send(protocol.RESULT, reply)
            except NetworkError:
                raise  # the connection itself is gone/poisoned
            except Exception as error:  # structured refusal, keep serving
                counts[3] += 1
                self._refuse(transport, seq, error)

    def _refuse(self, transport, seq, error):
        self._send(transport, protocol.ERROR, {
            "seq": seq,
            "code": type(error).__name__,
            "message": str(error),
            "retryable": isinstance(error, _RETRYABLE),
        })

    def _send(self, transport, kind, obj):
        transport.send(kind, obj)
        self._m_frames_out.inc()

    # -- what a role supplies ----------------------------------------------------

    def _last_committed_seq(self, client_id):
        """The client's highest committed write seq, for ``WELCOME``."""
        return 0

    def _open_session(self, client_id):
        """The state one connection owns; handed back to :meth:`_handle`."""
        raise NotImplementedError

    def _handle(self, session, kind, message, seq):
        """Answer one frame, whose *message* carries *seq*: the whole
        ``RESULT`` body (``seq``, ``duplicate``, ``kind``, ``value``,
        ``commit_lsn``), or raise the refusal."""
        raise NotImplementedError

    def _in_flight(self, session):
        """A context manager around one request and its ack; entering
        may raise the refusal."""
        return contextlib.nullcontext()


class MdmServer(WireServer):
    """Serves one MusicDataManager to remote clients and replicas."""

    def __init__(self, mdm, host="127.0.0.1", port=0, name="primary",
                 idle_timeout=120.0):
        registry = mdm.database.metrics
        super().__init__("primary", "mdm-server-conn", name, host, port,
                         idle_timeout, registry)
        self.mdm = mdm
        #: Test hook: called as ``on_pre_ack(client_id, seq)`` after a
        #: write commits durably but before its RESULT frame is sent.
        #: Raising here drops the connection un-acked — the crash window
        #: the ledger exists for.
        self.on_pre_ack = None
        self._m_shed = registry.counter("net.shed")
        self._m_duplicates = registry.counter("net.duplicate_acks")
        self.replication = ReplicationHub(mdm)
        # client id -> the guard its writes run under, one at a time.
        self._guards = {}

    def stop(self, drain_timeout=2.0):
        """Stop serving: drain in-flight requests, then tear down."""
        self.mdm.remote.drain(drain_timeout)
        super().stop()

    def _serve_peer(self, transport, kind, body):
        if kind != protocol.REPL_HELLO:
            return super()._serve_peer(transport, kind, body)
        self.replication.serve(transport, self._hello(transport, kind, body))

    def _open_session(self, client_id):
        # Ranges, limits, the statement cache and last_plan belong to
        # the connection; the plan cache and the metrics registry hang
        # off the database and stay shared.
        quel = QuelSession(self.mdm.schema)
        session = self.mdm.connect(name="net:%s" % client_id, quel=quel)
        shell = MdmShell(self.mdm, server=self, session=quel)
        # What MusicDataManager.close and stop() drain before teardown.
        tracker = self.mdm.remote.track("request from %r" % client_id)
        guard = self._guards.setdefault(client_id, threading.Lock())
        return client_id, session, shell, tracker, guard

    # -- the service-layer dispatch ----------------------------------------------

    def _in_flight(self, connection):
        return connection[3]

    def _handle(self, connection, kind, message, seq):
        if kind == protocol.REQUEST:
            if message.get("read_only"):
                return self._read(connection[1], message, seq)
            return self._write(connection, message, seq)
        if kind == protocol.META:
            output = connection[2].handle_line(message.get("command", ""))
            return {"seq": seq, "duplicate": False, "kind": "text",
                    "value": output, "commit_lsn": None}
        raise ProtocolError(
            "unexpected frame kind %s mid-session"
            % protocol.KIND_NAMES.get(kind, kind)
        )

    def _read(self, session, message, seq):
        """A read-only request's reply: one statement run on a pinned
        snapshot, its rows going out as the projection made them."""
        source = message.get("source", "")
        quel = session.quel
        rows = session.run(
            lambda m: quel.execute(source, tuples=True),
            timeout=message.get("timeout_s"),
            row_budget=message.get("row_budget"), read_only=True,
        )
        if rows is None:  # a range declaration
            rows = _NO_ROWS
        reply = {"seq": seq, "duplicate": False}
        reply.update(protocol.encode_rows(rows.columns, rows.values))
        reply["commit_lsn"] = self._durable_lsn()
        return reply

    def _write(self, connection, message, seq):
        """A write request's reply, the statement run at most once per
        seq: under the client's guard, one transaction looks the seq up
        in the ledger and either answers what the ledger holds or runs
        the statement and commits its result with it."""
        client_id, session, _shell, _tracker, guard = connection
        source = message.get("source", "")
        timeout_s = message.get("timeout_s")
        reply = {"seq": seq, "duplicate": False, "kind": "count",
                 "value": 0, "commit_lsn": None}
        ledger = self.mdm.database.ledger
        quel = session.quel

        def answer(m):
            entry = ledger.get(client_id)
            if seq is not None and entry is not None and entry[0] >= seq:
                reply["duplicate"] = True
                reply["value"] = entry[1]
                return
            result = quel.execute(source, tuples=True)
            if isinstance(result, Rows):
                # A write answers a count: committed, its rows would be
                # lost.
                raise QueryError(
                    "retrieve is a read: send it as a read-only request "
                    "(MdmClient.retrieve), not as a write"
                )
            count = reply["value"] = result if isinstance(result, int) else 0
            if seq is not None:
                m.database.transactions.current().request = (
                    client_id, seq, count
                )

        wait = session.default_timeout if timeout_s is None else timeout_s
        if not guard.acquire(timeout=-1 if wait is None else max(wait, 0)):
            raise RetryExhaustedError(
                "a write of client %r is still committing on another "
                "connection" % client_id
            )
        try:
            session.run(
                answer, timeout=timeout_s, row_budget=message.get("row_budget")
            )
        except OverloadError:
            self._m_shed.inc()
            raise
        except ParseError:
            if leading_keywords(source, 1) != ("define",):
                raise
            # Not QUEL but DDL: a define is its own commit and needs no
            # ledger entry, because one re-sent after a dropped ack
            # binds to the stored definition and answers "ok" again.
            self.mdm.execute(source)
            reply["kind"], reply["value"] = "text", "ok"
        finally:
            guard.release()
        if reply["duplicate"]:
            self._m_duplicates.inc()
        elif self.on_pre_ack is not None and reply["kind"] == "count":
            try:
                self.on_pre_ack(client_id, seq)
            except Exception as error:
                # Simulated crash between durable commit and ack: the
                # effects are committed, the client never hears back.
                raise NetworkError(
                    "connection dropped by pre-ack hook"
                ) from error
        reply["commit_lsn"] = self._durable_lsn()
        return reply

    def _last_committed_seq(self, client_id):
        """The client's highest durable seq (0 = none)."""
        entry = self.mdm.database.transactions.durable_entry(client_id)
        return 0 if entry is None else entry[0]

    def _durable_lsn(self):
        """The durable horizon to hand clients for read-your-writes."""
        log = self.mdm.database._log
        if log is not None:
            return log.flushed_lsn
        return self.mdm.database.transactions.current_snapshot()

    def status(self):
        """One dict for ``\\replicas`` and tests."""
        with self._mutex:
            connections = len(self._transports)
        return {
            "name": self.name,
            "address": self.address,
            "connections": connections,
            "replicas": self.replication.status(),
        }
