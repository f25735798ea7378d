"""Read-only replicas fed by WAL shipping.

A :class:`ReplicaServer` owns a private in-memory database rebuilt from
the primary's seed (schema manifest + serialized rows) and kept current
by applying shipped WAL frames.  Every frame is CRC-verified with the
same frame parser recovery uses (:func:`repro.storage.wal.decode_frame`);
a frame that fails its checksum — or that references a table the replica
does not know, e.g. after un-shipped DDL — makes the replica *degrade*:
it reports ``REPL_ERROR`` to the primary, refuses reads, and waits to
be quarantined and re-seeded from a fresh snapshot.

What a verified record does is not decided here: each one goes to the
same :class:`repro.storage.wal.RedoApplier` crash recovery drives, set
to install at the commit LSN rather than LSN 0, so apply is MVCC-correct
under concurrent readers.  The replica's visible LSN advances only once
a whole commit is in; a reader pinned mid-apply keeps seeing the
previous consistent state.

The replica serves readers through the loop the primary uses
(:class:`repro.net.server.WireServer`: listener, handshake, idle
reaping, ``ERROR`` frames, ``net.*`` counters); what it supplies is the
answer.  Anything but a ``read_only`` ``REQUEST`` is refused with
:class:`~repro.errors.ReadOnlyError`.  A request carrying ``min_lsn``
(the client's read-your-writes horizon) waits briefly for the applier
to catch up and otherwise refuses with
:class:`~repro.errors.ReplicaLagError` — a *retryable* refusal, so the
client fails over to the primary instead of reading stale data.  Reads
do not go through ``MdmSession``: a seeded generation is a bare
database and schema, not an MDM.
"""

import random
import threading
import time

from repro.core.schema import Schema
from repro.errors import (
    MDMError,
    NetworkError,
    NetworkTimeoutError,
    ProtocolError,
    ReadOnlyError,
    RecoveryError,
    ReplicaLagError,
)
from repro.net import protocol
from repro.net.server import WireServer
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.quel.executor import QuelSession
from repro.storage import wal as wal_module
from repro.storage.database import Database


class _ReplicaState:
    """One seeded generation of the replica's database."""

    def __init__(self, seed_lsn, manifest, tables, text_indexes=None):
        self.seed_lsn = seed_lsn
        self.database = Database(None)
        self.schema = Schema("replica", database=self.database)
        for entity in manifest.get("entities", ()):
            if not self.schema.has_entity_type(entity["name"]):
                self.schema.define_entity(
                    entity["name"], [tuple(a) for a in entity["attrs"]]
                )
        for rel in manifest.get("relationships", ()):
            if rel["name"] not in self.schema.relationships:
                self.schema.define_relationship(
                    rel["name"],
                    [tuple(r) for r in rel["roles"]],
                    [tuple(a) for a in rel["attrs"]],
                    rel.get("many_role"),
                )
        for ordering in manifest.get("orderings", ()):
            if ordering["name"] not in self.schema.orderings:
                self.schema.define_ordering(
                    ordering["name"], ordering["children"], ordering["parent"]
                )
        # Non-schema tables (the dedup ledger, anything raw) come from
        # the seed's table list; schema replay already made the rest.
        for spec in tables:
            if not self.database.has_table(spec["name"]):
                self.database.create_table(
                    spec["name"], [(c, d) for c, d in spec["columns"]]
                )
        # Registered before rows land, like the schema's hash and
        # ordered indexes above: the seed's rows install with upkeep
        # deferred and every index is built once at REPL_SEED_END
        # (_feed_from), as in local crash recovery; the streamed frames
        # that follow maintain them row by row.
        for name, columns in (text_indexes or {}).items():
            for column in columns:
                self.database.table(name).create_text_index(column)
        self.column_orders = self.database.column_orders()
        self.redo = wal_module.RedoApplier(
            self.database, stamp_commits=True, applied_lsn=seed_lsn
        )


class ReplicaServer(WireServer):
    """One read-only replica process: applier plus retrieve serving."""

    def __init__(self, primary_address, name="replica", host="127.0.0.1",
                 port=0, reconnect_base=0.05, reconnect_cap=1.0, seed=0,
                 transport_factory=None, metrics=None, idle_timeout=120.0):
        registry = metrics if metrics is not None else MetricsRegistry()
        super().__init__("replica", "replica-read-%s" % name, name, host,
                         port, idle_timeout, registry)
        self.primary_address = tuple(primary_address)
        self._transport_factory = (
            transport_factory if transport_factory is not None
            else Transport.connect
        )
        self._reconnect_base = reconnect_base
        self._reconnect_cap = reconnect_cap
        self._rng = random.Random(seed)
        # Applier state: guarded by _applied_cond so min_lsn waiters see
        # a consistent (state, applied_lsn, serving) triple.
        self._applied_cond = threading.Condition(threading.Lock())
        self._state = None
        self.applied_lsn = 0
        self._serving = False
        self.last_error = None
        self.metrics = registry
        self._m_frames = registry.counter("repl.frames_applied")
        self._m_commits = registry.counter("repl.commits_applied")
        self._m_seeds = registry.counter("repl.seeds_received")
        self._m_connects = registry.counter("repl.reconnects")
        self._m_crc_failures = registry.counter("repl.crc_failures")
        self._m_reads = registry.counter("repl.reads_served")
        self._m_lag_refusals = registry.counter("repl.lag_refusals")

    def start(self):
        """Start serving readers, then the feed loop."""
        address = super().start()
        self._spawn(self._feed_loop, "replica-feed-%s" % self.name)
        return address

    def status(self):
        with self._applied_cond:
            return {
                "name": self.name,
                "address": self.address,
                "serving": self._serving,
                "applied_lsn": self.applied_lsn,
                "last_error": self.last_error,
            }

    # -- the feed loop (replica <- primary) -------------------------------------

    def _feed_loop(self):
        backoff = self._reconnect_base
        while not self._stopping:
            try:
                transport = self._transport_factory(self.primary_address)
            except NetworkError:
                self._sleep_backoff(backoff)
                backoff = min(self._reconnect_cap, backoff * 2)
                continue
            with self._mutex:
                self._transports.add(transport)
            try:
                transport.send(protocol.REPL_HELLO, {
                    "proto": protocol.PROTOCOL_VERSION,
                    "replica": self.name,
                    "last_lsn": self._resume_lsn(),
                })
                self._m_connects.inc()
                backoff = self._reconnect_base
                self._feed_from(transport)
            except (NetworkError, ProtocolError, OSError):
                pass  # reconnect with backoff; applied state is kept
            finally:
                transport.close()
                with self._mutex:
                    self._transports.discard(transport)
            self._sleep_backoff(backoff)
            backoff = min(self._reconnect_cap, backoff * 2)

    def _sleep_backoff(self, backoff):
        if not self._stopping:
            time.sleep(backoff * (0.5 + self._rng.random()))

    def _resume_lsn(self):
        """Where to resume the feed on a (re)connect: ``applied_lsn``.

        A torn feed can leave the front of one transaction buffered.
        It is dropped -- kept, the re-stream would deliver its change
        frames a second time -- and the primary ships the transaction
        again from its first frame: a transaction's frames are
        contiguous in the log, so all of them lie above the last commit
        point applied.
        """
        with self._applied_cond:
            if self._state is not None:
                self._state.redo.discard_buffered()
            return self.applied_lsn

    def _feed_from(self, transport):
        pending_state = None
        while not self._stopping:
            try:
                kind, body = transport.recv(timeout=0.5)
            except NetworkTimeoutError:
                continue  # idle link; re-check _stopped
            if kind == protocol.REPL_SEED:
                message = protocol.unpack_json(kind, body)
                pending_state = _ReplicaState(
                    int(message["lsn"]), message["schema"],
                    message["tables"], message.get("text_indexes"),
                )
                # Nothing reads a generation before _install_state.
                pending_state.database.defer_index_upkeep()
            elif kind == protocol.REPL_ROWS:
                if pending_state is None:
                    raise ProtocolError("REPL_ROWS outside a seed")
                name, rows = protocol.unpack_repl_rows(
                    body, pending_state.column_orders
                )
                table = pending_state.database.table(name)
                for row in rows:
                    table.install_committed(0, row.rowid, row)
            elif kind == protocol.REPL_SEED_END:
                message = protocol.unpack_json(kind, body)
                if pending_state is None \
                        or int(message["lsn"]) != pending_state.seed_lsn:
                    raise ProtocolError("REPL_SEED_END without matching seed")
                pending_state.database.build_deferred_indexes()
                self._install_state(pending_state)
                transport.send(
                    protocol.REPL_ACK, {"lsn": pending_state.seed_lsn}
                )
                pending_state = None
                self._m_seeds.inc()
            elif kind == protocol.REPL_FRAME:
                lsn, wal_frame = protocol.unpack_repl_frame(body)
                self._receive_frame(transport, lsn, wal_frame)
            elif kind == protocol.REPL_ERROR:
                message = protocol.unpack_json(kind, body)
                self._degrade(
                    "primary refused: %s" % message.get("message")
                )
                return
            else:
                raise ProtocolError(
                    "unexpected %s frame from primary"
                    % protocol.KIND_NAMES.get(kind, kind)
                )

    def _receive_frame(self, transport, lsn, wal_frame):
        if not self._serving and self._state is None:
            return  # never seeded; wait for the seed
        try:
            decoded = wal_module.decode_frame(wal_frame)
        except RecoveryError as error:
            # Torn or corrupt in flight: refuse it and everything after
            # until the primary re-seeds us from a clean snapshot.
            self._m_crc_failures.inc()
            self._degrade("corrupt shipped frame: %s" % error)
            transport.send(protocol.REPL_ERROR, {
                "code": "RecoveryError", "message": str(error), "lsn": lsn,
            })
            return
        if not self._serving:
            return  # degraded: drop frames until the next seed
        try:
            advanced = self._state.redo.apply(*decoded)
        except (MDMError, KeyError, ValueError) as error:
            self._degrade("cannot apply shipped record: %s" % error)
            transport.send(protocol.REPL_ERROR, {
                "code": type(error).__name__, "message": str(error),
                "lsn": lsn,
            })
            return
        self._m_frames.inc()
        if advanced:
            self._advance(decoded[0])
            self._m_commits.inc()
            transport.send(protocol.REPL_ACK, {"lsn": lsn})

    def _advance(self, lsn):
        with self._applied_cond:
            if self._state is not None:
                self._state.database.transactions._visible_lsn = lsn
            self.applied_lsn = lsn
            self._applied_cond.notify_all()

    def _install_state(self, state):
        state.database.transactions._visible_lsn = state.seed_lsn
        with self._applied_cond:
            self._state = state
            self.applied_lsn = state.seed_lsn
            self._serving = True
            self.last_error = None
            self._applied_cond.notify_all()

    def _degrade(self, reason):
        with self._applied_cond:
            self._serving = False
            self.last_error = reason
            if self._state is not None:
                self._state.redo.discard_buffered()
            self._applied_cond.notify_all()

    # -- serving retrieves (replica <- clients, through WireServer) ---------------

    def _open_session(self, client_id):
        # Each connection executes through its own QuelSession (rebuilt
        # per seeded generation): concurrent readers must not race on
        # one session's limits, and one client's replayed ``range of``
        # preamble must not rebind another client's ranges.
        return {}

    def _handle(self, sessions, kind, message):
        if kind != protocol.REQUEST or not message.get("read_only"):
            raise ReadOnlyError(
                "replica %r serves read-only retrieves only" % self.name
            )
        return self._execute_read(message, sessions)

    def _execute_read(self, message, sessions):
        timeout_s = message.get("timeout_s")
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        state = self._wait_caught_up(int(message.get("min_lsn") or 0), deadline)
        quel = sessions.get(id(state))
        if quel is None:
            # A re-seed swapped the generation: sessions built on the
            # old one are useless (their range declarations point into
            # a discarded schema), so a fresh session starts clean and
            # the client's failover/replay discipline rebuilds ranges.
            sessions.clear()
            quel = QuelSession(state.schema)
            sessions[id(state)] = quel
        transactions = state.database.transactions
        quel.set_limits(
            deadline=deadline, row_budget=message.get("row_budget")
        )
        transactions.pin_snapshot()
        try:
            result = quel.execute(message.get("source", ""))
        finally:
            transactions.unpin_snapshot()
            quel.clear_limits()
        self._m_reads.inc()
        with self._applied_cond:
            applied = self.applied_lsn
        rows = protocol.encode_rows(result) if isinstance(result, list) else []
        return {"kind": "rows", "value": rows, "commit_lsn": applied}

    def _wait_caught_up(self, min_lsn, deadline):
        """The serving state at >= *min_lsn*, or ReplicaLagError.

        The wait is deliberately short (a fraction of the deadline,
        capped): a replica that cannot catch up promptly should refuse
        retryably so the client fails over, not absorb the whole budget.
        """
        limit = time.monotonic() + 0.25
        if deadline is not None:
            limit = min(limit, deadline)
        with self._applied_cond:
            while True:
                if self._serving and self._state is not None \
                        and self.applied_lsn >= min_lsn:
                    return self._state
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    break
                self._applied_cond.wait(remaining)
            self._m_lag_refusals.inc()
            raise ReplicaLagError(
                "replica %r is %s (applied LSN %d, need %d)"
                % (
                    self.name,
                    "serving" if self._serving else "not serving",
                    self.applied_lsn, min_lsn,
                )
            )
