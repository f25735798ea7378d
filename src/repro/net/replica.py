"""Read-only replicas fed by WAL shipping.

A :class:`ReplicaServer` owns a private in-memory database rebuilt from
the primary's seed, a checkpoint image installed as an open installs
one, and kept current by applying shipped WAL frames, each CRC-verified
by the frame parser recovery uses (:func:`repro.storage.wal.decode_frame`).
A seed that is not a whole image, or a frame that fails its checksum or
cannot be applied, makes the replica *degrade*, the one thing that
stops it serving: it reports ``REPL_ERROR`` and refuses reads until
the primary's fresh seed installs.

What a verified record does is not decided here: each one goes to the
same :class:`repro.storage.wal.RedoApplier` crash recovery drives, set
to install at the commit LSN rather than LSN 0, so apply is MVCC-correct
under concurrent readers.  A commit is one frame, and the replica's
visible LSN advances once it is in; a reader pinned mid-apply keeps
seeing the previous consistent state.  As on open, a table exists once
its storage catalog row is installed, and the schema is loaded from the
meta rows: at the seed's end and after each commit that changed the
catalog.  The seed's ledger and the request runs of the commits after
it rebuild the exactly-once ledger as the primary's open would.

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

import io
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
from repro.quel.executor import QuelSession, Rows
from repro.storage import wal as wal_module
from repro.storage.database import CATALOG, Database, collector_paused


class _ReplicaState:
    """One seeded generation of the replica's database: the *seed*
    image installed as an open installs one (a seed that is not a whole
    image raises :class:`RecoveryError`); its schema is loaded from the
    meta rows, never written here: the replica's own writes would take
    rowids the primary's frames carry."""

    def __init__(self, seed):
        self.database = Database(None)
        self.seed_lsn, ledger, tables = self.database.read_image(
            lambda: io.BytesIO(seed)
        )
        with collector_paused():
            self.database.install_image(ledger, tables)
            self.database.build_deferred_indexes()
        self.schema = None
        self.redo = wal_module.RedoApplier(
            self.database, stamp_commits=True, applied_lsn=self.seed_lsn
        )
        self._catalog = self.database.table(CATALOG)
        self._catalog_version = None
        self.applied()

    def applied(self):
        """After the seed and each commit point: one that changed the
        storage catalog may have defined a type, so the schema loads it."""
        if self._catalog.version != self._catalog_version:
            self._catalog_version = self._catalog.version
            if self.schema is not None:
                self.schema.load()
            elif Schema.stored_in(self.database):
                self.schema = Schema("replica", database=self.database)


class ReplicaServer(WireServer):
    """One read-only replica process: applier plus retrieve serving."""

    def __init__(self, primary_address, name="replica", host="127.0.0.1",
                 port=0, reconnect_base=0.05, seed=0,
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
                backoff = self._sleep_backoff(backoff)
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
            backoff = self._sleep_backoff(backoff)

    def _sleep_backoff(self, backoff):
        """Sleep *backoff*, jittered; the next one doubles, up to 1 s."""
        if not self._stopping:
            time.sleep(backoff * (0.5 + self._rng.random()))
        return min(1.0, backoff * 2)

    def _resume_lsn(self):
        """Where to resume the feed on a (re)connect: ``applied_lsn``,
        or 0 -- send a seed -- if degraded: the primary may never have
        heard the ``REPL_ERROR`` that asked for one.  A commit is one
        frame, so a torn feed leaves nothing half applied."""
        with self._applied_cond:
            return self.applied_lsn if self._serving else 0

    def _feed_from(self, transport):
        seed = []
        while not self._stopping:
            try:
                kind, body = transport.recv(timeout=0.5)
            except NetworkTimeoutError:
                continue  # idle link; re-check _stopped
            if kind == protocol.REPL_SEED:
                seed.append(body)
            elif kind == protocol.REPL_SEED_END:
                # One bytes object, which io.BytesIO reads without a
                # copy, and the pieces let go: the seed is held once.
                image, seed = b"".join(seed), []
                self._receive_seed(transport, image)
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

    def _receive_seed(self, transport, image):
        """Install the seed *image* whole, or refuse all of it."""
        try:
            # Nothing reads a generation before _install_state.
            state = _ReplicaState(image)
        except (MDMError, KeyError, ValueError) as error:
            self._refuse_feed(transport, "refused seed", error, 0)
            return
        self._install_state(state)
        self._m_seeds.inc()
        transport.send(protocol.REPL_ACK, {"lsn": state.seed_lsn})

    def _receive_frame(self, transport, lsn, wal_frame):
        if not self._serving and self._state is None:
            return  # never seeded; wait for the seed
        try:
            decoded = wal_module.decode_frame(wal_frame)
        except RecoveryError as error:
            # Torn or corrupt in flight: refuse it and everything after
            # until the primary re-seeds us from a clean snapshot.
            self._m_crc_failures.inc()
            self._refuse_feed(transport, "corrupt shipped frame", error, lsn)
            return
        if not self._serving:
            return  # degraded: drop frames until the next seed
        try:
            advanced = self._state.redo.apply(*decoded)
            if advanced:
                self._state.applied()
        except (MDMError, KeyError, ValueError) as error:
            self._refuse_feed(transport, "cannot apply shipped record", error, lsn)
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

    def _refuse_feed(self, transport, what, error, lsn):
        """Degrade for *error* in *what* and say so with ``REPL_ERROR``:
        the primary quarantines this replica and re-seeds it."""
        self._degrade("%s: %s" % (what, error))
        transport.send(protocol.REPL_ERROR, {
            "code": type(error).__name__, "message": str(error), "lsn": lsn,
        })

    def _degrade(self, reason):
        with self._applied_cond:
            self._serving = False
            self.last_error = reason
            self._applied_cond.notify_all()

    # -- serving retrieves (replica <- clients, through WireServer) ---------------

    def _open_session(self, client_id):
        # Each connection executes through its own QuelSession (rebuilt
        # per seeded generation): concurrent readers must not race on
        # one session's limits, and one client's replayed ``range of``
        # preamble must not rebind another client's ranges.
        return {}

    def _handle(self, sessions, kind, message, seq):
        if kind != protocol.REQUEST or not message.get("read_only"):
            raise ReadOnlyError(
                "replica %r serves read-only retrieves only" % self.name
            )
        reply = {"seq": seq, "duplicate": False}
        reply.update(self._execute_read(message, sessions))
        return reply

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
            rows = quel.execute(message.get("source", ""), tuples=True)
        finally:
            transactions.unpin_snapshot()
            quel.clear_limits()
        self._m_reads.inc()
        with self._applied_cond:
            applied = self.applied_lsn
        if rows is None:  # a range declaration
            rows = Rows([], [])
        reply = protocol.encode_rows(rows.columns, rows.values)
        reply["commit_lsn"] = applied
        return reply

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
