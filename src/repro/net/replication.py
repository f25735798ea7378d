"""WAL shipping: the primary side of read-only replication.

The :class:`ReplicationHub` serves each connected replica from the
connection's own thread.  A replica is first *seeded* — a pinned MVCC
snapshot of the schema (as a structural manifest) and every table's
rows, shipped as binary ``REPL_ROWS`` frames so rationals and blobs
survive — and then *streamed*: raw WAL frames, each still wearing its
on-disk CRC, from the seed LSN forward.  Only the durable prefix ships
(``stream_frames`` stops at ``flushed_lsn``), so an acknowledged
replica is never ahead of the primary's own durability; and because a
transaction's frames are appended in one hold of the mutex the fsync
takes, that prefix — hence every seed LSN and every batch — ends
between transactions, never inside one.

Health gating is the quarantine state machine from DESIGN.md §4j: a
replica that falls further behind than the lag budget, reports a CRC
failure, or needs history the primary has truncated (checkpoint moved
``base_lsn`` past it) is quarantined and re-seeded from a fresh
snapshot on the same connection.  While re-seeding, the replica itself
refuses reads with :class:`~repro.errors.ReplicaLagError`, so clients
fail over; the system degrades to primary-only serving rather than
serving stale or torn data.
"""

import threading
import time

from repro.errors import (
    NetworkError,
    NetworkTimeoutError,
    ProtocolError,
    ReplicationError,
)
from repro.net import protocol


def schema_manifest(schema):
    """A structural, JSON-safe description of *schema* for seeding.

    Entity-valued attributes serialize as their target type's name
    (exactly how DDL spells them), so the replica can replay the
    definitions with the same ``define_*`` calls the primary made.
    """
    entities = [
        {
            "name": name,
            "attrs": [
                [a.name, a.domain_name()]
                for a in schema.entity_types[name].attributes
            ],
        }
        for name in sorted(schema.entity_types)
    ]
    relationships = [
        {
            "name": name,
            "roles": [[role, type_name] for role, type_name in rel.roles],
            "attrs": [[a.name, a.domain_name()] for a in rel.attributes],
            "many_role": rel.many_role,
        }
        for name, rel in sorted(schema.relationships.items())
    ]
    orderings = [
        {
            "name": name,
            "children": list(ordering.child_types),
            "parent": ordering.parent_type,
        }
        for name, ordering in sorted(schema.orderings.items())
    ]
    return {
        "entities": entities,
        "relationships": relationships,
        "orderings": orderings,
    }


class ReplicaPeer:
    """One replica's shipping state, as the primary sees it."""

    def __init__(self, name):
        self.name = name
        self.state = "connected"  # seeding | streaming | quarantined | disconnected
        self.shipped_lsn = 0
        self.acked_lsn = 0
        self.lag = 0
        self.seeds = 0
        self.quarantines = 0
        self.last_error = None

    def as_dict(self):
        return {
            "name": self.name,
            "state": self.state,
            "shipped_lsn": self.shipped_lsn,
            "acked_lsn": self.acked_lsn,
            "lag": self.lag,
            "seeds": self.seeds,
            "quarantines": self.quarantines,
            "last_error": self.last_error,
        }


class ReplicationHub:
    """Seeds and streams the WAL to every connected replica."""

    def __init__(self, mdm, lag_budget=64, seed_chunk_rows=512,
                 metrics=None):
        self.mdm = mdm
        self.lag_budget = lag_budget
        self.seed_chunk_rows = seed_chunk_rows
        self._mutex = threading.Lock()
        self._peers = {}
        registry = metrics if metrics is not None else mdm.database.metrics
        self._m_frames = registry.counter("repl.frames_shipped")
        self._m_seeds = registry.counter("repl.seeds_sent")
        self._m_quarantines = registry.counter("repl.quarantines")
        self._m_acks = registry.counter("repl.acks")
        self._m_connected = registry.gauge("repl.replicas_connected")
        self._m_lag = registry.gauge("repl.lag_lsn")

    def status(self):
        with self._mutex:
            return [peer.as_dict() for peer in self._peers.values()]

    # -- one replica's serving loop --------------------------------------------

    def serve(self, transport, hello):
        """Serve one replica connection until it drops (blocking)."""
        name = str(hello.get("replica", "replica"))
        wal = self.mdm.database._log
        if wal is None:
            transport.send(protocol.REPL_ERROR, {
                "code": "ReplicationError", "lsn": 0,
                "message": "primary is in-memory: nothing to ship",
            })
            return
        peer = ReplicaPeer(name)
        with self._mutex:
            self._peers[name] = peer
        self._m_connected.inc()
        try:
            last_lsn = int(hello.get("last_lsn", 0))
            # A replica resuming within retained history streams from
            # where it left off; anything else (fresh, or behind a
            # checkpoint truncation) must be seeded.
            need_seed = last_lsn <= 0 or last_lsn < wal.base_lsn
            next_lsn = last_lsn + 1
            if not need_seed:
                peer.acked_lsn = last_lsn
                peer.state = "streaming"
            while True:
                if need_seed:
                    next_lsn = self._send_seed(transport, peer)
                    need_seed = False
                try:
                    frames = wal.stream_frames(next_lsn)
                except ReplicationError as error:
                    self._quarantine(peer, str(error))
                    need_seed = True
                    continue
                for lsn, frame in frames:
                    transport.send_raw(protocol.pack_repl_frame(lsn, frame))
                    peer.shipped_lsn = lsn
                    self._m_frames.inc()
                if frames:
                    next_lsn = frames[-1][0] + 1
                if self._drain_acks(transport, peer):
                    need_seed = True
                    continue
                lag = max(0, wal.flushed_lsn - peer.acked_lsn)
                peer.lag = lag
                self._update_lag_gauge()
                if lag > self.lag_budget:
                    self._quarantine(
                        peer, "lag %d exceeds budget %d" % (lag, self.lag_budget)
                    )
                    need_seed = True
                    continue
                # Caught up: park until new records become durable.
                wal.wait_for_flushed(next_lsn, timeout=0.05)
        except (NetworkError, ProtocolError, OSError):
            peer.state = "disconnected"
        finally:
            self._m_connected.dec()
            self._update_lag_gauge()

    def _drain_acks(self, transport, peer):
        """Collect pending REPL_ACK/REPL_ERROR frames; True => re-seed."""
        timeout = 0.02
        while True:
            try:
                kind, body = transport.recv(timeout=timeout)
            except NetworkTimeoutError:
                return False
            timeout = 0.0
            message = protocol.unpack_json(kind, body)
            if kind == protocol.REPL_ACK:
                peer.acked_lsn = max(peer.acked_lsn, int(message["lsn"]))
                self._m_acks.inc()
            elif kind == protocol.REPL_ERROR:
                # The replica refused a frame (CRC failure, unknown
                # table after DDL, apply error): its state is suspect.
                self._quarantine(
                    peer,
                    "%s: %s" % (message.get("code"), message.get("message")),
                )
                return True
            else:
                raise ProtocolError(
                    "unexpected %s frame from replica"
                    % protocol.KIND_NAMES.get(kind, kind)
                )

    def _quarantine(self, peer, reason):
        peer.state = "quarantined"
        peer.last_error = reason
        peer.quarantines += 1
        self._m_quarantines.inc()
        # Brief pause so a persistently broken replica re-seeds at a
        # bounded rate instead of spinning the connection thread.
        time.sleep(0.02)

    def _update_lag_gauge(self):
        with self._mutex:
            lags = [
                p.lag for p in self._peers.values() if p.state == "streaming"
            ]
        self._m_lag.set(max(lags) if lags else 0)

    # -- seeding ---------------------------------------------------------------

    def _send_seed(self, transport, peer):
        """Ship a full snapshot; returns the LSN to stream from next:
        ``seed_lsn + 1``, the first frame of the first transaction the
        snapshot does not hold."""
        peer.state = "seeding"
        database = self.mdm.database
        transactions = database.transactions
        seed_lsn = transactions.pin_snapshot()
        try:
            tables = [
                {
                    "name": name,
                    "columns": [
                        [c.name, c.domain.value]
                        for c in database.table(name).schema.columns
                    ],
                }
                for name in database.table_names()
            ]
            transport.send(protocol.REPL_SEED, {
                "lsn": seed_lsn,
                "schema": schema_manifest(self.mdm.schema),
                "tables": tables,
                # Text indexes created before the seed point never
                # re-ship as stream frames (their CREATE records sit at
                # or below seed_lsn, which the replica skips), so the
                # catalog itself is part of the snapshot.
                "text_indexes": database.text_index_catalog(),
            })
            for name in database.table_names():
                table = database.table(name)
                order = table.schema.column_names()
                rows = list(table)  # snapshot-visible rows only
                for start in range(0, len(rows), self.seed_chunk_rows):
                    chunk = rows[start:start + self.seed_chunk_rows]
                    transport.send_raw(
                        protocol.pack_repl_rows(name, chunk, order)
                    )
            transport.send(protocol.REPL_SEED_END, {"lsn": seed_lsn})
        finally:
            transactions.unpin_snapshot()
        self._m_seeds.inc()
        peer.seeds += 1
        # Optimistically treat the seed as acked for lag accounting; the
        # replica's own REPL_ACK confirms (or quarantine catches it).
        peer.acked_lsn = max(peer.acked_lsn, seed_lsn)
        peer.shipped_lsn = max(peer.shipped_lsn, seed_lsn)
        peer.state = "streaming"
        return seed_lsn + 1
