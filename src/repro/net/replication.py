"""WAL shipping: the primary side of read-only replication.

The :class:`ReplicationHub` serves each connected replica from the
connection's own thread.  A replica is first *seeded* with the image
of a pinned MVCC snapshot (``Database.image``: what a checkpoint writes,
a ``REPL_SEED`` frame a piece, then ``REPL_SEED_END``) and then
*streamed*: raw WAL frames, each still wearing its on-disk CRC, from the
seed LSN forward.  Only the durable prefix ships (``stream_frames``
stops at ``flushed_lsn``), so an acknowledged replica is never ahead of
the primary's own durability; and because a commit is one frame, that
prefix — hence every seed LSN and every batch — ends between commits.

A replica is quarantined and re-seeded from a fresh snapshot, on the
same connection, in two cases only: it refused a frame or a seed
(``REPL_ERROR``: its state is suspect, and it refuses reads until the
seed installs), or it needs history the primary no longer holds (a
checkpoint moved ``base_lsn`` past it).  A replica that is merely
behind is streamed what it lacks; its lag is reported, and a client
that must not read stale state says so with ``min_lsn``.
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

    def __init__(self, mdm):
        self.mdm = mdm
        self._mutex = threading.Lock()
        self._peers = {}
        registry = mdm.database.metrics
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
            # where it left off; anything else (fresh, or behind the
            # segments a checkpoint dropped) must be seeded.
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
                peer.lag = max(0, wal.flushed_lsn - peer.acked_lsn)
                self._update_lag_gauge()
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
                # The replica refused a frame (CRC failure, apply
                # error): its state is suspect.
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
        """Ship the image of a pinned snapshot; returns the LSN to
        stream from next: ``seed_lsn + 1``, the first frame of the first
        transaction the snapshot does not hold."""
        peer.state = "seeding"
        with self.mdm.database.image() as (seed_lsn, pieces):
            for piece in pieces:
                transport.send_raw(protocol.encode_frame(protocol.REPL_SEED, piece))
        # Counted before the end frame: whoever holds it sees the count.
        self._m_seeds.inc()
        peer.seeds += 1
        transport.send(protocol.REPL_SEED_END, {})
        peer.shipped_lsn = max(peer.shipped_lsn, seed_lsn)
        peer.state = "streaming"
        return seed_lsn + 1
