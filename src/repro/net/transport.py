"""Socket transports: framed send/receive, with seeded fault injection.

:class:`Transport` wraps one connected socket with the frame layer from
:mod:`repro.net.protocol`: ``send`` writes whole frames, ``recv`` blocks
(deadline-bounded) until a whole, checksum-verified frame arrives.  All
failure modes surface as the :class:`repro.errors.NetworkError` family —
a torn connection is ``NetworkError``, garbage is ``ProtocolError``, a
quiet peer past the deadline is ``NetworkTimeoutError`` — so callers
never see raw ``socket.error`` soup.

:class:`FaultyTransport` is the wire-side counterpart of
:class:`repro.storage.faults.FaultyFile`: it consults a
:class:`~repro.storage.faults.FaultPlan`'s plan-wide frame counter on
every send and injects deterministic disconnects, partial (torn) sends,
stalls, and persistent partitions, so one seeded plan drives disk and
wire faults together and a failing schedule replays exactly.
"""

import math
import socket
import struct
import time

from repro.errors import NetworkError, NetworkTimeoutError, ProtocolError
from repro.net import protocol

_HEADER = protocol.FRAME_HEADER
_HEADER_SIZE = _HEADER.size
#: ``struct timeval``: seconds, microseconds.
_TIMEVAL = struct.Struct("@ll")


class Transport:
    """One framed, bidirectional connection."""

    def __init__(self, sock):
        # Blocking, with the kernel bounding each wait (_wait_at_most).
        sock.settimeout(None)
        self._sock = sock
        self._buffer = b""
        self._wait = None  # the last wait asked for
        self._wait_ms = None  # the bound set on the socket (None: none)
        self.closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, AttributeError):
            pass  # non-TCP sockets (socketpair) have no Nagle to disable

    @classmethod
    def connect(cls, address, timeout=5.0):
        """Dial ``(host, port)`` and return a connected transport."""
        try:
            sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise NetworkError("cannot connect to %s:%s: %s" % (address[0], address[1], exc))
        return cls(sock)

    # -- sending ---------------------------------------------------------------

    def send(self, kind, obj):
        """Send a JSON-bodied control frame."""
        self.send_raw(protocol.pack(kind, obj))

    def send_raw(self, frame):
        """Send pre-encoded frame bytes."""
        self._sendall(frame)

    def _sendall(self, data):
        if self.closed:
            raise NetworkError("transport is closed")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            self.close()
            raise NetworkError("send failed: %s" % exc)

    # -- receiving -------------------------------------------------------------

    def recv(self, timeout=None):
        """Receive one frame; returns ``(kind, body_bytes)``.

        *timeout* (seconds, None = block forever) bounds the wait for a
        *complete* frame; expiry raises :class:`NetworkTimeoutError`.
        EOF mid-frame or before one raises :class:`NetworkError`; a
        checksum or length violation raises :class:`ProtocolError`.

        A frame that arrives whole -- the common case -- costs one
        ``recv`` system call: the header is read off the bytes that call
        returned, and the payload sliced from them.
        """
        buffer = self._buffer
        started = None
        while True:
            if len(buffer) >= _HEADER_SIZE:
                length, crc = _HEADER.unpack_from(buffer)
                if length > protocol.MAX_FRAME_BYTES:
                    self.close()
                    raise ProtocolError("peer announced %d-byte frame" % length)
                end = _HEADER_SIZE + length
                if len(buffer) >= end:
                    break
            if timeout is None:
                wait = None
            elif started is None:
                started, wait = time.monotonic(), timeout
            else:
                wait = started + timeout - time.monotonic()
            self._buffer = buffer  # kept should the wait run out mid-frame
            buffer += self._receive(wait)
        self._buffer = buffer[end:]
        try:
            return protocol.decode_payload(buffer[_HEADER_SIZE:end], crc)
        except ProtocolError:
            # A frame that failed its checksum poisons the stream — the
            # next bytes may be mid-frame garbage — so tear it down.
            self.close()
            raise

    def _receive(self, wait):
        """One ``recv`` of whatever has arrived, waiting at most *wait*
        seconds (None: for ever)."""
        if self.closed:
            raise NetworkError("transport is closed")
        if wait != self._wait:
            if wait is not None and wait <= 0:
                raise NetworkTimeoutError(
                    "no complete frame within the receive deadline"
                )
            self._wait_at_most(wait)
        try:
            chunk = self._sock.recv(65536)
        except BlockingIOError:
            # The kernel's receive timeout ran out (see _wait_at_most).
            raise NetworkTimeoutError(
                "no complete frame within the receive deadline"
            )
        except OSError as exc:
            self.close()
            raise NetworkError("receive failed: %s" % exc)
        if not chunk:
            self.close()
            raise NetworkError("connection closed by peer")
        return chunk

    def _wait_at_most(self, wait):
        """Bound the socket's blocking calls by *wait* seconds, rounded
        up to the millisecond, or lift the bound (None).

        The socket stays in blocking mode and the bound is the kernel's
        ``SO_RCVTIMEO`` / ``SO_SNDTIMEO``: a Python-level timeout would
        put a ``poll`` before every ``recv`` and ``send``.  The options
        are written only when the bound changes, which for a caller that
        keeps asking for the same wait is once.
        """
        self._wait = wait
        millis = None if wait is None else max(1, math.ceil(wait * 1000))
        if millis == self._wait_ms:
            return
        seconds, millis_left = divmod(millis or 0, 1000)
        timeval = _TIMEVAL.pack(seconds, millis_left * 1000)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        except OSError as exc:
            self.close()
            raise NetworkError("cannot set the socket timeout: %s" % exc)
        self._wait_ms = millis

    # -- teardown --------------------------------------------------------------

    def close(self):
        if self.closed:
            return
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class FaultyTransport(Transport):
    """A transport whose sends fault on a seeded, reproducible schedule.

    Mirrors ``FaultyFile``: the :class:`~repro.storage.faults.FaultPlan`
    counts frames across *every* faulty transport it drives (so
    ``disconnect_at_frame=3`` means "the third frame sent anywhere under
    this plan"), and decides per frame whether to send normally, stall,
    tear the connection cleanly, or send a strict prefix and then tear —
    the wire analogue of a torn write.  Receives are untouched: the
    peer's view of a torn send is already the interesting failure.
    """

    def __init__(self, sock, plan):
        super().__init__(sock)
        self._plan = plan

    @classmethod
    def connector(cls, plan):
        """A ``transport_factory(address)`` injecting *plan* (for MdmClient)."""
        def factory(address, timeout=5.0):
            try:
                sock = socket.create_connection(address, timeout=timeout)
            except OSError as exc:
                raise NetworkError(
                    "cannot connect to %s:%s: %s" % (address[0], address[1], exc)
                )
            return cls(sock, plan)
        return factory

    def send_raw(self, frame):
        fault, argument = self._plan.on_net_frame(len(frame))
        if fault == "down":
            self.close()
            raise NetworkError(
                "injected network partition (frame #%d)" % self._plan.frame_count
            )
        if fault == "disconnect":
            self.close()
            raise NetworkError(
                "injected disconnect at frame #%d" % self._plan.frame_count
            )
        if fault == "partial":
            try:
                self._sendall(frame[:argument])
            finally:
                self.close()
            raise NetworkError(
                "injected partial send (%d of %d bytes) at frame #%d"
                % (argument, len(frame), self._plan.frame_count)
            )
        if fault == "stall":
            time.sleep(argument)
        self._sendall(frame)
