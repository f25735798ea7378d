"""The retrying, failing-over MDM network client.

:class:`MdmClient` hides transient distribution faults behind the same
discipline the service layer uses locally: jittered exponential backoff
under an absolute per-call deadline.  What it hides, concretely:

* **Torn connections.**  Any network error triggers a reconnect and —
  for writes — a resend of the *same* per-client sequence number.  The
  server's durable dedup ledger makes the resend exactly-once: if the
  crash happened after the commit's WAL flush but before the ack, the
  retry comes back as duplicate-success instead of double-applying.
* **Replica loss and lag.**  Retrieves round-robin across read-only
  replicas and fail over — replica to replica to primary — on *any*
  replica-side error (replicas are best-effort; the primary is the
  authority).  A failed replica sits out a cooldown window.  Writes
  carry the durable LSN back, and retrieves send it as ``min_lsn``, so
  a replica never silently answers from before the client's own writes
  (read-your-writes).
* **Session state.**  ``range of`` declarations are recorded and
  replayed onto every fresh connection (a re-seeded replica forgets
  them), so failover does not change query meaning.

The client is not thread-safe; give each worker its own instance.
"""

import itertools
import os
import random
import time

from repro import errors as errors_module
from repro.errors import (
    MDMError,
    NetworkError,
    ProtocolError,
    RetryExhaustedError,
)
from repro.lang.lexer import leading_keywords
from repro.net import protocol
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry


_client_ids = itertools.count(1)


def _fresh_client_id():
    """A per-instance default client id.

    The id keys the server's durable write-dedup ledger, so two
    clients must never share one accidentally: a fresh client reusing
    another's id (and starting its seqs over) would have its genuinely
    new writes classified as duplicates of the other's history.
    Callers that *want* dedup continuity across restarts pass an
    explicit stable id.
    """
    return "client-%d-%d" % (os.getpid(), next(_client_ids))


def _exception_for(code, message):
    """Rehydrate a structured ERROR frame into the matching exception."""
    cls = getattr(errors_module, str(code), None)
    if isinstance(cls, type) and issubclass(cls, MDMError):
        return cls(message)
    return MDMError("%s: %s" % (code, message))


class _Endpoint:
    """One dialable server (primary or replica) and its live transport."""

    def __init__(self, address, role):
        self.address = tuple(address)
        self.role = role
        self.transport = None
        self.welcome = None
        self.cooldown_until = 0.0

    def close(self):
        if self.transport is not None:
            self.transport.close()
            self.transport = None
            self.welcome = None


class MdmClient:
    """A remote MusicDataManager handle with retry and failover."""

    def __init__(self, primary_address, replicas=(), client_id=None,
                 default_timeout=5.0, max_attempts=6, backoff_base=0.02,
                 backoff_cap=0.5, connect_timeout=2.0, replica_cooldown=0.5,
                 seed=0, transport_factory=None, metrics=None):
        self.client_id = (
            client_id if client_id is not None else _fresh_client_id()
        )
        self.default_timeout = default_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.connect_timeout = connect_timeout
        self.replica_cooldown = replica_cooldown
        self._rng = random.Random(seed)
        self._transport_factory = (
            transport_factory if transport_factory is not None
            else Transport.connect
        )
        self._primary = _Endpoint(primary_address, "primary")
        self._replicas = [_Endpoint(a, "replica") for a in replicas]
        self._next_replica = 0
        self._seq = 0  # highest seq acked by the server
        self._inflight = None  # (seq, source) whose fate is unknown
        self._commit_lsn = 0  # read-your-writes horizon
        # Range declarations in the order last declared, replayed onto
        # every fresh connection.  Keyed by statement text so that
        # re-declaring one moves it to the end instead of growing the
        # replay: the last declaration of a variable still wins.
        self._preamble = {}
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self._m_reconnects = registry.counter("client.reconnects")
        self._m_failovers = registry.counter("client.failovers")
        self._m_duplicates = registry.counter("client.duplicate_acks")
        self._m_retries = registry.counter("client.retries")

    # -- public API ------------------------------------------------------------

    def execute(self, source, timeout=None, row_budget=None):
        """Run a write/DDL statement on the primary, exactly once.

        ``range of`` declarations are treated as session state: run
        read-only, recorded, and replayed onto future connections.

        A statement that ends in :class:`RetryExhaustedError` is
        *in doubt* — it may or may not have committed.  Re-issuing the
        same statement resends the same sequence number, so the dedup
        ledger resolves it exactly-once.  Issuing a *different*
        statement abandons the in-doubt one (it keeps whatever fate it
        had) and moves to a fresh sequence number.
        """
        if leading_keywords(source, 2) == ("range", "of"):
            self._call_primary({
                "seq": None, "source": source, "read_only": True,
                "row_budget": row_budget,
            }, timeout)
            self._preamble.pop(source, None)
            self._preamble[source] = None
            return None
        if self._inflight is not None and self._inflight[1] == source:
            seq = self._inflight[0]
        else:
            # Learn the server's dedup high-water mark (WELCOME's
            # last_seq, adopted in _ensure_connected) before assigning
            # a fresh sequence number: a restarted client reusing a
            # stable id must continue the server's numbering — starting
            # over at 1 would classify its new writes as duplicates.
            if (self._primary.transport is None
                    or self._primary.transport.closed):
                try:
                    self._ensure_connected(self._primary, None)
                except MDMError:
                    pass  # the retry loop below surfaces real trouble
            seq = self._seq + 1
            if self._inflight is not None:
                seq = max(seq, self._inflight[0] + 1)
            self._inflight = None
        try:
            message = self._call_primary({
                "seq": seq, "source": source, "read_only": False,
                "row_budget": row_budget,
            }, timeout)
        except RetryExhaustedError:
            self._inflight = (seq, source)
            raise
        self._inflight = None
        self._seq = max(self._seq, seq)
        if message.get("duplicate"):
            self._m_duplicates.inc()
        lsn = message.get("commit_lsn")
        if lsn:
            self._commit_lsn = max(self._commit_lsn, lsn)
        return message.get("value")

    def retrieve(self, source, timeout=None, row_budget=None):
        """Run a retrieve, preferring replicas, failing over on trouble.

        Never surfaces a replica-side error: a replica that refuses
        (lag, restart, torn link) is put on cooldown and the next
        endpoint is tried, ending at the primary — whose answer (or
        error) is authoritative.
        """
        window = self.default_timeout if timeout is None else timeout
        deadline = None if window is None else time.monotonic() + window
        # Built once: every attempt, on any endpoint, sends it with
        # only its timeout_s rewritten.
        request = {
            "seq": None, "source": source, "read_only": True,
            "row_budget": row_budget, "min_lsn": self._commit_lsn,
        }
        for endpoint in self._replica_order():
            try:
                message = self._request_on(endpoint, request, deadline)
                return protocol.decode_rows(message)
            except MDMError:
                endpoint.close()
                endpoint.cooldown_until = (
                    time.monotonic() + self.replica_cooldown
                )
                self._m_failovers.inc()
        message = self._call(
            self._primary, protocol.REQUEST, request, timeout, deadline
        )
        return protocol.decode_rows(message)

    def meta(self, command, timeout=None):
        """Run a shell meta-command (``\\health``, ``\\replicas``, ...)."""
        message = self._call(
            self._primary, protocol.META, {"seq": None, "command": command},
            timeout,
        )
        return message.get("value")

    def close(self):
        for endpoint in [self._primary] + self._replicas:
            if endpoint.transport is not None:
                try:
                    endpoint.transport.send(protocol.BYE, {})
                except MDMError:
                    pass
            endpoint.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- the retry engine -------------------------------------------------------

    def _call_primary(self, request, timeout, deadline=None):
        return self._call(
            self._primary, protocol.REQUEST, request, timeout,
            deadline=deadline,
        )

    def _call(self, endpoint, kind, body, timeout, deadline=None):
        """Send one request with reconnect-and-retry under a deadline."""
        if deadline is None:
            window = self.default_timeout if timeout is None else timeout
            deadline = None if window is None else time.monotonic() + window
        last_error = None
        for attempt in range(1, self.max_attempts + 1):
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                break
            try:
                self._ensure_connected(endpoint, remaining)
                return self._roundtrip(endpoint, kind, body, remaining)
            except (NetworkError, ProtocolError) as error:
                # Torn link: reconnect and resend (dedup makes writes safe).
                endpoint.close()
                self._m_reconnects.inc()
                last_error = error
            except MDMError as error:
                if not getattr(error, "_retryable", False):
                    raise
                last_error = error
            if attempt < self.max_attempts:
                self._m_retries.inc()
                self._sleep_backoff(attempt, deadline)
        raise RetryExhaustedError(
            "client %r gave up on %s after %d attempt%s: %s"
            % (
                self.client_id, endpoint.role, attempt,
                "" if attempt == 1 else "s", last_error,
            ),
            attempts=attempt,
            last_error=last_error,
        )

    def _request_on(self, endpoint, request, deadline):
        """One shot (no retry loop) against a replica endpoint."""
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise NetworkError("deadline spent before dialing %s" % (endpoint.address,))
        self._ensure_connected(endpoint, remaining)
        return self._roundtrip(endpoint, protocol.REQUEST, request, remaining)

    def _roundtrip(self, endpoint, kind, body, remaining):
        """Send *body*, a dict the call owns, with this attempt's
        ``timeout_s`` set in it, and read the reply."""
        body["timeout_s"] = remaining
        endpoint.transport.send(kind, body)
        # Grace past the server-side deadline so a structured timeout
        # frame beats the socket timeout.
        wait = None if remaining is None else remaining + 0.5
        reply_kind, reply_body = endpoint.transport.recv(timeout=wait)
        message = protocol.unpack_json(reply_kind, reply_body)
        if reply_kind == protocol.ERROR:
            error = _exception_for(
                message.get("code"), message.get("message")
            )
            error._retryable = bool(message.get("retryable"))
            raise error
        if reply_kind != protocol.RESULT:
            raise ProtocolError(
                "expected RESULT, got %s"
                % protocol.KIND_NAMES.get(reply_kind, reply_kind)
            )
        return message

    def _ensure_connected(self, endpoint, remaining):
        if endpoint.transport is not None and not endpoint.transport.closed:
            return
        timeout = self.connect_timeout
        if remaining is not None:
            timeout = min(timeout, max(0.01, remaining))
        transport = self._transport_factory(endpoint.address, timeout)
        try:
            transport.send(protocol.HELLO, {
                "proto": protocol.PROTOCOL_VERSION,
                "client": self.client_id,
                "last_seq": self._seq,
            })
            reply_kind, reply_body = transport.recv(timeout=timeout)
            welcome = protocol.unpack_json(reply_kind, reply_body)
            if reply_kind == protocol.ERROR:
                raise _exception_for(
                    welcome.get("code"), welcome.get("message")
                )
            if reply_kind != protocol.WELCOME:
                raise ProtocolError("handshake did not return WELCOME")
            if endpoint.role == "primary":
                # Adopt the server's dedup high-water mark: a restarted
                # client reusing a stable client_id would otherwise
                # start at seq 1 and have its genuinely new writes
                # classified as duplicates (stale results, statements
                # silently not executed).
                self._seq = max(
                    self._seq, int(welcome.get("last_seq") or 0)
                )
            for statement in self._preamble:
                transport.send(protocol.REQUEST, {
                    "seq": None, "source": statement, "read_only": True,
                    "timeout_s": timeout,
                })
                kind2, body2 = transport.recv(timeout=timeout)
                if kind2 == protocol.ERROR:
                    reply = protocol.unpack_json(kind2, body2)
                    raise _exception_for(
                        reply.get("code"), reply.get("message")
                    )
        except MDMError:
            transport.close()
            raise
        endpoint.transport = transport
        endpoint.welcome = welcome

    def _replica_order(self):
        """Healthy replicas starting at the round-robin cursor."""
        if not self._replicas:
            return []
        now = time.monotonic()
        count = len(self._replicas)
        start = self._next_replica
        self._next_replica = (start + 1) % count
        ordered = [
            self._replicas[(start + i) % count] for i in range(count)
        ]
        return [e for e in ordered if e.cooldown_until <= now]

    def _sleep_backoff(self, attempt, deadline):
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random()
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        time.sleep(delay)

    # -- introspection ----------------------------------------------------------

    @property
    def last_commit_lsn(self):
        return self._commit_lsn

    @property
    def last_seq(self):
        return self._seq
