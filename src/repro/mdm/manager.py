"""The MusicDataManager facade.

Owns the storage database (with WAL/locking), the CMN schema, the
meta-catalog, the QUEL session, and a client registry.  Programs talk
to the MDM through DDL/QUEL text or through the object APIs; either
way they share one representation, the core benefit section 2 claims.

Concurrent clients go through the service layer: :meth:`connect`
returns an :class:`~repro.mdm.service.MdmSession` whose ``run`` method
wraps a closure in a transaction with wait-die retry, deadline
propagation, and admission control (see :mod:`repro.mdm.service`).
The manager aggregates the robustness counters from the lock table,
the admission gate, and the sessions into :meth:`statistics`.
"""

from repro.cmn.schema import CmnSchema
from repro.core.catalog import MetaCatalog
from repro.ddl.compiler import execute_ddl
from repro.lang.lexer import leading_keywords
from repro.mdm.service import (
    AdmissionGate,
    MdmSession,
    RemoteSessions,
    ServiceMetrics,
)
from repro.quel.executor import QuelSession
from repro.storage.database import Database


class MusicDataManager:
    """A database back end for musical applications."""

    def __init__(self, path=None, with_cmn=True, max_concurrent=8,
                 admission_queue_timeout=0.1, opener=None):
        self.database = Database(path, opener=opener)
        if with_cmn:
            # Binds to recovered tables when *path* holds an earlier
            # MDM's data, so plain construction doubles as reopen.
            self.cmn = CmnSchema(database=self.database)
        else:
            from repro.core.schema import Schema

            self.cmn = None
            self._bare_schema = Schema("mdm", database=self.database)
        self.session = QuelSession(self.schema)
        self._meta = None
        self.clients = []
        self._closed = False
        # Service counters share the database's registry so one
        # \metrics listing covers the whole stack.
        self.metrics = ServiceMetrics(registry=self.database.metrics)
        self.admission = AdmissionGate(
            limit=max_concurrent,
            queue_timeout=admission_queue_timeout,
            metrics=self.metrics,
        )
        # Remote requests (the network server's) register here, so
        # close() can drain them instead of dying under their feet.
        self.remote = RemoteSessions()

    @classmethod
    def reopen(cls, path):
        """Reopen a persisted MDM directory (recovers committed state).

        Schema *objects* are reconstructed by re-declaring the CMN schema
        over the recovered tables; table contents come from the
        checkpoint + WAL replay.
        """
        return cls(path)

    @property
    def schema(self):
        return self.cmn.schema if self.cmn is not None else self._bare_schema

    @property
    def meta(self):
        """The schema-as-data catalog, built lazily and kept in sync."""
        if self._meta is None:
            self._meta = MetaCatalog(self.schema)
            self._meta.sync()
        return self._meta

    # -- language entry points ------------------------------------------------

    def execute(self, source):
        """Run DDL or QUEL text (dispatched on the first keyword)."""
        if leading_keywords(source, 1) == ("define",):
            return execute_ddl(source, self.schema)
        return self.session.execute(source)

    def retrieve(self, source):
        """Run a QUEL retrieve and return its rows."""
        return self.session.execute(source)

    # -- service layer --------------------------------------------------------------

    def connect(self, name="session", **session_options):
        """A service-layer session for one client (see MdmSession)."""
        return MdmSession(self, name=name, **session_options)

    # -- transactions / durability -----------------------------------------------

    def begin(self):
        return self.database.begin()

    def bulk_ingest(self, table_name, rows, batch_rows=1000):
        """COPY-style bulk load (see Database.bulk_ingest)."""
        return self.database.bulk_ingest(table_name, rows, batch_rows=batch_rows)

    def checkpoint(self):
        self.database.checkpoint()

    def close(self, drain_timeout=2.0):
        """Close the MDM; idempotent and exception-safe.

        Remote sessions are drained first: new remote requests are
        refused with :class:`~repro.errors.ShutdownError` and requests
        already in flight get up to *drain_timeout* seconds to finish,
        so a commit the server is about to acknowledge is never torn by
        its own shutdown.  Then, as before, the active local transaction
        (if any) is aborted — abandoned if even the abort fails — before
        the database releases its log file.  A double close, or a close
        after an error mid-transaction, neither raises nor leaves locks
        behind.
        """
        if self._closed:
            return
        self._closed = True
        self.remote.drain(drain_timeout)
        transactions = self.database.transactions
        txn = transactions.current()
        if txn is not None:
            try:
                txn.abort()
            except Exception:
                transactions.abandon(txn)
        try:
            self.database.close()
        except OSError:
            pass  # the log file handle is gone either way

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- clients --------------------------------------------------------------------

    def register_client(self, client):
        """Attach a client program (figure 1); returns the client."""
        client.attach(self)
        self.clients.append(client)
        return client

    def client_names(self):
        return [client.name for client in self.clients]

    # -- health ---------------------------------------------------------------------

    def statistics(self):
        stats = self.schema.statistics()
        stats["clients"] = len(self.clients)
        stats["tables"] = len(self.database.table_names())
        stats.update(self.metrics.snapshot())
        locks = self.database.transactions.lock_manager.stats()
        stats["lock_waits"] = locks["waits"]
        stats["lock_timeouts"] = locks["timeouts"]
        stats["deadlock_aborts"] = locks["deadlock_aborts"]
        stats["degraded"] = self.database.degraded
        return stats

    def check_invariants(self):
        self.schema.check_invariants()

