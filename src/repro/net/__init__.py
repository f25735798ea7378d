"""Network serving: wire protocol, connection server, WAL-shipping replicas.

Turns the in-process Music Data Manager into a served system: a
length-prefixed, CRC-tagged binary protocol (:mod:`repro.net.protocol`),
one thread-per-connection serving loop (:mod:`repro.net.server`) behind
both roles — the primary, which runs remote sessions through the
existing service layer, and the read-only replicas fed by WAL shipping
(:mod:`repro.net.replica`, :mod:`repro.net.replication`) — and a
retrying, failing-over client (:mod:`repro.net.client`).  Robustness is
the point: every piece is built to survive torn connections, slow or
dead replicas, and crash-mid-commit, and the seeded fault machinery
from :mod:`repro.storage.faults` drives wire faults through
:class:`repro.net.transport.FaultyTransport` exactly as it drives disk
faults through ``FaultyFile``.
"""

from repro.net.client import MdmClient
from repro.net.replica import ReplicaServer
from repro.net.server import MdmServer

__all__ = ["MdmClient", "MdmServer", "ReplicaServer"]
