"""Shared fixtures for the network-serving tests."""

import contextlib
import time

import pytest

from repro.mdm.manager import MusicDataManager
from repro.net import MdmClient, MdmServer, ReplicaServer, protocol
from repro.storage.database import Database


@pytest.fixture
def served_mdm(tmp_path):
    """A durable MDM behind a started MdmServer; both torn down."""
    mdm = MusicDataManager(str(tmp_path / "db"))
    server = MdmServer(mdm)
    server.start()
    yield mdm, server
    server.stop()
    mdm.close()


@pytest.fixture
def client(served_mdm):
    _, server = served_mdm
    client = MdmClient(server.address, client_id="test-client",
                       default_timeout=5.0)
    yield client
    client.close()


#: The two roles that serve clients through ``WireServer``.
ROLES = ["primary", "replica"]


@contextlib.contextmanager
def serving(tmp_path, role, **server_options):
    """A started server of *role*, built with *server_options*.

    Yields ``(server, registry, connect)``: the server under test, the
    registry its ``net.*`` counters land in, and ``connect(client_id)``
    for a client whose retrieves that server answers (its writes go to
    the primary the replica is fed by, as always).
    """
    mdm = MusicDataManager(str(tmp_path / "db"))
    if role == "primary":
        primary = server = MdmServer(mdm, **server_options)
        primary.start()
        registry, replicas = mdm.database.metrics, []
    else:
        primary = MdmServer(mdm)
        primary.start()
        server = start_replica(primary, name="role", **server_options)
        assert wait_serving(server)
        registry, replicas = server.metrics, [server.address]
    clients = []

    def connect(client_id):
        clients.append(MdmClient(primary.address, replicas=replicas,
                                 client_id=client_id, replica_cooldown=0.0))
        return clients[-1]

    try:
        yield server, registry, connect
    finally:
        for client in clients:
            client.close()
        if server is not primary:
            server.stop()
        primary.stop()
        mdm.close()


def wait_until(predicate, timeout=5.0):
    """Poll *predicate* until it holds; returns its last value."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


def reply(wire, expected_kind):
    """The next frame on a raw transport, which must be *expected_kind*."""
    kind, body = wire.recv(timeout=5.0)
    assert kind == expected_kind, protocol.KIND_NAMES.get(kind, kind)
    return protocol.unpack_json(kind, body)


def start_replica(server, name="r1", **kwargs):
    replica = ReplicaServer(server.address, name=name, **kwargs)
    replica.start()
    return replica


def wait_serving(replica, timeout=5.0):
    return wait_until(lambda: replica.status()["serving"], timeout)


def wait_applied(replica, lsn, timeout=5.0):
    def applied():
        status = replica.status()
        return status["serving"] and status["applied_lsn"] >= lsn

    return wait_until(applied, timeout)


def seed_frames(lsn, database=None):
    """The frames ``ReplicationHub`` seeds a replica with: the image of
    *database* (an empty one by default) at *lsn*, a ``REPL_SEED`` frame
    a piece, then ``REPL_SEED_END``."""
    database = database if database is not None else Database()
    with database.image(lsn) as (_, pieces):
        frames = [
            protocol.encode_frame(protocol.REPL_SEED, piece) for piece in pieces
        ]
    return frames + [protocol.pack(protocol.REPL_SEED_END, {})]


def send_seed(primary, lsn, database=None):
    """Seed a replica by hand over the *primary* end of its feed."""
    for frame in seed_frames(lsn, database):
        primary.send_raw(frame)
