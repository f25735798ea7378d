"""A served request's counters cost a slot each, and stay exact.

The request loop adds a frame's ``net.*`` counts, and the executor a
statement's ``quel.*`` / ``text.*`` counts, into plain slots of their
thread's cell; the registry sums the cells on read.  Two remote readers
and a remote writer running together must leave every counter equal to
what the clients sent and received, and one warm remote read calls a
fixed, small number of instruments on its connection's thread.
"""

import threading

import pytest

from repro.net import MdmClient, protocol
from repro.net.transport import Transport
from repro.obs.metrics import Counter, Gauge, Histogram

from .conftest import wait_until

pytestmark = pytest.mark.net

COUNTERS = (
    "net.requests", "net.frames_in", "net.frames_out",
    "service.snapshot_reads", "quel.statements", "quel.rows_returned",
    "quel.rows_fetched", "text.searches",
)


class CountingTransport(Transport):
    """A client transport that counts the frames it sends, by kind,
    and the frames it receives."""

    def __init__(self, sock, tally):
        super().__init__(sock)
        self._tally = tally

    def send_raw(self, frame):
        super().send_raw(frame)
        kind = frame[protocol.FRAME_HEADER.size]
        with self._tally["lock"]:
            self._tally[kind] = self._tally.get(kind, 0) + 1

    def recv(self, timeout=None):
        frame = super().recv(timeout)
        with self._tally["lock"]:
            self._tally["received"] += 1
        return frame


def counting_client(server, client_id, tally):
    def factory(address, timeout=5.0):
        plain = Transport.connect(address, timeout)
        return CountingTransport(plain._sock, tally)

    return MdmClient(server.address, client_id=client_id,
                     transport_factory=factory)


def _catalog(mdm):
    """TRACK rows whose titles' trigrams name them exactly, indexed on
    ``n`` and (trigrams) on ``title``; NOTE is the writer's."""
    mdm.schema.define_entity("TRACK", [("title", "string"), ("n", "integer")])
    mdm.schema.define_entity("NOTE", [("degree", "integer")])
    track = mdm.schema.entity_type("TRACK")
    for n in range(60):
        track.create(title="%s %d" % ("alpha" if n % 3 else "omega", n),
                     n=n % 10)
    mdm.database.create_text_index(track.table.name, "title")
    track.table.create_index("n")
    # Settle the loaded rows' version chains: a pinned read then merges
    # no stale rowid into what it fetches.
    track.table.prune_versions(mdm.database.transactions.prune_horizon())
    assert track.table.stale_rowids() == ()


def test_two_readers_and_a_writer_leave_exact_counters(served_mdm):
    mdm, server = served_mdm
    _catalog(mdm)
    registry = mdm.database.metrics
    connections = registry.gauge("net.connections")
    before = {name: registry.value(name) for name in COUNTERS}
    tally = {"lock": threading.Lock(), "received": 0}
    returned = []
    searches = []
    statements = []

    def reader(index):
        client = counting_client(server, "reader-%d" % index, tally)
        try:
            client.execute("range of t is TRACK")
            rows = 0
            for round_ in range(40):
                if round_ % 4 == index:
                    found = client.retrieve(
                        'retrieve (t.title) where matches(t.title, "omega")'
                    )
                    searches.append(1)
                else:
                    found = client.retrieve(
                        "retrieve (t.title, t.n) where t.n = %d" % (round_ % 10)
                    )
                rows += len(found)
                statements.append(1)
            returned.append(rows)
        finally:
            client.close()

    def writer():
        client = counting_client(server, "writer", tally)
        try:
            for degree in range(25):
                assert client.execute(
                    "append to NOTE (degree = %d)" % degree
                ) == 1
                statements.append(1)
        finally:
            client.close()

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    # A BYE is read, and counted, by the connection's own thread.
    assert wait_until(lambda: connections.value == 0)
    after = {name: registry.value(name) for name in COUNTERS}
    delta = {name: after[name] - before[name] for name in COUNTERS}

    sent = sum(count for key, count in tally.items() if isinstance(key, int))
    requests = tally[protocol.REQUEST]
    read_requests = requests - 25  # every request but the writer's appends
    assert len(returned) == 2 and len(statements) == 2 * 40 + 25
    assert delta == {
        "net.requests": requests,
        "net.frames_in": sent,
        "net.frames_out": tally["received"],
        "service.snapshot_reads": read_requests,
        "quel.statements": len(statements),
        "quel.rows_returned": sum(returned),
        # Every candidate either index answered is a row returned: the
        # readers' table takes no write, so no stale rowid joins a fetch.
        "quel.rows_fetched": sum(returned),
        "text.searches": len(searches),
    }
    assert tally[protocol.HELLO] == tally[protocol.BYE] == 3


def test_a_warm_remote_read_calls_three_instruments_on_its_thread(
    served_mdm, monkeypatch
):
    """Every count a warm read makes on its connection thread is a slot
    of that thread's cell but three: the service's snapshot read, and
    the snapshot gauge set at the pin and at the unpin."""
    mdm, server = served_mdm
    _catalog(mdm)
    registry = mdm.database.metrics
    writes = []

    def recorded(write):
        def record(instrument, *args):
            if threading.current_thread().name == "mdm-server-conn":
                writes.append((type(instrument).__name__, write.__name__))
            return write(instrument, *args)
        return record

    for kind, methods in (
        (Counter, ("inc",)), (Gauge, ("set", "inc", "dec")),
        (Histogram, ("observe",)),
    ):
        for method in methods:
            monkeypatch.setattr(
                kind, method, recorded(getattr(kind, method))
            )
    point = "retrieve (t.title) where t.n = 7"
    names = COUNTERS + ("quel.cache.statement_hits", "quel.cache.hits")
    with MdmClient(server.address) as client:
        client.execute("range of t is TRACK")
        for _ in range(2):  # the first compiles the plan
            client.retrieve(point)
        del writes[:]
        before = {name: registry.value(name) for name in names}
        assert len(client.retrieve(point)) == 6
        after = {name: registry.value(name) for name in names}
        assert sorted(writes) == [
            ("Counter", "inc"), ("Gauge", "set"), ("Gauge", "set"),
        ]
    assert {name: after[name] - before[name] for name in names} == {
        "net.requests": 1, "net.frames_in": 1, "net.frames_out": 1,
        "service.snapshot_reads": 1, "quel.statements": 1,
        "quel.rows_returned": 6, "quel.rows_fetched": 6, "text.searches": 0,
        "quel.cache.statement_hits": 1, "quel.cache.hits": 1,
    }
