"""A score read over the wire beside an editor: the section 5.6 ``path``
query binds ``order range`` under the server's pinned snapshot, on the
primary and on a replica, and answers with the editor's list model as of
the LSN the reader was pinned at -- never a sibling list no committed
state had.

The editor works in process on the primary (moves and reparents are API
calls, not QUEL) and records ``(commit LSN, answer per measure)`` after
every transaction.  The reader cannot see its own pin, so each retrieve
is bracketed by the visible LSN, before and after, of the database that
answered it: the rows must be the model's at one of the LSNs in between.
That is the replica's, unless the client failed over to the primary
(``client.failovers`` moved): a replica behind the reader's
``min_lsn`` refuses, retryably.
"""

import bisect
import random
import threading

import pytest

from repro.fixtures.examples import make_scale_score
from repro.net import MdmClient
from tests.net.conftest import start_replica, wait_applied, wait_serving

pytestmark = pytest.mark.net

MEASURES, VOICES, NOTES = 2, 2, 4
EDITS = 150
RANGES = (
    "range of n is NOTE\nrange of c is CHORD\n"
    "range of s is SYNC\nrange of m is MEASURE"
)
PATH = (
    "retrieve (n.degree) where n under c in note_in_chord "
    "and c under s in chord_in_sync and s under m in sync_in_measure "
    "and m.number = %d"
)


class _Editor:
    """One session editing ``chord_in_sync`` and ``note_in_chord``, a
    transaction an edit, beside a list model: measure number -> syncs,
    sync -> chords, chord -> ``(note, degree)`` pairs."""

    def __init__(self, mdm, seed):
        self.mdm = mdm
        self.rng = random.Random(seed)
        self.session = mdm.connect("editor", default_timeout=None)
        self.session.run(lambda m: make_scale_score(
            measures=MEASURES, voices=VOICES, notes_per_measure=NOTES,
            cmn=m.cmn,
        ))
        cmn = mdm.cmn
        self.syncs = {
            measure["number"]: cmn.sync_in_measure.children(measure)
            for measure in cmn.MEASURE.instances()
        }
        self.chords = {
            sync: cmn.chord_in_sync.children(sync)
            for syncs in self.syncs.values() for sync in syncs
        }
        self.notes = {
            chord: [(n, n["degree"]) for n in cmn.note_in_chord.children(chord)]
            for chords in self.chords.values() for chord in chords
        }
        self.history = []  # (commit LSN, {measure number: degrees})
        self.error = None
        self._record()

    def _record(self):
        answers = {
            number: [
                degree for sync in syncs for chord in self.chords[sync]
                for _, degree in self.notes[chord]
            ]
            for number, syncs in self.syncs.items()
        }
        lsn = self.mdm.database.transactions.snapshot_lsn()
        self.history.append((lsn, answers))

    def run(self, edits):
        try:
            for _ in range(edits):
                self._edit()
                self._record()
        except BaseException as error:  # handed to the test's thread
            self.error = error

    def _edit(self):
        rng = self.rng
        chord = rng.choice(sorted(self.notes, key=lambda c: c.surrogate))
        notes = self.notes[chord]
        kind = rng.randrange(3)
        if kind == 0:  # the chord goes to another sync, anywhere in it
            source = next(s for s, held in self.chords.items() if chord in held)
            target = rng.choice([s for s in self.chords if s != source])
            position = rng.randint(1, len(self.chords[target]) + 1)
            self.session.run(lambda m: m.cmn.chord_in_sync.reparent(
                chord, target, position
            ))
            self.chords[source].remove(chord)
            self.chords[target].insert(position - 1, chord)
        elif kind == 1 or len(notes) < 2:  # a new note, anywhere in the chord
            position = rng.randint(1, len(notes) + 1)
            degree = rng.randint(0, 12)
            made = []

            def change(m):
                del made[:]  # a retried transaction creates the note again
                made.append(m.cmn.NOTE.create(
                    degree=degree, accidental="", tied_to_next=False
                ))
                m.cmn.note_in_chord.insert(chord, made[0], position)

            self.session.run(change)
            notes.insert(position - 1, (made[0], degree))
        else:  # a note moves within its chord
            slot = rng.randrange(len(notes))
            position = rng.randint(1, len(notes))
            self.session.run(
                lambda m: m.cmn.note_in_chord.move(notes[slot][0], position)
            )
            notes.insert(position - 1, notes.pop(slot))

    def answers_between(self, number, low, high):
        """The answers for measure *number* a reader pinned somewhere in
        the LSN window [*low*, *high*] may have seen."""
        lsns = [lsn for lsn, _ in self.history]
        first = max(0, bisect.bisect_right(lsns, low) - 1)
        return [
            answers[number]
            for _, answers in self.history[first:bisect.bisect_right(lsns, high)]
        ]


def _read_beside_the_editor(editor, client, replica=None):
    """Retrieve ``path`` in a loop while the editor edits; every answer
    must be the model's at an LSN the database that answered showed
    around that request.  Returns how many reads failed over."""
    endpoints = [editor.mdm.database.transactions.snapshot_lsn]
    if replica is not None:
        endpoints.insert(0, lambda: replica.status()["applied_lsn"])
    client.execute(RANGES)
    plan = [row["plan"] for row in client.retrieve(
        "explain analyze " + PATH % 1
    )]
    assert [line.split(" (")[0] for line in plan[:4]] == [
        "bind m via index", "bind s via order range",
        "bind c via order range", "bind n via order range",
    ]
    assert plan[4].startswith("snapshot "), plan
    thread = threading.Thread(target=editor.run, args=(EDITS,))
    observed = []
    thread.start()
    try:
        while thread.is_alive() or len(observed) < 2 * MEASURES:
            number = 1 + len(observed) % MEASURES
            failovers = client.metrics.value("client.failovers")
            lows = [lsn() for lsn in endpoints]
            rows = client.retrieve(PATH % number)
            highs = [lsn() for lsn in endpoints]
            failed_over = client.metrics.value("client.failovers") > failovers
            at = -1 if failed_over else 0  # the primary is tried last
            observed.append((
                number, lows[at], highs[at], [row["n.degree"] for row in rows],
                failed_over,
            ))
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    if editor.error is not None:
        raise editor.error
    assert len(editor.history) == EDITS + 1
    for number, low, high, degrees, _ in observed:
        assert degrees in editor.answers_between(number, low, high), (
            "measure %d read %r between LSN %d and %d"
            % (number, degrees, low, high)
        )
    # The reads really did interleave with the edits.
    assert len({low for _, low, _, _, _ in observed}) > 2
    return sum(failed_over for *_, failed_over in observed)


def test_a_client_reads_a_score_beside_an_editor(served_mdm):
    mdm, server = served_mdm
    editor = _Editor(mdm, seed=22)
    with MdmClient(server.address, default_timeout=10.0) as client:
        _read_beside_the_editor(editor, client)
    mdm.check_invariants()


def test_a_replica_reads_a_score_beside_an_editor(served_mdm):
    mdm, server = served_mdm
    editor = _Editor(mdm, seed=23)
    replica = start_replica(server)
    try:
        assert wait_serving(replica)
        assert wait_applied(replica, editor.history[0][0])
        reads = replica.metrics.value("repl.reads_served")
        with MdmClient(server.address, replicas=[replica.address],
                       default_timeout=10.0, replica_cooldown=0.0) as client:
            failed_over = _read_beside_the_editor(editor, client, replica)
        # The replica, not a failover to the primary, answered most.
        served = replica.metrics.value("repl.reads_served") - reads
        assert served > 2 * MEASURES and served > failed_over
        assert wait_applied(replica, editor.history[-1][0])
    finally:
        replica.stop()
