"""``score_edit``: one editor on a durable score, the paper's core.

A ``MusicDataManager`` with the full CMN schema holds one imported score
(``make_scale_score``: measures x 4 voices x 8 notes).  One session edits
three orderings and asks the section 5.6 order queries, each op one
``MdmSession.run`` transaction.  Every edited ordering has a list model;
every query has an expected answer worked out from those lists.
"""

import time

from repro.fixtures.examples import make_scale_score
from repro.mdm.manager import MusicDataManager

from harness import Driver, Op, Workload

VOICES = 4
NOTES_PER_MEASURE = 8

UNDER = (
    "retrieve (s.offset_beats) where s under m in sync_in_measure "
    "and m.number = %d sort by s.offset_beats"
)
PATH = (
    "retrieve (n.degree) where n under c in note_in_chord "
    "and c under s in chord_in_sync and s under m in sync_in_measure "
    "and m.number = %d"
)
BEFORE = (
    "retrieve (s.offset_beats, s2.offset_beats) "
    "where s before s2 in sync_in_measure "
    "and s2 under m in sync_in_measure and m.number = %d"
)

#: Bytes of user data one edit carries: an ordering edge is three
#: integers, a new note three attributes more.
EDGE_BYTES = 24
NOTE_BYTES = 10


class ScoreEdit(Workload):
    name = "score_edit"
    mix = {"editor": {
        "insert_child": 3, "move_child": 2, "reparent": 1, "remove_child": 1,
        "under": 5, "path": 4, "before": 4,
    }}
    write_classes = ("insert_child", "move_child", "reparent", "remove_child")
    query_classes = ("under", "path", "before")
    class_metrics = {
        "write_p50_ms": list(write_classes),
        "order_query_p50_ms": list(query_classes),
    }
    #: The edited orderings are compared with their list models this often.
    CHECK_EVERY = 200

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.measures = sizes["measures"]
        self.mdm = None
        self.sabotaged = False

    # -- set-up (timed by the caller) ---------------------------------------

    def build(self):
        self.mdm = MusicDataManager(self.next_path())
        self.session = self.mdm.connect("editor", default_timeout=None)
        started = time.perf_counter()
        self.session.run(lambda m: make_scale_score(
            measures=self.measures, voices=VOICES,
            notes_per_measure=NOTES_PER_MEASURE, cmn=m.cmn,
        ))
        elapsed = time.perf_counter() - started
        self.facts = {
            "build_instances_per_s": self.mdm.schema.instance_count() / elapsed,
        }

    def discard(self):
        if self.mdm is not None:
            self.mdm.close()
            self.mdm = None
        self.session = None
        super().discard()

    # -- after set-up, untimed ----------------------------------------------

    def prepare(self):
        cmn = self.mdm.cmn
        for declaration in (
            "range of n is NOTE", "range of c is CHORD", "range of s is SYNC",
            "range of s2 is SYNC", "range of m is MEASURE",
        ):
            self.mdm.session.execute(declaration)
        self.instance = {}  # surrogate -> EntityInstance of a model member

        def listing(ordering, parents):
            model = {}
            for parent in parents:
                self.instance[parent.surrogate] = parent
                children = ordering.children(parent)
                for child in children:
                    self.instance[child.surrogate] = child
                model[parent.surrogate] = [c.surrogate for c in children]
            return model

        self.notes_of_chord = listing(cmn.note_in_chord, cmn.CHORD.instances())
        self.members_of_voice = listing(
            cmn.chord_rest_in_voice, cmn.VOICE.instances()
        )
        self.chords_of_sync = listing(cmn.chord_in_sync, cmn.SYNC.instances())
        self.sync_of_chord = {
            chord: sync
            for sync, chords in self.chords_of_sync.items() for chord in chords
        }
        self.chords = sorted(self.sync_of_chord)
        self.voices = sorted(self.members_of_voice)
        self.syncs = sorted(self.chords_of_sync)
        # sync_in_measure is never edited, so measure -> syncs is fixed.
        self.syncs_of_measure = {}
        self.offsets_of_measure = {}
        for measure in cmn.MEASURE.instances():
            syncs = cmn.sync_in_measure.children(measure)
            self.syncs_of_measure[measure["number"]] = [
                s.surrogate for s in syncs
            ]
            self.offsets_of_measure[measure["number"]] = [
                s["offset_beats"] for s in syncs
            ]
        self.inserted = []  # notes this run inserted and may remove again
        self.edits = 0
        self.touched = {}  # model name -> the parent the last edit touched
        self.drivers = [
            Driver("editor", self.mix["editor"], self.make_op, self.seed * 100)
        ]
        self.disk_bytes_at_start = self.disk_bytes()

    def sabotage(self):
        self.sabotaged = True

    def user_bytes_loaded(self):
        """The score as plain values: eight bytes a number or reference,
        a string's UTF-8 length, sixteen a rational."""
        from fractions import Fraction

        total = 0
        database = self.mdm.database
        for name in database.table_names():
            table = database.table(name)
            columns = table.schema.column_names()
            for row in table:
                for column in columns:
                    value = row[column]
                    if isinstance(value, str):
                        total += len(value.encode("utf-8"))
                    elif isinstance(value, Fraction):
                        total += 16
                    elif value is not None:
                        total += 8
        return total

    def explain_statements(self):
        return {"under": UNDER % 1, "path": PATH % 1, "before": BEFORE % 1}

    # -- ops ------------------------------------------------------------------

    def make_op(self, cls, rng):
        return getattr(self, "_" + cls)(rng)

    def _edit(self, change, apply, user_bytes):
        """One edit transaction; *apply* advances the list model."""
        def check(_result):
            apply()
            self.user_bytes_written += user_bytes
            self.edits += 1
            if self.edits % self.CHECK_EVERY == 0:
                return self._models_agree()
            return True

        return Op(lambda: self.session.run(change), check)

    def _insert_child(self, rng):
        chord = rng.choice(self.chords)
        siblings = self.notes_of_chord[chord]
        position = rng.randint(1, len(siblings) + 1)
        degree = rng.randint(0, 12)
        made = []

        def change(m):
            del made[:]  # a retried transaction creates the note again
            note = m.cmn.NOTE.create(
                degree=degree, accidental="", tied_to_next=False
            )
            m.cmn.note_in_chord.insert(self.instance[chord], note, position)
            made.append(note)

        def apply():
            note = made[0]
            self.instance[note.surrogate] = note
            siblings.insert(position - 1, note.surrogate)
            self.inserted.append((note.surrogate, chord))
            self.touched["notes_of_chord"] = chord

        return self._edit(change, apply, EDGE_BYTES + NOTE_BYTES)

    def _move_child(self, rng):
        voice = rng.choice(self.voices)
        siblings = self.members_of_voice[voice]
        child = siblings[rng.randrange(len(siblings))]
        position = rng.randint(1, len(siblings))

        def change(m):
            m.cmn.chord_rest_in_voice.move(self.instance[child], position)

        def apply():
            siblings.remove(child)
            siblings.insert(position - 1, child)
            self.touched["members_of_voice"] = voice

        return self._edit(change, apply, EDGE_BYTES)

    def _reparent(self, rng):
        chord = rng.choice(self.chords)
        source = self.sync_of_chord[chord]
        target = rng.choice(self.syncs)
        while target == source:
            target = rng.choice(self.syncs)
        position = rng.randint(1, len(self.chords_of_sync[target]) + 1)

        def change(m):
            m.cmn.chord_in_sync.reparent(
                self.instance[chord], self.instance[target], position
            )

        def apply():
            self.chords_of_sync[source].remove(chord)
            self.chords_of_sync[target].insert(position - 1, chord)
            self.sync_of_chord[chord] = target
            self.touched["chords_of_sync"] = target

        return self._edit(change, apply, EDGE_BYTES)

    def _remove_child(self, rng):
        if not self.inserted:  # the stream opened with a remove
            return self._insert_child(rng)
        slot = rng.randrange(len(self.inserted))
        note, chord = self.inserted[slot]

        def change(m):
            instance = self.instance[note]
            m.cmn.note_in_chord.remove(instance)
            instance.delete()

        def apply():
            self.notes_of_chord[chord].remove(note)
            self.inserted[slot] = self.inserted[-1]
            self.inserted.pop()
            del self.instance[note]
            self.touched["notes_of_chord"] = chord

        return self._edit(change, apply, EDGE_BYTES)

    def _query(self, statement, check):
        return Op(
            lambda: self.session.run(lambda m: m.retrieve(statement)), check
        )

    def _under(self, rng):
        number = rng.randint(1, self.measures)
        expected = self.offsets_of_measure[number]
        if self.sabotaged:
            expected = expected[::-1]

        def check(rows):
            return [r["s.offset_beats"] for r in rows] == expected

        return self._query(UNDER % number, check)

    def _path(self, rng):
        number = rng.randint(1, self.measures)
        expected = sum(
            len(self.notes_of_chord[chord])
            for sync in self.syncs_of_measure[number]
            for chord in self.chords_of_sync[sync]
        )

        def check(rows):
            return len(rows) == expected

        return self._query(PATH % number, check)

    def _before(self, rng):
        number = rng.randint(1, self.measures)
        offsets = self.offsets_of_measure[number]
        expected = sorted(
            (offsets[i], offsets[j])
            for j in range(len(offsets)) for i in range(j)
        )

        def check(rows):
            return sorted(
                (r["s.offset_beats"], r["s2.offset_beats"]) for r in rows
            ) == expected

        return self._query(BEFORE % number, check)

    # -- model against database ------------------------------------------------

    def _orderings(self):
        cmn = self.mdm.cmn
        return {
            "notes_of_chord": (cmn.note_in_chord, self.notes_of_chord),
            "members_of_voice": (cmn.chord_rest_in_voice,
                                 self.members_of_voice),
            "chords_of_sync": (cmn.chord_in_sync, self.chords_of_sync),
        }

    def _agrees(self, ordering, model, parent):
        stored = [c.surrogate for c in ordering.children(self.instance[parent])]
        return stored == model[parent]

    def _models_agree(self):
        """The parents the latest edits touched, against ``children``."""
        orderings = self._orderings()
        return all(
            self._agrees(*orderings[name], parent)
            for name, parent in self.touched.items()
        )

    def finish(self):
        editor = self.drivers[0]
        for name, (ordering, model) in self._orderings().items():
            for parent in model:
                if not self._agrees(ordering, model, parent):
                    editor.fail("%s of #%d differs from its list model"
                                % (name, parent))
        try:
            self.mdm.check_invariants()
        except Exception as exc:
            editor.fail("check_invariants: %s" % exc)
