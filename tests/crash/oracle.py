"""The crash-consistency oracle: workload, expected states, verification.

A :class:`CrashWorkload` drives a seeded random mix of entity creates,
attribute updates, and ordering mutations (insert at position, move,
remove, reparent) through explicit transactions, auto-commit updates,
and checkpoints over a durable :class:`Database`.  Run under a crashing
:class:`FaultPlan`, it raises :class:`SimulatedCrash` somewhere in the
schedule; :meth:`CrashWorkload.acceptable_states` then names the only
logical states a correct recovery may produce:

* the state after the last acknowledged commit, and
* additionally, when the crash hit the commit flush itself, the state
  the in-flight transaction was about to commit (atomicity: the torn
  log tail decides whether the COMMIT record survived, never a prefix
  of the transaction's changes).

:func:`verify_recovery` reopens the directory with real files, rebuilds
the schema, asserts the recovered state is one of the acceptable ones,
and runs ``check_invariants`` on every ordering.
"""

import random
import threading

from repro.core.schema import Schema
from repro.storage.database import Database
from repro.storage.faults import SimulatedCrash
from repro.storage.index import HashIndex
from repro.storage.table import Table
from repro.text.index import TrigramIndex


def build_schema(db):
    schema = Schema("crash", database=db)
    schema.define_entity("PIECE", [("title", "string")])
    schema.define_entity("CHORD", [("name", "integer")])
    schema.define_entity("NOTE", [("name", "integer"), ("pitch", "integer")])
    schema.define_ordering("note_in_chord", ["NOTE"], under="CHORD")
    schema.define_ordering("chord_in_piece", ["CHORD"], under="PIECE")
    return schema


def extract_state(db):
    """The full logical state: every table's rows by rowid."""
    return {
        name: {row.rowid: row.as_dict() for row in db.table(name)}
        for name in db.table_names()
    }


def _index_contents(index):
    """All an index holds, the same whatever order built it: ``lookup``,
    ``range`` and the posting walks are functions of exactly this."""
    if isinstance(index, TrigramIndex):
        return index._postings, index._row_grams
    if isinstance(index, HashIndex):
        return index._buckets
    return index._keys, index._postings


def assert_indexes_match_rows(table):
    """Every index registered on *table* -- hash, ordered, ordered-
    composite, text -- holds what one rebuilt from the table's rows
    holds.  The rebuild goes row by row through ``insert``; recovery and
    a replica's seed build through ``insert_many`` and live tables by
    ``insert``/``delete`` upkeep, so neither side checks itself."""
    for (column, kind), index in table.indexes().items():
        rebuilt = TrigramIndex() if kind == "text" else type(index)(column)
        for row in table:
            rebuilt.insert(Table._index_value(column, row), row.rowid)
        assert _index_contents(index) == _index_contents(rebuilt), (
            "%s index on %s.%s diverges from rebuild-from-rows"
            % (type(index).__name__, table.name, column)
        )
        assert len(index) == len(rebuilt)


def table_state(database):
    """Every table's rows by rowid and the size of each text index it
    carries, once every index on it has passed
    :func:`assert_indexes_match_rows` -- what a live database, its
    reopened directory and its replica must agree on."""
    rows, postings = {}, {}
    for name in database.table_names():
        table = database.table(name)
        assert_indexes_match_rows(table)
        rows[name] = {row.rowid: row.as_dict() for row in table}
        for column in table.text_index_columns():
            postings[name, column] = len(table.text_index_for(column))
    return rows, postings


BYSTANDER_TABLE = "bystander"


def prepare(db_dir, bystander=False):
    """DDL-only setup with real files, so crash schedules cover data ops.

    *bystander* adds the table (and its one committed row) that
    :func:`hold_a_transaction_open_across_checkpoints` writes to."""
    db = Database(db_dir)
    build_schema(db)
    if bystander:
        db.create_table(BYSTANDER_TABLE, [("k", "integer")]).insert({"k": 0})
    db.close()


def hold_a_transaction_open_across_checkpoints(workload):
    """For the length of every ``checkpoint()`` of *workload*, a second
    thread holds a transaction open that inserted one row into the
    bystander table and rewrote its committed one; it aborts afterwards.
    The logical state never changes, so the oracle's acceptable states
    stand -- an image that took the open transaction's rows, or a
    checkpoint that waited for it, fails them."""
    db = workload.db
    table = db.table(BYSTANDER_TABLE)
    checkpoint = db.checkpoint

    def checkpoint_beside_an_open_transaction():
        opened, release = threading.Event(), threading.Event()

        def bystander():
            txn = db.begin()
            table.insert({"k": -1})
            table.update(table.select_eq("k", 0)[0].rowid, {"k": -2})
            opened.set()
            release.wait(60.0)
            txn.abort()  # touches no file: works after the "power cut" too

        thread = threading.Thread(target=bystander)
        thread.start()
        assert opened.wait(60.0)
        try:
            checkpoint()
        finally:
            release.set()
            thread.join(60.0)
            assert not thread.is_alive()

    db.checkpoint = checkpoint_beside_an_open_transaction


def describe_state_difference(state, acceptable):
    lines = ["recovered state matches none of %d acceptable states" % len(acceptable)]
    for index, expected in enumerate(acceptable):
        for table in sorted(set(state) | set(expected)):
            got = state.get(table, {})
            want = expected.get(table, {})
            if got != want:
                lines.append(
                    "  vs acceptable[%d] table %r: got %d rows, want %d; "
                    "differing rowids %s"
                    % (
                        index, table, len(got), len(want),
                        sorted(
                            rid for rid in set(got) | set(want)
                            if got.get(rid) != want.get(rid)
                        )[:8],
                    )
                )
    return "\n".join(lines)


def verify_recovery(db_dir, acceptable):
    """Recover *db_dir* with real files and check it against the oracle."""
    db = Database(db_dir)
    try:
        schema = build_schema(db)
        state = extract_state(db)
        assert any(state == expected for expected in acceptable), (
            describe_state_difference(state, acceptable)
        )
        schema.check_invariants()
    finally:
        db.close()


class CrashWorkload:
    """Seeded random workload with exact commit-boundary state tracking."""

    def __init__(self, db_dir, seed, plan, steps=24):
        self.rng = random.Random(seed)
        self.steps = steps
        self.db = Database(db_dir, opener=plan.opener)
        self.schema = build_schema(self.db)
        self.pieces = self.schema.entity_type("PIECE")
        self.chords = self.schema.entity_type("CHORD")
        self.notes = self.schema.entity_type("NOTE")
        self.note_ord = self.schema.ordering("note_in_chord")
        self.chord_ord = self.schema.ordering("chord_in_piece")
        self.piece_handles = self.pieces.instances()
        self.chord_handles = self.chords.instances()
        self.note_handles = self.notes.instances()
        self.serial = 0
        self.last_committed = extract_state(self.db)
        self.commit_in_progress = False
        self.pending_candidate = None

    def acceptable_states(self):
        states = [self.last_committed]
        if self.pending_candidate is not None:
            # Captured just before txn.commit(): the state the commit
            # was publishing.  (It cannot be read back from the tables
            # after the crash — a failed commit rolls them back.)
            states.append(self.pending_candidate)
        elif self.commit_in_progress:
            # Auto-commit: the table mutated before the WAL flush and
            # stays mutated on failure, so the live tables are the
            # candidate; extracting them costs no file I/O.
            states.append(extract_state(self.db))
        return states

    def close(self):
        try:
            self.db.close()
        except SimulatedCrash:
            pass

    # -- single operations, run inside an active transaction ------------------

    def _op_create(self):
        self.serial += 1
        kind = self.rng.choice(["note", "note", "note", "chord", "piece"])
        if kind == "note":
            note = self.notes.create(name=self.serial, pitch=60 + self.serial % 24)
            self.note_handles.append(note)
            if self.chord_handles and self.rng.random() < 0.85:
                chord = self.rng.choice(self.chord_handles)
                count = len(self.note_ord.children(chord))
                self.note_ord.insert(chord, note, self.rng.randint(1, count + 1))
        elif kind == "chord":
            chord = self.chords.create(name=self.serial)
            self.chord_handles.append(chord)
            if self.piece_handles and self.rng.random() < 0.85:
                piece = self.rng.choice(self.piece_handles)
                self.chord_ord.append(piece, chord)
        else:
            piece = self.pieces.create(title="piece-%d" % self.serial)
            self.piece_handles.append(piece)

    def _op_update(self):
        if not self.note_handles:
            return
        note = self.rng.choice(self.note_handles)
        note.set(pitch=30 + self.rng.randint(0, 60))

    def _ordered_notes(self):
        return [h for h in self.note_handles if self.note_ord.contains(h)]

    def _op_move(self):
        members = self._ordered_notes()
        if not members:
            return
        note = self.rng.choice(members)
        parent = self.note_ord.parent_of(note)
        count = len(self.note_ord.children(parent))
        self.note_ord.move(note, self.rng.randint(1, count))

    def _op_remove(self):
        members = self._ordered_notes()
        if not members:
            return
        self.note_ord.remove(self.rng.choice(members))

    def _op_reparent(self):
        members = self._ordered_notes()
        if not members or len(self.chord_handles) < 2:
            return
        note = self.rng.choice(members)
        target = self.rng.choice(self.chord_handles)
        self.note_ord.reparent(note, target)

    # -- the schedule ----------------------------------------------------------

    def run(self):
        ops = [
            self._op_create, self._op_create, self._op_create,
            self._op_update, self._op_move, self._op_remove, self._op_reparent,
        ]
        for step in range(self.steps):
            roll = self.rng.random()
            if roll < 0.10 and step > 3:
                self.db.checkpoint()  # logical state unchanged
            elif roll < 0.22 and self.note_handles:
                # Auto-commit: one row, one WAL group, one syncpoint.
                self.commit_in_progress = True
                self._op_update()
                self.commit_in_progress = False
                self.last_committed = extract_state(self.db)
            else:
                marks = (
                    len(self.piece_handles),
                    len(self.chord_handles),
                    len(self.note_handles),
                )
                txn = self.db.begin()
                for _ in range(self.rng.randint(1, 4)):
                    self.rng.choice(ops)()
                if self.rng.random() < 0.15:
                    txn.abort()  # touches no file; state reverts in memory
                    # Entities created inside the transaction no longer
                    # exist; drop their handles.
                    del self.piece_handles[marks[0]:]
                    del self.chord_handles[marks[1]:]
                    del self.note_handles[marks[2]:]
                else:
                    self.pending_candidate = extract_state(self.db)
                    txn.commit()
                    self.last_committed = self.pending_candidate
                    self.pending_candidate = None
        return self
