"""The crash-consistency oracle: one seeded workload, and every lens a
recovery is looked at through.

:class:`Workload` drives a seeded mix over the paper's orderings (NOTEs
in CHORDs in PIECEs: creates, updates, insert at a position, move,
remove -- and sometimes delete --, reparent) and a raw text-indexed
table ``t``, through explicit transactions (one in seven aborted),
auto-committed single rows, ``bulk_ingest`` batches, text-index drops
and re-creates, and checkpoints, over a durable :class:`Database`; the
PIECE titles carry a second text index that is never dropped.  Every
commit point goes through :meth:`Workload._commit`, so after a crash
:meth:`Workload.acceptable_states` names the only states a correct
recovery may produce: the last acknowledged one and, when the crash
hit a commit point, the one it was publishing -- never a prefix of it.
A state is every table's rows by rowid plus which text indexes exist.
The workload also records its *marks* -- the fsync and write counts
just before each commit, checkpoint, text DDL and ``close()``, and just
after each checkpoint -- for the targeted matrices.

:func:`verify_recovery` reopens a directory with real files and checks
it through every lens: the state is acceptable; every ordering passes
``check_invariants``; every index equals one rebuilt from the rows
(:func:`assert_indexes_match_rows`); every row is one all-visible
version, and a snapshot pinned on the recovered database reads exactly
the recovered state across a post-recovery commit; text queries through
each index are exact after post-verification, and the index keeps up
with a new row.

The drivers: :func:`probe` runs a *run* -- any ``run(directory,
plan)`` -- to the end under a plan that never crashes and counts its
barriers; :func:`crash` runs it again with the machine killed at one of
them; :func:`run_workload` is the workload as such a run.  No test
module carries a driver or a workload of its own.
"""

import collections
import os
import random
import shutil
import tempfile
import threading

from repro.core.schema import Schema
from repro.storage.database import Database
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.index import HashIndex
from repro.storage.table import Table
from repro.text import contains_match
from repro.text.index import TrigramIndex

#: The raw text-indexed table and the table a bystander writes to.
TEXT = "t"
BYSTANDER_TABLE = "bystander"

TITLES = [
    "Prélude in C Major",
    "prelude, op. 28 no. 4",
    "Étude aux chemins de fer",
    "Nocturne Op. 9 No. 2",
    "Goldberg Variations: Aria",
    "Grosse Fuge -- Straße",
    "",
    "ab",
]

QUERIES = ["prelude", "étude", "no. 2", "zzzqqq"]


def define(db, schema=None, filler_rows=0):
    """The workload's schema on *db* -- into *schema* if given, a fresh
    one over *db* otherwise -- attaching to the tables a reopen found.
    The first call on a database also creates ``t`` with its text index,
    the PIECE title index and *filler_rows* rows made wide by an
    unindexed column (the size axis: a table image many times the pager
    cache)."""
    schema = schema or Schema("crash", database=db)
    schema.define_entity("PIECE", [("title", "string")])
    schema.define_entity("CHORD", [("name", "integer")])
    schema.define_entity("NOTE", [("name", "integer"), ("pitch", "integer")])
    schema.define_ordering("note_in_chord", ["NOTE"], under="CHORD")
    schema.define_ordering("chord_in_piece", ["CHORD"], under="PIECE")
    if not db.has_table(TEXT):
        db.create_table(
            TEXT, [("title", "string"), ("v", "integer"), ("pad", "string")]
        )
        db.create_text_index(TEXT, "title")
        db.create_text_index(schema.entity_type("PIECE").table.name, "title")
        db.bulk_ingest(TEXT, [
            {"title": "filler %d" % i, "v": -i, "pad": "%d" % i * 80}
            for i in range(filler_rows)
        ])
    return schema


def prepare(directory, filler_rows=0, bystander=False):
    """The DDL with real files, so crash schedules cover data ops only:
    built once per shape, copied into *directory*.

    *bystander* adds the table (and its one committed row) that
    :func:`hold_a_transaction_open_across_checkpoints` writes to."""
    shape = (filler_rows, bystander)
    if shape not in _TEMPLATES:
        holder = tempfile.TemporaryDirectory(prefix="crash-oracle-")
        db = Database(os.path.join(holder.name, "db"))
        define(db, filler_rows=filler_rows)
        if bystander:
            db.create_table(BYSTANDER_TABLE, [("k", "integer")]).insert({"k": 0})
        db.close()
        _TEMPLATES[shape] = holder
    shutil.copytree(os.path.join(_TEMPLATES[shape].name, "db"), str(directory))


#: The directory each shape :func:`prepare` built is copied from, by
#: shape; removed when the process exits.
_TEMPLATES = {}


def state_of(db):
    """``(every table's rows by rowid, the text indexes)``."""
    rows, text = {}, []
    for name in db.table_names():
        table = db.table(name)
        rows[name] = {row.rowid: row.as_dict() for row in table}
        text += [(name, column) for column in table.text_index_columns()]
    return rows, sorted(text)


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
    """:func:`state_of` *database*, once every index on every table has
    passed :func:`assert_indexes_match_rows` -- what a live database,
    its reopened directory and its replica must agree on."""
    for name in database.table_names():
        assert_indexes_match_rows(database.table(name))
    return state_of(database)


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
    rows, text = state
    for index, (want_rows, want_text) in enumerate(acceptable):
        if text != want_text:
            lines.append("  vs acceptable[%d]: text indexes %r, want %r"
                         % (index, text, want_text))
        for table in sorted(set(rows) | set(want_rows)):
            got, want = rows.get(table, {}), want_rows.get(table, {})
            if got != want:
                lines.append(
                    "  vs acceptable[%d] table %r: got %d rows, want %d; "
                    "differing rowids %s" % (
                        index, table, len(got), len(want), sorted(
                            rid for rid in set(got) | set(want)
                            if got.get(rid) != want.get(rid)
                        )[:8],
                    )
                )
    return "\n".join(lines)


def verify_recovery(directory, acceptable=None):
    """Recover *directory* with real files and look at it through every
    lens (module docstring); returns ``(indexes loaded, indexes
    rebuilt)`` by the open, what the posting stream bought it."""
    db = Database(str(directory))
    try:
        schema = define(db)
        state = state_of(db)
        if acceptable is not None:
            assert state in acceptable, describe_state_difference(state, acceptable)
        schema.check_invariants()
        rows, text = state
        for name in db.table_names():
            table = db.table(name)
            assert_indexes_match_rows(table)
            # Each surviving row is one version, visible to every snapshot.
            assert set(table._chains) == set(rows[name])
            for chain in table._chains.values():
                assert [(v.begin_lsn, v.end_lsn) for v in chain] == [(0, None)]
        for name, column in text:
            index = db.table(name).text_index_for(column)
            for query in QUERIES:
                true = {
                    rowid for rowid, row in rows[name].items()
                    if contains_match(row[column], query)
                }
                candidates = index.candidates_matching(query)
                if candidates is not None:
                    assert candidates >= true
                    assert {
                        rowid for rowid in candidates
                        if contains_match(rows[name][rowid][column], query)
                    } == true
        # A snapshot pinned now reads the recovered state, and still
        # does after a commit; the text index takes the new row.
        lsn = db.transactions.snapshot_lsn()
        table = db.table(TEXT)
        row = table.insert({"title": "post recovery prelude", "v": -1})
        db.transactions.pin_snapshot(lsn)
        try:
            assert state_of(db) == state
        finally:
            db.transactions.unpin_snapshot()
        index = table.text_index_for("title")
        assert index is None or row.rowid in index.candidates_matching(
            "recovery prelude"
        )
        table.delete(row.rowid)
        assert_indexes_match_rows(table)
        value = db.metrics.value
        return (
            value("db.recovery.indexes_loaded"),
            value("db.recovery.indexes_rebuilt"),
        )
    finally:
        db.close()


class Workload:
    """The seeded workload (module docstring) over *db*, its schema
    defined into *schema* if given; *plan*, if given, is what its marks
    count."""

    def __init__(self, db, seed, plan=None, schema=None, steps=30):
        self.rng = random.Random(seed)
        self.db, self.plan, self.steps = db, plan, steps
        self.schema = define(db, schema)
        self.text = db.table(TEXT)
        self.pieces = self.schema.entity_type("PIECE")
        self.chords = self.schema.entity_type("CHORD")
        self.notes = self.schema.entity_type("NOTE")
        self.note_ord = self.schema.ordering("note_in_chord")
        self.chord_ord = self.schema.ordering("chord_in_piece")
        self._reload_handles()
        self.serial = 0
        self.committed = state_of(db)
        self.in_flight = None
        self.marks = collections.defaultdict(list)

    def _reload_handles(self):
        self.piece_handles = self.pieces.instances()
        self.chord_handles = self.chords.instances()
        self.note_handles = self.notes.instances()

    def mark(self, kind):
        """Note the barrier counts just before (or after) a *kind* event."""
        if self.plan is not None:
            self.marks[kind].append((self.plan.sync_count, self.plan.write_count))

    def acceptable_states(self):
        states = [self.committed]
        if self.in_flight is not None:
            states.append(self.in_flight())
        return states

    def close(self):
        self.mark("close")
        try:
            self.db.close()
        except SimulatedCrash:
            pass

    def _commit(self, kind, action, publishes=None):
        """Run *action*, one commit point.  Until it returns, a crash may
        recover the state acknowledged before it or the one it publishes:
        *publishes()*, by default what memory holds when the machine
        dies -- a crash leaves memory as it was."""
        self.mark(kind)
        self.in_flight = publishes or (lambda: state_of(self.db))
        action()
        self.in_flight = None
        self.committed = state_of(self.db)

    # -- single operations -------------------------------------------------------

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
                self.chord_ord.append(self.rng.choice(self.piece_handles), chord)
        else:
            piece = self.pieces.create(title=self.rng.choice(TITLES))
            self.piece_handles.append(piece)

    def _op_update(self):
        if self.note_handles:
            note = self.rng.choice(self.note_handles)
            note.set(pitch=30 + self.rng.randint(0, 60))

    def _ordered_notes(self):
        return [h for h in self.note_handles if self.note_ord.contains(h)]

    def _op_move(self):
        members = self._ordered_notes()
        if members:
            note = self.rng.choice(members)
            count = len(self.note_ord.children(self.note_ord.parent_of(note)))
            self.note_ord.move(note, self.rng.randint(1, count))

    def _op_remove(self):
        members = self._ordered_notes()
        if members:
            note = self.rng.choice(members)
            self.note_ord.remove(note)
            if self.rng.random() < 0.5:
                note.delete()
                self.note_handles.remove(note)

    def _op_reparent(self):
        members = self._ordered_notes()
        if members and len(self.chord_handles) >= 2:
            self.note_ord.reparent(
                self.rng.choice(members), self.rng.choice(self.chord_handles)
            )

    def _op_text(self):
        rowids = sorted(self.text.rowids())
        roll = self.rng.random()
        if not rowids or roll < 0.45:
            self.serial += 1
            self.text.insert({"title": self.rng.choice(TITLES), "v": self.serial})
        elif roll < 0.85:
            self.text.update(
                self.rng.choice(rowids), {"title": self.rng.choice(TITLES)}
            )
        else:
            self.text.delete(self.rng.choice(rowids))

    # -- the schedule --------------------------------------------------------------

    def checkpoint(self):
        """Logical state unchanged: the log is truncated, dead versions
        pruned, the posting stream written."""
        self.mark("checkpoint")
        self.db.checkpoint()
        self.mark("checkpointed")

    def toggle_text_index(self):
        """Self-committing DDL: drop ``t``'s text index, or create it."""
        rows, text = self.committed
        target = (TEXT, "title")
        ddl = (
            self.db.drop_text_index if target in text
            else self.db.create_text_index
        )
        toggled = sorted(set(text) ^ {target})
        self._commit("ddl", lambda: ddl(*target), lambda: (rows, toggled))

    def bulk(self):
        """2-12 rows into ``t``, a self-committing batch of five at a time."""
        rows = []
        for _ in range(self.rng.randint(2, 12)):
            self.serial += 1
            rows.append({"title": self.rng.choice(TITLES), "v": self.serial})
        for start in range(0, len(rows), 5):
            self._commit("bulk", lambda: self.db.bulk_ingest(
                TEXT, rows[start:start + 5]
            ))

    def autocommit(self):
        """One row, one commit point."""
        self._commit("auto", self.rng.choice([self._op_update, self._op_text]))

    def text_commit(self):
        """One row of ``t``, auto-committed: a fresh commit point."""
        self._commit("auto", self._op_text)

    def transaction(self):
        ops = [
            self._op_create, self._op_create, self._op_create, self._op_update,
            self._op_move, self._op_remove, self._op_reparent,
            self._op_text, self._op_text, self._op_text,
        ]
        txn = self.db.begin()
        for _ in range(self.rng.randint(1, 4)):
            self.rng.choice(ops)()
        if self.rng.random() < 0.15:
            txn.abort()  # touches no file; state reverts in memory
            self._reload_handles()
        else:
            self._commit("commit", txn.commit)

    def step(self, early=False):
        roll = self.rng.random()
        if roll < 0.08 and not early:
            self.checkpoint()
        elif roll < 0.14 and not early:
            self.toggle_text_index()
        elif roll < 0.22:
            self.bulk()
        elif roll < 0.42:
            self.autocommit()
        else:
            self.transaction()

    def run(self):
        """*steps* steps, then one text row more: the schedule ends on a
        commit, so the posting stream on disk is stale and ``close()``
        has one to write."""
        for step in range(self.steps):
            self.step(early=step <= 3)
        self.text_commit()
        return self


def probe(directory, run, seed=0):
    """``run(directory, plan)`` to the end under a plan that never
    crashes; returns ``(the plan, what run returned)``: the plan's
    ``sync_count`` and ``write_count`` are the run's barriers."""
    plan = FaultPlan(seed=seed)
    return plan, run(str(directory), plan)


def crash(directory, run, seed, at, unit="sync", torn="random"):
    """``run(directory, plan)`` again, the machine killed at the run's
    *at*-th fsync (*unit* ``"sync"``) or just after its *at*-th write
    (``"write"``) with a seeded *torn* tail of everything un-synced;
    returns ``(the plan, what run returned)``, for the caller to recover
    and judge -- ``plan.crashed`` says whether the run got that far."""
    plan = FaultPlan(
        seed=seed * 1009 + at, torn=torn, **{"crash_at_" + unit: at}
    )
    return plan, run(str(directory), plan)


def run_workload(seed, steps=30, filler_rows=0, beside=None):
    """The workload as a run: prepare, run, close -- dying wherever the
    plan says.  *beside* is a function of the workload that sets a
    second thread up next to it."""
    def run(directory, plan):
        prepare(directory, filler_rows, bystander=beside is not None)
        workload = Workload(
            Database(directory, opener=plan.opener), seed, plan, steps=steps
        )
        if beside is not None:
            beside(workload)
        try:
            workload.run()
        except SimulatedCrash:
            pass
        workload.close()
        return workload
    return run


def crash_and_verify(directory, seed, at, unit="sync", torn="random", **options):
    """The workload killed at *at*, then :func:`verify_recovery`'d
    against its acceptable states; returns what that returns."""
    plan, workload = crash(
        directory, run_workload(seed, **options), seed, at, unit, torn
    )
    assert plan.crashed, "the workload outlived %s %d" % (unit, at)
    return verify_recovery(directory, workload.acceptable_states())


def every_barrier(tmp_path, seed, step=1, torn="random", unit="sync", **options):
    """Crash the workload of *seed* at every *step*-th barrier it
    crosses and verify each recovery; returns how many there were."""
    plan, _ = probe(tmp_path / "probe", run_workload(seed, **options), seed)
    total = plan.sync_count if unit == "sync" else plan.write_count
    for at in range(1, total + 1, step):
        crash_and_verify(
            tmp_path / ("crash-%d" % at), seed, at, unit, torn, **options
        )
    return total
