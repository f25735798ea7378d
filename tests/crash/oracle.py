"""The crash-consistency oracle: one seeded workload, and every lens a
recovery is looked at through.

:class:`Workload` drives a seeded mix over the paper's orderings (NOTEs
in CHORDs in PIECEs: creates, updates, insert at a position, move,
remove -- and sometimes delete --, reparent) and a raw text-indexed
table ``t``, through explicit transactions (one in seven aborted),
auto-committed single rows, ``bulk_ingest`` batches, text-index drops
and re-creates, schema changes (an entity type, an ordering -- recursive
or inhomogeneous at times --, a relationship, an attribute added to a
type that holds rows) and checkpoints, over a durable
:class:`Database`; the PIECE titles carry a second text index that is
never dropped.  Every commit point goes through
:meth:`Workload._commit`, so after a crash
:meth:`Workload.acceptable_states` names the only states a correct
recovery may produce: the last acknowledged one and, when the crash
hit a commit point, the one it was publishing -- never a prefix of it.
A state is every table's rows by rowid, which text indexes exist and
the schema's definitions.
The workload also records its *marks* -- the fsync and write counts
just before each commit, checkpoint, text DDL and ``close()``, and just
after each checkpoint -- for the targeted matrices.

:func:`verify_recovery` reopens a directory with real files and checks
it through every lens: the state, with the schema rebuilt from the
recovered meta rows, is acceptable; every ordering passes
``check_invariants``; every index equals one rebuilt from the rows
(:func:`assert_indexes_match_rows`); every row is one all-visible
version, with no chain (:func:`assert_one_version_a_row`), and a
snapshot pinned on the recovered database reads exactly the recovered
state across a post-recovery commit; text queries through
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
from repro.core.catalog import META_NAMES
from repro.obs.metrics import MetricsRegistry
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

#: The base entity types; the ``define`` step adds to them.
BASE_TYPES = ["PIECE", "CHORD", "NOTE"]


def define(db, schema=None, filler_rows=0):
    """The workload's schema on *db* -- into *schema* if given, a fresh
    one over *db* otherwise -- attaching to the tables a reopen found.
    The first call on a database also creates ``t`` with its text index,
    the PIECE title index and *filler_rows* rows made wide by an
    unindexed column (the size axis: a checkpoint image of megabytes)."""
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


def state_of(db, definitions):
    """``(every table's rows by rowid, the text indexes, the schema's
    *definitions*)``.  A row is read by its table's columns: one
    written before its table was widened has no value for the new
    column wherever it was last decoded from, and reads it as null."""
    rows, text = {}, []
    for name in db.table_names():
        table = db.table(name)
        columns = table.schema.column_names()
        rows[name] = {
            row.rowid: {column: row.get(column) for column in columns}
            for row in table
        }
        text += [(name, column) for column in table.text_index_columns()]
    return rows, sorted(text), sorted(definitions)


def _index_contents(index):
    """All an index holds, the same whatever order built it: ``lookup``
    and the posting walks are functions of exactly this."""
    if isinstance(index, TrigramIndex):
        return index._postings, index._row_grams
    if isinstance(index, HashIndex):
        return index._buckets
    return index._groups, index._nulls


def assert_indexes_match_rows(table):
    """Every index registered on *table* -- hash, ordered composite,
    text -- holds what one rebuilt from the table's rows
    holds.  The rebuild goes row by row through ``insert``; recovery and
    a replica's seed build through ``insert_many`` and live tables by
    ``insert``/``delete`` upkeep, so neither side checks itself."""
    for (column, kind), index in table.indexes().items():
        rebuilt = (
            TrigramIndex(MetricsRegistry()) if kind == "text"
            else type(index)(column)
        )
        for row in table:
            rebuilt.insert(Table._index_value(column, row), row.rowid)
        assert _index_contents(index) == _index_contents(rebuilt), (
            "%s index on %s.%s diverges from rebuild-from-rows"
            % (type(index).__name__, table.name, column)
        )
        assert len(index) == len(rebuilt)


def assert_one_version_a_row(database, table, rows):
    """What a load leaves *table* holding: *rows* (rowid -> values),
    each its rowid's one version, from LSN 0 -- no chain, a pin below
    every commit reads every row -- and no hash bucket of one rowid
    that is not that bare rowid."""
    assert not table._chains, "%s holds version chains" % table.name
    database.transactions.pin_snapshot(0)
    try:
        assert [row.rowid for row in table] == sorted(rows)
        assert table.get_many(sorted(rows)) == list(table)
    finally:
        database.transactions.unpin_snapshot()
    for index in table.indexes().values():
        if isinstance(index, HashIndex):
            assert not [
                bucket for bucket in index._buckets.values()
                if type(bucket) is not int and len(bucket) < 2
            ], "a hash index on %s holds a list of one rowid" % table.name


def table_state(database):
    """:func:`state_of` *database* with the schema its meta rows say,
    once every index on every table has passed
    :func:`assert_indexes_match_rows` -- what a live database, its
    reopened directory and its replica must agree on.  It only reads: a
    database holding no meta rows has no schema, and none is made."""
    for name in database.table_names():
        assert_indexes_match_rows(database.table(name))
    definitions = (
        Schema("state", database=database).definitions()
        if Schema.stored_in(database) else []
    )
    return state_of(database, definitions)


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
    rows, text, definitions = state
    for index, (want_rows, want_text, want_definitions) in enumerate(acceptable):
        if text != want_text:
            lines.append("  vs acceptable[%d]: text indexes %r, want %r"
                         % (index, text, want_text))
        if definitions != want_definitions:
            lines.append("  vs acceptable[%d]: definitions %r, want %r" % (
                index, sorted(set(definitions) ^ set(want_definitions)),
                want_definitions,
            ))
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
        schema = Schema("crash", database=db)
        state = state_of(db, schema.definitions())
        if acceptable is not None:
            assert state in acceptable, describe_state_difference(state, acceptable)
        define(db, schema)  # binds: the base types are stored
        schema.check_invariants()
        rows, text, _ = state
        for name in db.table_names():
            table = db.table(name)
            assert_indexes_match_rows(table)
            assert_one_version_a_row(db, table, rows[name])
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
            assert state_of(db, schema.definitions()) == state
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
        self.committed = self.state()
        self.in_flight = None
        self.marks = collections.defaultdict(list)

    def _reload_handles(self):
        self.piece_handles = self.pieces.instances()
        self.chord_handles = self.chords.instances()
        self.note_handles = self.notes.instances()

    def state(self, definitions=None):
        """:func:`state_of` the database, with the schema's definitions
        or the *definitions* given."""
        if definitions is None:
            definitions = self.schema.definitions()
        return state_of(self.db, definitions)

    def _extra_types(self):
        """The entity types :meth:`define` added, by name."""
        return sorted(
            set(self.schema.entity_types) - META_NAMES - set(BASE_TYPES)
        )

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
        self.in_flight = publishes or self.state
        action()
        self.in_flight = None
        self.committed = self.state()

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

    def _op_extra(self):
        """An instance of a type :meth:`define` added, if there is one."""
        extras = self._extra_types()
        if extras:
            entity_type = self.schema.entity_type(self.rng.choice(extras))
            self.serial += 1
            entity_type.create(**{
                a.name: self.serial if a.domain_name() == "integer"
                else self.rng.choice(TITLES)
                for a in entity_type.attributes
            })

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
        rows, text, definitions = self.committed
        target = (TEXT, "title")
        ddl = (
            self.db.drop_text_index if target in text
            else self.db.create_text_index
        )
        toggled = sorted(set(text) ^ {target})
        self._commit(
            "ddl", lambda: ddl(*target), lambda: (rows, toggled, definitions)
        )

    def define(self):
        """One schema change, one commit: a new entity type; an ordering
        of one or two child types (an extra type's, or NOTEs) under an
        extra type, recursive when the parent is a child; a relationship
        with a value attribute or a many-side at times; or an attribute
        added to an extra type, which may hold rows by then."""
        self.serial += 1
        extras, roll, rng = self._extra_types(), self.rng.random(), self.rng
        definitions = self.schema.definitions()
        if not extras or roll < 0.35:
            name = "EXTRA%d" % self.serial
            definition = ("entity", name, [
                ("a%d" % i, rng.choice(["integer", "string"]))
                for i in range(rng.randint(1, 2))
            ])
            action = lambda: self.schema.define(definition)
        elif roll < 0.55:
            children = rng.sample(extras + ["NOTE"], min(2, len(extras) + 1))
            definition = (
                "ordering", "extra_o%d" % self.serial,
                children[:rng.randint(1, 2)], rng.choice(extras),
            )
            action = lambda: self.schema.define(definition)
        elif roll < 0.75:
            definition = (
                "relationship", "EXTRA_R%d" % self.serial,
                [("left", rng.choice(extras)),
                 ("right", rng.choice(extras + BASE_TYPES))],
                [("weight", "integer")] if rng.random() < 0.5 else [],
                "left" if rng.random() < 0.3 else None,
            )
            action = lambda: self.schema.define(definition)
        else:
            target = self.schema.entity_type(rng.choice(extras))
            attribute = ("b%d" % self.serial, rng.choice(["integer", "string"]))
            definition = target.definition()
            definition = definition[:2] + (definition[2] + [attribute],)
            definitions.remove(target.definition())
            action = lambda: target.add_attribute(attribute)
        self._commit(
            "ddl", action, lambda: self.state(definitions + [definition])
        )

    def bulk(self):
        """2-12 rows into ``t``, a batch of five at a time, a commit each."""
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
            self._op_text, self._op_text, self._op_text, self._op_extra,
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
        elif roll < 0.13 and not early:
            self.toggle_text_index()
        elif roll < 0.19 and not early:
            self.define()
        elif roll < 0.25:
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
