"""Property battery: random writer programs vs a snapshot reference model.

Programs run on the shared runner (``tests/props/program.py``).  The
model here is *temporal*: alongside the live table, a
single-threaded reference tracks the committed row set, and after every
commit the pair ``(snapshot LSN, deep copy of committed state)`` is
recorded.  After **every** operation, every recorded snapshot is
re-read through ``pin_snapshot(lsn)`` and must equal its reference copy
exactly — iteration, ``len``, ``rowids``, ``get`` (including ``None``
for rows that did not exist yet or were already deleted at that LSN).

The model also judges *index* reads.  The table carries two hash
indexes and a trigram index, and the update op rewrites the indexed
columns, so index keys move under the recorded snapshots' feet.  At
every recorded snapshot ``select_eq`` and ``select_range`` must return
the model's rows in the locked path's order (ascending rowid; ascending
key then rowid), and QUEL retrieves -- equality, ``matches``,
``similar_to``, unsorted ``limit N``, ranked top-k -- must equal
``tests/quel/reference.py`` run under the same pin: same rows, same
order.  A ``similar_to`` must also equal itself with every conjunct
re-run (``every_conjunct_rerun``): the index decides the gate only when
the pin has no stale rowid, and the stale ones are re-checked.  Every
pinned read binds the access path its statement names, however large
the stale set; *size* preloads the table, and the ``mvcc_slow`` matrix
rewrites every row of a preloaded one so the reads are judged beside a
stale set over half the table.  The unpinned present's ``select_eq`` / ``select_range``
are held to the in-transaction state the same way.

Reopen: the world is a durable database, and one op kind closes and
reopens its directory.  What the open loads is chainless -- each row
its rowid's one version, from LSN 0 -- and the recorded history goes
with the process, so the model keeps only the reopened present; the
ops after it update and delete chainless rows under the pins it then
records.  :class:`ReplicaState` is the same judgement on a replica:
its seed loads chainless, and a pin taken after the seed must keep
reading the seeded versions while shipped commits update and delete
them.

Pruning honesty: the engine prunes dead versions up to the horizon on
every rewrite, and the horizon is bounded only by *pinned* snapshots —
an unpinned LSN older than the horizon is void, by contract.  So the
battery keeps a *protector* thread (``tests/props/protector.py``) whose
pin holds the horizon at the oldest snapshot the model still replays,
and one op kind deliberately advances that floor: the
model forgets the snapshots it just unprotected, then checks that every
remaining one survived the pruning that the advance unleashed.
"""

import collections
import shutil
import tempfile

import pytest

from repro.core.entity import SURROGATE_COLUMN
from repro.core.schema import Schema
from repro.net.replica import _ReplicaState
from repro.quel.executor import QuelSession
from repro.storage import wal as wal_module
from repro.storage.database import Database
from tests.crash.oracle import assert_indexes_match_rows, assert_one_version_a_row
from tests.props.program import assert_passes, every_conjunct_rerun, generate
from tests.props.protector import Protector
from tests.quel.reference import reference_execute

pytestmark = pytest.mark.props

OPS_PER_PROGRAM = 50
#: Twenty programs, and two more for the index-versus-scan and
#: range-selection properties the battery took over.
SEEDS = range(22)

_FORMS = ["prelude", "fugue", "nocturne", "sonata", "etude"]
_KEYS = ["in c major", "in g minor", "in e flat", "in a minor"]
_OPUS = ["op. 28", "op. 9 no. 2", "bwv 578"]


def _title(n):
    """One of 60 titles sharing words, so text gates match several."""
    return "%s %s %s" % (
        _FORMS[n % 5], _KEYS[(n // 5) % 4], _OPUS[(n // 20) % 3]
    )


def _statements(n):
    """The QUEL reads judged at every snapshot: ``(source, label)``."""
    title = _title(n)
    word = (_FORMS + ["minor", "major", "flat"])[n % 8]
    return [
        ('retrieve (t.n, t.k, t.v) where t.k = "%s"' % title, "index"),
        ('retrieve (t.n, t.k) where matches(t.k, "%s")' % word, "index text"),
        ('retrieve (t.n, t.k) where similar_to(t.k, "%s", 0.5)' % title,
         "index text"),
        ('retrieve (t.n, t.k) where matches(t.k, "%s") limit 3' % word,
         "index text stream"),
        ('retrieve (t.n, s = similarity(t.k, "%s")) where matches(t.k, "%s") '
         'sort by similarity(t.k, "%s") descending limit 3'
         % (title, word, title), "index text topk"),
    ]


class MvccState:
    """The live database plus the single-threaded reference model."""

    def __init__(self, size=0):
        self.directory = tempfile.mkdtemp(prefix="mvcc-props-")
        self.protector = None
        self._open()
        self.txn = None
        self.committed = {}   # rowid -> (k, v) as of the last commit
        self.scratch = {}     # rowid -> (k, v) including uncommitted ops
        self.snapshots = {}   # lsn -> frozen copy of `committed`
        self.ever = set()     # every rowid that ever existed
        self.next_key = 0
        self.checks = 0
        self.labels = collections.Counter()
        for i in range(size):
            self._insert(_title(i), i % 50)
        self.committed = dict(self.scratch)
        self._protect_the_present()

    def _open(self):
        """Open the directory: a fresh one is defined, a reopened one
        binds to what it stores; the equality indexes are built anew."""
        self.schema = Schema("mvcc-props", database=Database(self.directory))
        self.db = self.schema.database
        entity = self.schema.define_entity(
            "T", [("n", "integer"), ("k", "string"), ("v", "integer")]
        )
        self.table = entity.table
        self.table.create_index("k")
        self.table.create_index("v")
        self.db.create_text_index(self.table.name, "k")
        self.quel = QuelSession(self.schema)
        self.quel.execute("range of t is T")

    def _protect_the_present(self):
        self.protector = Protector(self.db.transactions)
        self.protector.set_floor(self.db.transactions.snapshot_lsn())
        self._record()

    def reopen(self):
        self.protector.stop()
        self.db.close()
        self._open()
        assert_indexes_match_rows(self.table)
        assert_one_version_a_row(self.db, self.table, self.committed)
        self.snapshots = {}
        self._protect_the_present()

    def _insert(self, key, value):
        # Raw table rows: the surrogate doubles as the serial ``n``, so
        # surrogate order is rowid order, as for any created instance.
        self.next_key += 1
        row = self.table.insert({
            SURROGATE_COLUMN: self.next_key, "n": self.next_key,
            "k": key, "v": value,
        })
        self.scratch[row.rowid] = (key, value)
        self.ever.add(row.rowid)

    def close(self):
        try:
            if self.protector is not None:
                self.protector.stop()
            self.db.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    def _record(self):
        lsn = self.db.transactions.snapshot_lsn()
        self.snapshots[lsn] = dict(self.committed)

    def finish(self):
        self.commit_if_open()
        self.check()

    def commit_if_open(self):
        if self.txn is not None:
            self.txn.commit()
            self.txn = None
            self.committed = dict(self.scratch)
            self._record()

    def apply(self, op):
        """One raw op; total by construction (invalid choices no-op)."""
        kind = op[0] % 8
        auto = self.txn is None
        rowids = sorted(self.scratch)
        if kind == 0:  # insert a fresh row
            self._insert(_title(op[2]), op[3] % 50)
        elif kind == 1:  # update some live row: both index keys move
            if not rowids:
                return
            rowid = rowids[op[1] % len(rowids)]
            image = (_title(op[2]), op[3] % 50)
            self.table.update(rowid, {"k": image[0], "v": image[1]})
            self.scratch[rowid] = image
        elif kind == 2:  # delete some live row
            if not rowids:
                return
            rowid = rowids[op[1] % len(rowids)]
            self.table.delete(rowid)
            del self.scratch[rowid]
        elif kind == 3:  # transaction toggle: begin, or commit + record
            if self.txn is None:
                self.txn = self.db.begin()
            else:
                self.commit_if_open()
            return
        elif kind == 4:  # abort the open transaction, if any
            if self.txn is not None:
                self.txn.abort()
                self.txn = None
                self.scratch = dict(self.committed)
            return
        elif kind == 7:  # close and reopen the directory
            if self.txn is None:
                self.reopen()
            return
        elif kind == 5:  # advance the protection floor; older snapshots are void
            if self.txn is not None:
                return  # keep floor moves between transactions
            recorded = sorted(self.snapshots)
            floor = recorded[op[1] % len(recorded)]
            if floor <= self.protector.floor:
                return
            self.protector.set_floor(floor)
            self.snapshots = {
                lsn: state for lsn, state in self.snapshots.items()
                if lsn >= floor
            }
            # Reap everything the old floor was keeping alive; every
            # snapshot still in the model must survive this untouched.
            self.table.prune_versions(self.db.transactions.prune_horizon())
            return
        else:  # rewrite every live row in one transaction: at the
            # larger sizes this fills the stale set past half the table
            if self.txn is not None:
                return
            with self.db.begin():
                for rowid in rowids:
                    image = (_title(op[2] + rowid), (op[3] + rowid) % 50)
                    self.table.update(rowid, {"k": image[0], "v": image[1]})
                    self.scratch[rowid] = image
        if auto:  # each auto-committed mutation is its own snapshot
            self.committed = dict(self.scratch)
            self._record()

    def check(self):
        transactions = self.db.transactions
        self.checks += 1
        for lsn in sorted(self.snapshots):
            expected = self.snapshots[lsn]
            transactions.pin_snapshot(lsn)
            try:
                observed = {
                    row.rowid: (row["k"], row["v"]) for row in self.table
                }
                assert observed == expected, (
                    "snapshot %d read %r, reference says %r"
                    % (lsn, observed, expected)
                )
                assert len(self.table) == len(expected)
                assert set(self.table.rowids()) == set(expected)
                for rowid in self.ever:
                    row = self.table.get(rowid)
                    if rowid in expected:
                        assert (row["k"], row["v"]) == expected[rowid]
                    else:
                        assert row is None, (
                            "rowid %d visible at snapshot %d but the "
                            "reference has no such row" % (rowid, lsn)
                        )
                where = "at snapshot %d" % lsn
                self._check_selects((self.checks + lsn) % 12, expected, where)
                self._check_quel((self.checks + lsn) % 12, where)
            finally:
                transactions.unpin_snapshot()
        # The unpinned present always reads the scratch (in-txn) state.
        now = {row.rowid: (row["k"], row["v"]) for row in self.table}
        assert now == self.scratch
        self._check_selects(self.checks % 12, self.scratch, "unpinned")

    def _check_selects(self, probe, expected, where):
        """``select_eq`` and ``select_range`` against the model: rows and
        the locked path's order (ascending rowid; ascending key then
        rowid).  A dozen *probe* values move the literals about."""
        title = _title(probe * 7)
        assert [row.rowid for row in self.table.select_eq("k", title)] == [
            rowid for rowid, (k, _) in sorted(expected.items()) if k == title
        ], "select_eq(k, %r) %s" % (title, where)
        low, high = probe % 50, probe % 50 + 10
        assert [
            row.rowid for row in self.table.select_range("v", low, high)
        ] == sorted(
            (rowid for rowid, (_, v) in expected.items() if low <= v <= high),
            key=lambda rowid: (expected[rowid][1], rowid),
        ), "select_range(v, %d, %d) %s" % (low, high, where)

    def _check_quel(self, probe, where):
        """The QUEL reads of *probe* against the reference under the
        same pin: same rows, same order, and the expected access path.
        A dozen probe values are few enough that both sides parse each
        source once."""
        # Single-threaded, so the stale set can only shrink (a pinned
        # probe settles entries) between this look and the reads.
        over_half = (
            len(self.table.stale_rowids()) > self.table.row_estimate() // 2
        )
        for source, label in _statements(probe * 7):
            out = self.quel.execute(source)
            plan = self.quel.last_plan_object
            if "similar_to" in source:
                stale = plan.snapshot[1] if plan.snapshot else 0
                self.labels["decided" if plan.decided else
                            "verified, %sstale" % ("" if stale else "not ")] += 1
                with every_conjunct_rerun():
                    assert self.quel.execute(source) == out, (
                        "%s %s: the index's decision changed the answer"
                        % (source, where)
                    )
            assert out == reference_execute(
                self.schema, "range of t is T\n" + source
            ), "%s %s (%s)" % (source, where, plan.label)
            seen = plan.label
            self.labels[seen] += 1
            if over_half and plan.snapshot:
                self.labels["over half: " + seen] += 1
            assert seen == label, "%s bound via %s %s" % (source, seen, where)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_match_snapshot_reference(seed):
    labels = assert_passes(MvccState, generate(seed, OPS_PER_PROGRAM)).labels
    # The lens saw both sides: pins the index decided, pins it did not.
    assert labels["decided"] and labels["verified, stale"], labels


@pytest.mark.mvcc_slow
@pytest.mark.parametrize("seed", range(100, 140))
def test_random_programs_extended(seed):
    assert_passes(MvccState, generate(seed, 120))


@pytest.mark.mvcc_slow
@pytest.mark.parametrize("seed", range(200, 204))
def test_random_programs_pin_a_stale_set_over_half_the_table(seed):
    """The size axis: 540 preloaded rows.  Up to op 10 the stale set is
    small; op 10 rewrites every row, the stale set grows past half the
    table, and the pinned reads still bind their indexes (until the
    floor moves past the rewrite, if the program gets that far) -- the
    ``similar_to`` source too, whose essential postings hold more than
    half the rows here."""
    ops = [
        (0,) + op[1:] if index < 10 and op[0] % 8 == 6 else op
        for index, op in enumerate(generate(seed, 24))
    ]
    ops[10] = (6,) + ops[10][1:]
    labels = assert_passes(MvccState, ops, size=540).labels
    for _, label in _statements(0):
        assert labels["over half: " + label], labels


class ReplicaState:
    """A durable primary's table, a replica seeded from it, and the
    committed rows by LSN.  Every primary commit is shipped and applied
    as the replica's feed applies it; the seed's pin is held throughout
    (the replica's prune horizon stays at the seed), and every recorded
    LSN is re-read on the replica after every op."""

    def __init__(self, rows=24):
        self.directory = tempfile.mkdtemp(prefix="mvcc-replica-")
        self.protector = None
        self.primary = Database(self.directory)
        self.source = self.primary.create_table(
            "t", [("k", "string"), ("v", "integer")]
        )
        self.primary.bulk_ingest(
            "t", [{"k": _title(i), "v": i % 50} for i in range(rows)]
        )
        self.committed = {
            row.rowid: (row["k"], row["v"]) for row in self.source
        }
        with self.primary.image() as (_, pieces):
            self.replica = _ReplicaState(b"".join(pieces))
        transactions = self.replica.database.transactions
        transactions._visible_lsn = self.replica.seed_lsn
        self.table = self.replica.database.table("t")
        assert_one_version_a_row(self.replica.database, self.table, self.committed)
        self.table.create_index("k")
        self.table.create_index("v")
        assert_indexes_match_rows(self.table)
        self.protector = Protector(transactions)
        self.protector.set_floor(self.replica.seed_lsn)
        self.snapshots = {self.replica.seed_lsn: dict(self.committed)}
        self.ever = set(self.committed)

    def close(self):
        try:
            if self.protector is not None:
                self.protector.stop()
            self.primary.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    def apply(self, op):
        kind = op[0] % 3
        rowids = sorted(self.committed)
        if kind == 0 or not rowids:
            image = (_title(op[2]), op[3] % 50)
            row = self.source.insert({"k": image[0], "v": image[1]})
            self.committed[row.rowid] = image
            self.ever.add(row.rowid)
        elif kind == 1:
            rowid = rowids[op[1] % len(rowids)]
            image = (_title(op[2]), op[3] % 50)
            self.source.update(rowid, {"k": image[0], "v": image[1]})
            self.committed[rowid] = image
        else:
            rowid = rowids[op[1] % len(rowids)]
            self.source.delete(rowid)
            del self.committed[rowid]
        redo = self.replica.redo
        for lsn, frame in self.primary._log.stream_frames(redo.applied_lsn + 1):
            if redo.apply(*wal_module.decode_frame(frame)):
                self.replica.applied()
                self.replica.database.transactions._visible_lsn = lsn
        self.snapshots[redo.applied_lsn] = dict(self.committed)

    def check(self):
        transactions = self.replica.database.transactions
        for lsn, expected in sorted(self.snapshots.items()):
            transactions.pin_snapshot(lsn)
            try:
                observed = {row.rowid: (row["k"], row["v"]) for row in self.table}
                assert observed == expected, "replica pin %d" % lsn
                for rowid in self.ever:
                    row = self.table.get(rowid)
                    image = None if row is None else (row["k"], row["v"])
                    assert image == expected.get(rowid), (
                        "replica pin %d, rowid %d" % (lsn, rowid)
                    )
                title = _title(lsn * 7)
                assert [r.rowid for r in self.table.select_eq("k", title)] == [
                    rowid for rowid, (k, _) in sorted(expected.items())
                    if k == title
                ]
                low = lsn % 40
                assert [
                    r.rowid for r in self.table.select_range("v", low, low + 10)
                ] == sorted(
                    (rowid for rowid, (_, v) in expected.items()
                     if low <= v <= low + 10),
                    key=lambda rowid: (expected[rowid][1], rowid),
                )
            finally:
                transactions.unpin_snapshot()


@pytest.mark.parametrize("seed", range(6))
def test_a_replica_pin_after_the_seed_reads_it_across_shipped_commits(seed):
    assert_passes(ReplicaState, generate(seed, 30))
