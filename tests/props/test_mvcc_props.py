"""Property battery: random writer programs vs a snapshot reference model.

Programs run on the shared runner (``tests/props/program.py``).  The
model here is *temporal*: alongside the live table, a
single-threaded reference tracks the committed row set, and after every
commit the pair ``(snapshot LSN, deep copy of committed state)`` is
recorded.  After **every** operation, every recorded snapshot is
re-read through ``pin_snapshot(lsn)`` and must equal its reference copy
exactly — iteration, ``len``, ``rowids``, ``get`` (including ``None``
for rows that did not exist yet or were already deleted at that LSN).

The model also judges *index* reads.  The table carries a hash, an
ordered and a trigram index, and the update op rewrites the indexed
columns, so index keys move under the recorded snapshots' feet.  At
every recorded snapshot ``select_eq`` and ``select_range`` must return
the model's rows in the locked path's order (ascending rowid; ascending
key then rowid), and QUEL retrieves -- equality, ``matches``,
``similar_to``, unsorted ``limit N``, ranked top-k -- must equal
``tests/quel/reference.py`` run under the same pin: same rows, same
order.  *size* preloads the table; the ``mvcc_slow`` matrix sizes it so
a rewrite of every row pushes the stale set over the planner's
candidate cap and the reads cross the fall-back to a visible-row scan
and come back.  The unpinned present's ``select_eq`` / ``select_range``
are held to the in-transaction state the same way.

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

import pytest

from repro.core.entity import SURROGATE_COLUMN
from repro.core.schema import Schema
from repro.quel.executor import QuelSession
from tests.props.program import assert_passes, generate
from tests.props.protector import Protector
from tests.quel.reference import reference_execute

pytestmark = pytest.mark.props

OPS_PER_PROGRAM = 50
#: Twenty programs, and two more for the index-versus-scan and
#: ordered-index-versus-sorted-list properties the battery took over.
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
    """The QUEL reads judged at every snapshot: ``(source, label when
    the stale set is under the cap)``."""
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
        self.schema = Schema("mvcc-props")
        self.db = self.schema.database
        entity = self.schema.define_entity(
            "T", [("n", "integer"), ("k", "string"), ("v", "integer")]
        )
        self.table = entity.table
        self.table.create_index("k")
        self.table.create_index("v", ordered=True)
        self.db.create_text_index(self.table.name, "k")
        self.quel = QuelSession(self.schema)
        self.quel.execute("range of t is T")
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
        self.protector = Protector(self.db.transactions)
        self.protector.set_floor(self.db.transactions.snapshot_lsn())
        self._record()

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
        self.protector.stop()

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
        kind = op[0] % 7
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
            # larger sizes this is what swamps the stale set
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
        same pin: same rows, same order, and the expected access path
        while the stale set is under the cap.  A dozen probe values are
        few enough that both sides parse each source once."""
        # Single-threaded, so the stale set can only shrink (a pinned
        # probe settles entries) between this look and the reads.
        swamped = (
            len(self.table.stale_rowids()) > self.table.candidate_cap()
        )
        for source, label in _statements(probe * 7):
            out = self.quel.execute(source)
            assert out == reference_execute(
                self.schema, "range of t is T\n" + source
            ), "%s %s (%s)" % (source, where, self.quel.last_plan_object.label)
            seen = self.quel.last_plan_object.label
            self.labels[seen] += 1
            if not swamped:
                assert seen == label, "%s bound via %s %s" % (source, seen, where)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_match_snapshot_reference(seed):
    assert_passes(MvccState, generate(seed, OPS_PER_PROGRAM))


@pytest.mark.mvcc_slow
@pytest.mark.parametrize("seed", range(100, 140))
def test_random_programs_extended(seed):
    assert_passes(MvccState, generate(seed, 120))


@pytest.mark.mvcc_slow
@pytest.mark.parametrize("seed", range(200, 204))
def test_random_programs_cross_the_candidate_cap(seed):
    """The size axis: 540 preloaded rows against a candidate cap of 512.
    Up to op 10 the stale set is small and the pinned reads bind their
    indexes -- the ``similar_to`` source too, whose essential postings
    hold more than 512 entries here (a ``matches`` gate that long would
    scan; the count walk fetches only the rows that pass); op 10
    rewrites every row, the stale set swamps the cap and
    the same reads fall back to the visible-row scan (until the floor
    moves past the rewrite, if the program gets that far)."""
    ops = [
        (0,) + op[1:] if index < 10 and op[0] % 7 == 6 else op
        for index, op in enumerate(generate(seed, 24))
    ]
    ops[10] = (6,) + ops[10][1:]
    labels = assert_passes(MvccState, ops, size=540).labels
    assert labels["snapshot scan"] and labels["index"], labels
