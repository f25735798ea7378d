"""Property battery: random op sequences vs a brute-force text reference.

Same machinery as ``test_mvcc_props.py``: programs are lists of raw
4-int tuples from ``random.Random(seed)``, each interpreted *modulo the
current state*, so every subsequence is itself a valid program and
greedy delta-debugging is sound.  On failure the battery shrinks to a
minimal reproducer and prints it for ``REPLAY_OPS``.

The reference here is the exact predicate pair from ``repro.text``:
``contains_match`` / ``is_similar`` evaluated brute-force over every
live row.  After **every** operation (inserts, updates, deletes,
transaction begin/commit/abort, index create/drop) and for every query
in a fixed pool -- diacritics, casefold traps, sub-trigram shorts,
punctuation-only, empty -- the battery asserts the two-sided contract
of the trigram index:

* candidate sets are a SUPERSET of the true match set (no false
  negatives, the soundness half the planner relies on), and
* post-verifying candidates with the exact predicate yields EXACTLY
  the true match set (what a QUEL statement ultimately returns).

For ``similar_to`` it also measures *tightness*: the index decides each
row from its posting overlap and stored gram count, so while it is in
sync with the rows -- always, here -- ``candidates_similar`` minus the
true set is empty, from threshold 0.05 to 1.0 and with gram-less rows
in the table.  The *contract* callers rely on stays "verified
superset" (a pinned reader adds stale rowids and re-checks); tightness
is what makes going to the index never cost more row fetches than the
answer has rows.

It also pins the maintenance invariants: every candidate rowid is a
live row, and the index entry count tracks the table row count.
"""

import random

import pytest

from repro.storage.database import Database
from repro.text import contains_match, is_similar

pytestmark = pytest.mark.props

OPS_PER_PROGRAM = 40
SEEDS = range(20)

# Paste the ops list from a failure message here to replay it.
REPLAY_OPS = []

#: Titles the programs draw from: diacritics (composed forms), case
#: traps (ß casefolds to ss), punctuation noise, whitespace-only,
#: empty, and sub-trigram shorts.
TITLES = [
    "Prélude in C Major",
    "prelude, op. 28 no. 4",
    "PRELUDE NO. 7",
    "Étude aux chemins de fer",
    "Grosse Fuge -- Straße",
    "Nocturne Op. 9 No. 2",
    "nocturne in e-flat",
    "Goldberg Variations: Aria",
    "!!!...***",
    "   ",
    "",
    "ab",
    "In C Major: Prélude",
    "Mazurka (Édition Peters)",
]

MATCH_QUERIES = [
    "prelude",
    "Prélude",          # must match both accented and plain forms
    "NO. 7",
    "etude",
    "strasse",          # casefolded ß
    "no",               # sub-trigram: index cannot prune
    "",                 # empty query: matches every row
    "!!!",              # punctuation-only: normalizes to empty
    "zzzqqq",           # matches nothing
]

SIMILAR_QUERIES = [
    ("prelude in c major", 0.4),
    ("nocturne op 9", 0.5),
    ("goldberg aria", 0.3),
    ("xy", 0.5),        # sub-trigram query
    ("etude", 0.9),
    ("prelude no 7", 0.05),         # nearly every gramful row shares a gram
    ("in c major prelude", 0.5),    # word order: same tokens, other grams
    ("prelude no. 7", 1.0),         # only an identical gram set passes
    ("ab", 1.0),        # gram-less query equal to a gram-less row: declined
]


class _State:
    """The live table + trigram index, and the brute-force reference."""

    def __init__(self):
        self.db = Database(None)
        self.db.create_table("t", [("title", "string"), ("n", "integer")])
        self.table = self.db.table("t")
        self.db.create_text_index("t", "title")
        self.txn = None
        self.counter = 0

    def apply(self, op):
        """One raw op; total by construction (invalid choices no-op)."""
        kind = op[0] % 6
        rowids = sorted(self.table.rowids())
        if kind == 0:  # insert (occasionally a null title)
            title = TITLES[op[2] % len(TITLES)]
            if op[3] % 7 == 0:
                title = None
            elif op[3] % 3 == 0:
                title = "%s %d" % (title, op[3] % 10)
            self.counter += 1
            self.table.insert({"title": title, "n": self.counter})
        elif kind == 1:  # update some live row's title
            if not rowids:
                return
            rowid = rowids[op[1] % len(rowids)]
            title = TITLES[op[2] % len(TITLES)]
            self.table.update(rowid, {"title": title})
        elif kind == 2:  # delete some live row
            if not rowids:
                return
            self.table.delete(rowids[op[1] % len(rowids)])
        elif kind == 3:  # transaction toggle
            if self.txn is None:
                self.txn = self.db.begin()
            else:
                self.txn.commit()
                self.txn = None
        elif kind == 4:  # abort: index maintenance must undo cleanly
            if self.txn is not None:
                self.txn.abort()
                self.txn = None
        else:  # index drop/create round trip (refused mid-transaction)
            if self.txn is not None:
                return
            if self.table.text_index_for("title") is None:
                self.db.create_text_index("t", "title")
            else:
                self.db.drop_text_index("t", "title")

    def commit_if_open(self):
        if self.txn is not None:
            self.txn.commit()
            self.txn = None

    def check(self):
        rows = {row.rowid: row["title"] for row in self.table}
        index = self.table.text_index_for("title")
        if index is not None:
            assert len(index) == len(rows), (
                "index holds %d entries for %d rows" % (len(index), len(rows))
            )
        for query in MATCH_QUERIES:
            true = {
                rowid for rowid, title in rows.items()
                if contains_match(title, query)
            }
            if index is None:
                continue
            candidates = index.candidates_matching(query)
            if candidates is None:
                continue  # sub-trigram: the index declines to prune
            assert candidates <= set(rows), (
                "matches(%r) candidates include dead rowids %r"
                % (query, sorted(candidates - set(rows)))
            )
            assert candidates >= true, (
                "matches(%r) missed rows %r" % (query, sorted(true - candidates))
            )
            verified = {
                rowid for rowid in candidates
                if contains_match(rows[rowid], query)
            }
            assert verified == true
        for query, threshold in SIMILAR_QUERIES:
            true = {
                rowid for rowid, title in rows.items()
                if is_similar(title, query, threshold)
            }
            if index is None:
                continue
            candidates = index.candidates_similar(query, threshold)
            if candidates is None:
                continue
            assert candidates <= set(rows), (
                "similar_to(%r, %s) candidates include dead rowids %r"
                % (query, threshold, sorted(candidates - set(rows)))
            )
            assert candidates >= true, (
                "similar_to(%r, %s) missed rows %r"
                % (query, threshold, sorted(true - candidates))
            )
            verified = {
                rowid for rowid in candidates
                if is_similar(rows[rowid], query, threshold)
            }
            assert verified == true
            assert not candidates - true, (
                "similar_to(%r, %s) fetched rows that do not pass: %r"
                % (query, threshold, sorted(candidates - true))
            )


def _generate_ops(seed, count=OPS_PER_PROGRAM):
    rng = random.Random(seed)
    return [tuple(rng.randrange(1 << 16) for _ in range(4)) for _ in range(count)]


def _program_fails(ops):
    """Run a program; returns the failure message, or None if it passes."""
    state = _State()
    for index, op in enumerate(ops):
        try:
            state.apply(op)
            state.check()
        except Exception as error:  # noqa: BLE001 -- any divergence fails
            return "op %d (%r): %s: %s" % (index, op, type(error).__name__, error)
    try:
        state.commit_if_open()
        state.check()
    except Exception as error:  # noqa: BLE001
        return "final commit: %s: %s" % (type(error).__name__, error)
    return None


def _shrink(ops, fails):
    """Greedy delta-debugging, sound because subsequences stay valid."""
    changed = True
    while changed:
        changed = False
        for index in range(len(ops)):
            candidate = ops[:index] + ops[index + 1:]
            if fails(candidate):
                ops = candidate
                changed = True
                break
    return ops


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_match_brute_force_reference(seed):
    ops = _generate_ops(seed)
    error = _program_fails(ops)
    if error is None:
        return
    minimal = _shrink(ops, lambda candidate: _program_fails(candidate) is not None)
    pytest.fail(
        "seed %d diverged from the brute-force text reference.\n%s\n"
        "Replay by setting REPLAY_OPS = %r" % (seed, _program_fails(minimal), minimal)
    )


@pytest.mark.skipif(not REPLAY_OPS, reason="no recorded failure to replay")
def test_replay_minimal_failure():
    error = _program_fails([tuple(op) for op in REPLAY_OPS])
    assert error is None, error


@pytest.mark.text_slow
@pytest.mark.parametrize("seed", range(100, 130))
def test_random_programs_extended(seed):
    ops = _generate_ops(seed, 100)
    error = _program_fails(ops)
    if error is None:
        return
    minimal = _shrink(ops, lambda candidate: _program_fails(candidate) is not None)
    pytest.fail(
        "seed %d diverged from the brute-force text reference.\n%s\n"
        "Replay by setting REPLAY_OPS = %r" % (seed, _program_fails(minimal), minimal)
    )
