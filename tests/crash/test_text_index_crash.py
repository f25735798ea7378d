"""Crash battery for the trigram text index: maintenance dies well.

Same probe-then-kill scheme as ``test_mvcc_crash.py``: a probe run
counts the workload's durability barriers, then one schedule per
barrier replays the workload and crashes the "machine" there with a
seeded torn tail.  Beyond the classic oracle (``acknowledged ⊆
recovered ⊆ attempted``), every recovery is checked through the text
lens:

* the recovered trigram index must agree, posting-for-posting, with an
  oracle index rebuilt row by row (``insert``) off the recovered rows
  -- recovery registers the index EMPTY, installs image and redo rows
  with its upkeep deferred and fills it with one ``insert_many``, so
  this cross-checks the bulk build against the incremental path;
* indexed queries on the recovered database return exactly what the
  brute-force predicate says;
* a targeted matrix crashes around ``create_text_index`` /
  ``drop_text_index`` (self-committing WAL DDL records): whichever
  side of the barrier the crash lands on, a surviving index must still
  match the rebuild oracle.
"""

import os
import random

import pytest

from repro.storage.database import Database
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.pager import PAGE_SIZE
from repro.text import contains_match

from tests.crash.oracle import assert_indexes_match_rows

SEEDS = list(range(6))
SLOW_SEEDS = list(range(6, 18))

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


def prepare(db_dir, filler_rows=0):
    """Setup with real files, so schedules cover data ops: the DDL,
    plus *filler_rows* rows made wide by an unindexed column, for the
    size axis (a table image many times the pager cache)."""
    db = Database(str(db_dir))
    db.create_table(
        "t", [("title", "string"), ("v", "integer"), ("pad", "string")]
    )
    db.create_text_index("t", "title")
    db.bulk_ingest("t", [
        {"title": "filler %d" % i, "v": -i, "pad": "%d" % i * 80}
        for i in range(filler_rows)
    ])
    db.close()


class TextCrashWorkload:
    """Seeded indexed insert/update/delete mix with oracle tracking.

    *ddl_toggles* additionally drops and re-creates the text index
    mid-run, recording the sync count just before each DDL so targeted
    matrices can crash inside the self-committing DDL barrier.
    """

    def __init__(self, db_dir, seed, plan, steps=30, ddl_toggles=False):
        self.rng = random.Random(seed)
        self.plan = plan
        self.steps = steps
        self.ddl_toggles = ddl_toggles
        self.db = Database(str(db_dir), opener=plan.opener)
        self.table = self.db.table("t")
        self.next_v = 0
        self.last_committed = self._state()
        self.commit_in_progress = False
        self.pending_candidate = None
        self.ddl_barriers = []

    def _state(self):
        return {
            row.rowid: (row["title"], row["v"], row["pad"])
            for row in self.table
        }

    def acceptable_states(self):
        states = [self.last_committed]
        if self.pending_candidate is not None:
            states.append(self.pending_candidate)
        elif self.commit_in_progress:
            states.append(self._state())
        return states

    def close(self):
        try:
            self.db.close()
        except SimulatedCrash:
            pass

    def _one_op(self):
        rowids = sorted(self.table.rowids())
        roll = self.rng.random()
        if not rowids or roll < 0.45:
            self.next_v += 1
            self.table.insert(
                {"title": self.rng.choice(TITLES), "v": self.next_v}
            )
        elif roll < 0.85:
            self.table.update(
                self.rng.choice(rowids), {"title": self.rng.choice(TITLES)}
            )
        else:
            self.table.delete(self.rng.choice(rowids))

    def run(self):
        for step in range(self.steps):
            roll = self.rng.random()
            if self.ddl_toggles and roll < 0.12 and step > 3:
                # Self-committing DDL: logical row state unchanged, so
                # the oracle states carry over either side of the crash.
                self.ddl_barriers.append(self.plan.sync_count)
                if self.table.text_index_for("title") is None:
                    self.db.create_text_index("t", "title")
                else:
                    self.db.drop_text_index("t", "title")
            elif roll < 0.2 and step > 3:
                self.db.checkpoint()
            elif roll < 0.4:
                self.commit_in_progress = True
                self._one_op()
                self.commit_in_progress = False
                self.last_committed = self._state()
            else:
                txn = self.db.begin()
                for _ in range(self.rng.randint(1, 4)):
                    self._one_op()
                if self.rng.random() < 0.15:
                    txn.abort()
                else:
                    self.pending_candidate = self._state()
                    txn.commit()
                    self.last_committed = self.pending_candidate
                    self.pending_candidate = None
        return self


def verify_recovery(db_dir, acceptable, index_required=True):
    """Recover with real files; classic oracle plus the text checks."""
    db = Database(str(db_dir))
    try:
        table = db.table("t")
        state = {
            row.rowid: (row["title"], row["v"], row["pad"]) for row in table
        }
        assert any(state == expected for expected in acceptable), (
            "recovered %d rows match none of %d acceptable states; differing "
            "rowids vs the last: %s" % (
                len(state), len(acceptable), sorted(
                    rowid for rowid in set(state) | set(acceptable[-1])
                    if state.get(rowid) != acceptable[-1].get(rowid)
                )[:8],
            )
        )
        index = table.text_index_for("title")
        if index_required:
            assert index is not None, "text index lost by recovery"
        if index is None:
            return
        # The index recovery built in bulk must agree posting-for-
        # posting with a row-by-row rebuild off the recovered rows.
        assert_indexes_match_rows(table)
        # And queries through it are exact after post-verification.
        for query in QUERIES:
            true = {
                rowid for rowid, (title, _, _) in state.items()
                if contains_match(title, query)
            }
            candidates = index.candidates_matching(query)
            if candidates is None:
                continue
            assert candidates >= true
            verified = {
                rowid for rowid in candidates
                if contains_match(state[rowid][0], query)
            }
            assert verified == true
        # Post-recovery maintenance keeps working.
        row = table.insert({"title": "post recovery prelude", "v": -1})
        assert row.rowid in index.candidates_matching("recovery prelude")
    finally:
        db.close()


def probe(tmp_path, seed, name="probe", ddl_toggles=False, filler_rows=0,
          steps=30):
    """Run the workload to completion; returns it (with barrier lists)."""
    probe_dir = tmp_path / ("%s-%d" % (name, seed))
    prepare(probe_dir, filler_rows)
    plan = FaultPlan(seed=seed)
    workload = TextCrashWorkload(
        probe_dir, seed, plan, steps=steps, ddl_toggles=ddl_toggles
    )
    workload.run()
    # The barriers of the run; close() adds the posting stream's, which
    # tests/crash/test_posting_stream.py crashes at.
    workload.total_syncs = plan.sync_count
    workload.close()
    return workload


def crash_once(tmp_path, seed, sync_index, torn="random", ddl_toggles=False,
               filler_rows=0, steps=30):
    crash_dir = tmp_path / ("crash-%d-%d" % (seed, sync_index))
    prepare(crash_dir, filler_rows)
    plan = FaultPlan(
        seed=seed * 1009 + sync_index, crash_at_sync=sync_index, torn=torn
    )
    workload = TextCrashWorkload(
        crash_dir, seed, plan, steps=steps, ddl_toggles=ddl_toggles
    )
    with pytest.raises(SimulatedCrash):
        workload.run()
    acceptable = workload.acceptable_states()
    workload.close()
    # With DDL toggles the crash may land on either side of a drop, so
    # index existence is schedule-dependent; its *contents* never are.
    verify_recovery(crash_dir, acceptable, index_required=not ddl_toggles)


@pytest.mark.crash
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_at_every_syncpoint(tmp_path, seed):
    total = probe(tmp_path, seed).total_syncs
    assert total >= 15, "workload too small to be a meaningful matrix"
    for sync_index in range(1, total + 1):
        crash_once(tmp_path, seed, sync_index)


@pytest.mark.crash
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_crash_around_text_ddl_barrier(tmp_path, seed):
    """Aim crashes at the self-committing create/drop WAL records."""
    reference = probe(tmp_path, seed, name="dprobe", ddl_toggles=True)
    assert reference.ddl_barriers, "schedule produced no text DDL"
    for barrier in reference.ddl_barriers:
        for offset in (1, 2):
            if barrier + offset <= reference.total_syncs:
                crash_once(
                    tmp_path, seed, barrier + offset, ddl_toggles=True
                )


@pytest.mark.crash
@pytest.mark.parametrize("torn", ["all", "none"])
def test_torn_extremes(tmp_path, torn):
    seed = SEEDS[0]
    total = probe(tmp_path, seed, name="probe-%s" % torn).total_syncs
    for sync_index in range(1, total + 1, 3):
        crash_once(tmp_path, seed, sync_index, torn=torn)


@pytest.mark.crash
@pytest.mark.text_slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_extended_seed_matrix(tmp_path, seed):
    total = probe(tmp_path, seed).total_syncs
    for sync_index in range(1, total + 1):
        crash_once(tmp_path, seed, sync_index)


@pytest.mark.crash
@pytest.mark.crash_slow
def test_crash_at_every_syncpoint_with_image_ten_times_the_cache(tmp_path):
    """The size axis: the same oracle over a table image of at least
    ten pager caches, where checkpoint once lost the whole table."""
    seed, filler_rows, steps = 3, 8200, 12
    reference = probe(tmp_path, seed, filler_rows=filler_rows, steps=steps)
    images = [
        name for name in os.listdir(str(tmp_path / ("probe-%d" % seed)))
        if name.startswith("data.")
    ]
    assert images, "schedule took no checkpoint"
    image = tmp_path / ("probe-%d" % seed) / images[0]
    assert os.path.getsize(str(image)) >= 10 * 64 * PAGE_SIZE
    for sync_index in range(1, reference.total_syncs + 1):
        crash_once(
            tmp_path, seed, sync_index, filler_rows=filler_rows, steps=steps
        )
