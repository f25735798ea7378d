"""The concurrency stress harness: seeded multi-client workloads.

Several worker threads hammer one shared :class:`MusicDataManager`
through :class:`MdmSession` handles, mixing entity creates/updates with
ordering membership churn and QUEL reads, while a *blocker* thread
injects lock conflicts by seizing table locks directly on the lock
manager (with a huge owner id, so under wait-die every session is older
and must wait — bounded by its deadline).  Session-versus-session
conflicts additionally produce genuine wait-die aborts, which the
sessions retry under seeded backoff.

Determinism model: every worker's **operation sequence** (op kinds,
pitches, chords, positions) and every session's backoff jitter is drawn
from a ``random.Random`` seeded per ``(run seed, worker id)``, so a
failing seed replays the same workload.  Thread interleaving is the
one source of nondeterminism, and the oracle's assertions are written
to hold under *every* interleaving:

* **exactly-once committed effects** — each committed create leaves
  exactly one row carrying its unique marker (retries must not
  double-apply), each failed create leaves zero;
* the **last committed update/membership** per note is what the tables
  show after the run;
* QUEL readers never observe a duplicated marker mid-flight;
* ``check_invariants`` holds over the final state;
* no session ever surfaces an error outside the service-layer
  vocabulary (RetryExhausted/Overload are legal outcomes, anything
  else is a harness failure).
"""

import random
import threading
import time

from repro.errors import MDMError, OverloadError, RetryExhaustedError
from repro.mdm.manager import MusicDataManager
from repro.storage.lock import LockMode

# Direct lock-manager owners for injected conflicts.  Far above any
# session txn id, so sessions (older under wait-die) wait, never die,
# when colliding with the blocker; the blocker itself dies quietly.
BLOCKER_ID_BASE = 10**9

NOTE_TABLE = "entity:NOTE"
CHORD_TABLE = "entity:CHORD"
ORDERING = "note_in_chord"
ORDERING_TABLE = "ord:%s" % ORDERING


def build_mdm(path=None, opener=None, max_concurrent=8, **mdm_options):
    """A bare MDM (no CMN) with the paper's NOTE/CHORD/ordering schema."""
    mdm = MusicDataManager(
        path=path, with_cmn=False, max_concurrent=max_concurrent,
        opener=opener, **mdm_options
    )
    schema = mdm.schema
    schema.define_entity("CHORD", [("name", "integer")])
    schema.define_entity("NOTE", [("name", "integer"), ("pitch", "integer")])
    schema.define_ordering(ORDERING, ["NOTE"], under="CHORD")
    return mdm


class StressWorker:
    """One client thread: a seeded op sequence over its own notes.

    A worker only ever mutates notes it created itself, so the expected
    final state of each note is fully determined by the worker's own
    sequence of *committed* operations — concurrency can reorder
    workers against each other but never corrupt this per-worker
    ledger.  Contention comes from the shared tables underneath
    (every create touches ``entity:NOTE``; every membership op touches
    the one ordering table).
    """

    def __init__(self, harness, worker_id, seed, op_count):
        self.harness = harness
        self.worker_id = worker_id
        self.op_count = op_count
        self.rng = random.Random(seed)
        self.session = harness.mdm.connect(
            "w%d" % worker_id,
            seed=seed,
            max_attempts=12,
            backoff_base=0.0005,
            backoff_cap=0.01,
            default_timeout=10.0,
        )
        self.instances = {}  # marker -> EntityInstance (committed creates)
        self.committed = {}  # marker -> {"pitch": int, "chord": surrogate|None}
        self.failed_creates = []
        self.transient_failures = 0
        self.reads = 0
        self.unexpected = []

    # -- the thread body -------------------------------------------------------

    def run_ops(self):
        try:
            self.harness.start_barrier.wait()
            for seq in range(self.op_count):
                self._one_op(seq)
        except BaseException as error:  # harness bug, not a workload outcome
            self.unexpected.append(error)

    def _one_op(self, seq):
        if seq == 0 or not self.committed:
            self._op_create(seq)
            return
        kind = self.rng.choice(
            ("create", "update", "update", "toggle", "toggle", "move", "read")
        )
        getattr(self, "_op_" + kind)(seq)

    def _run(self, fn):
        """Run one closure through the session; returns (ok, result)."""
        try:
            return True, self.session.run(fn)
        except (RetryExhaustedError, OverloadError):
            self.transient_failures += 1
            return False, None
        except MDMError as error:
            self.unexpected.append(error)
            return False, None

    # -- operations ------------------------------------------------------------

    def _marker(self, seq):
        return self.worker_id * 1_000_000 + seq

    def _pick_note(self):
        marker = self.rng.choice(sorted(self.committed))
        return marker, self.instances[marker]

    def _op_create(self, seq):
        marker = self._marker(seq)
        pitch = self.rng.randrange(1, 128)
        chord = self.rng.choice(self.harness.chords)
        with_membership = self.rng.random() < 0.5
        mdm = self.harness.mdm
        ordering = self.harness.ordering

        def op(m):
            note = m.schema.entity_type("NOTE").create(name=marker, pitch=pitch)
            if with_membership:
                m.database.write_table(ORDERING_TABLE)
                ordering.append(chord, note)
            return note

        ok, note = self._run(op)
        if ok:
            self.instances[marker] = note
            self.committed[marker] = {
                "pitch": pitch,
                "chord": chord.surrogate if with_membership else None,
            }
        else:
            self.failed_creates.append(marker)

    def _op_update(self, seq):
        marker, note = self._pick_note()
        pitch = self.rng.randrange(1, 128)
        ok, _ = self._run(lambda m: note.set(pitch=pitch))
        if ok:
            self.committed[marker]["pitch"] = pitch

    def _op_toggle(self, seq):
        """Append the note to a chord if absent, remove it if present."""
        marker, note = self._pick_note()
        chord = self.rng.choice(self.harness.chords)
        ordering = self.harness.ordering

        def op(m):
            # Take the ordering write lock *before* reading membership:
            # this read-modify-write must be atomic against other
            # sessions churning the same ordering table.
            m.database.write_table(ORDERING_TABLE)
            if ordering.contains(note):
                ordering.remove(note)
                return None
            ordering.append(chord, note)
            return chord.surrogate

        ok, new_chord = self._run(op)
        if ok:
            self.committed[marker]["chord"] = new_chord

    def _op_move(self, seq):
        marker, note = self._pick_note()
        r = self.rng.random()
        ordering = self.harness.ordering

        def op(m):
            m.database.write_table(ORDERING_TABLE)
            if not ordering.contains(note):
                return False
            parent = ordering.parent_of(note)
            count = len(ordering.children(parent))
            ordering.move(note, 1 + int(r * count))
            return True

        self._run(op)  # membership is unchanged either way

    def _op_read(self, seq):
        def op(m):
            rows = m.retrieve("range of n is NOTE\nretrieve (n.name, n.pitch)")
            names = [row["n.name"] for row in rows]
            if len(names) != len(set(names)):
                raise AssertionError(
                    "duplicate note markers observed mid-run: %r" % names
                )
            return len(rows)

        ok, _ = self._run(op)
        if ok:
            self.reads += 1


class LockBlocker(threading.Thread):
    """Injects lock conflicts by pulsing exclusive table locks.

    Holds ``entity:NOTE`` exclusively *before* the workers start (so the
    run begins with a guaranteed multi-session pileup on the lock
    table), then pulses short exclusive holds on the two tables the
    workers write.  Uses huge owner ids: colliding sessions are older
    and wait; when a session already holds the lock the blocker is
    younger and dies — which is fine, it just skips that pulse.
    """

    def __init__(self, harness, seed, pulses=15, hold=0.002, gap=0.0005):
        super().__init__(name="blocker", daemon=True)
        self.harness = harness
        self.rng = random.Random(seed)
        self.pulses = pulses
        self.hold = hold
        self.gap = gap

    def run(self):
        locks = self.harness.mdm.database.transactions.lock_manager
        tables = (NOTE_TABLE, ORDERING_TABLE)
        owner = BLOCKER_ID_BASE
        baseline = locks.stats()["waits"]
        locks.acquire(owner, NOTE_TABLE, LockMode.EXCLUSIVE)
        self.harness.start_barrier.wait()  # workers now stampede into it
        # Hold until a session is actually observed waiting (every
        # worker's first op needs this table), so each run provably
        # exercises the deadline-bounded wait path.
        give_up = time.monotonic() + 2.0
        while locks.stats()["waits"] == baseline and time.monotonic() < give_up:
            time.sleep(0.0005)
        time.sleep(self.hold)
        locks.release_all(owner)
        for pulse in range(self.pulses):
            owner = BLOCKER_ID_BASE + 1 + pulse
            table = self.rng.choice(tables)
            try:
                locks.acquire(owner, table, LockMode.EXCLUSIVE)
            except MDMError:
                continue  # a session held it; wait-die killed us — skip
            time.sleep(self.hold)
            locks.release_all(owner)
            time.sleep(self.gap)


class StressHarness:
    """One stress run: build, hammer, verify."""

    def __init__(self, seed, threads=4, ops_per_worker=10, chords=3,
                 max_concurrent=8, blocker_pulses=15):
        self.seed = seed
        self.mdm = build_mdm(max_concurrent=max_concurrent)
        entity_type = self.mdm.schema.entity_type("CHORD")
        self.chords = [entity_type.create(name=i) for i in range(chords)]
        self.ordering = self.mdm.schema.ordering(ORDERING)
        self.workers = [
            StressWorker(self, wid, seed * 1000 + wid, ops_per_worker)
            for wid in range(threads)
        ]
        self.start_barrier = threading.Barrier(threads + 1)  # + blocker
        self.blocker = LockBlocker(self, seed * 1000 + 999, pulses=blocker_pulses)

    def plant_wait_die(self):
        """One certain wait-die abort before the stampede.

        An owner older than every transaction holds ``entity:CHORD``; a
        session's first attempt asks for it, is younger, dies and is
        retried; its second attempt frees the lock first.  So a run
        planted before :meth:`run` counts at least one
        ``deadlock_aborts`` and one ``retries``, however the worker
        threads happen to interleave.  It also adds one commit, so only
        call it where the statistics are read for conflicts, not commits.
        """
        locks = self.mdm.database.transactions.lock_manager
        older = 0  # transaction ids start at 1
        locks.acquire(older, CHORD_TABLE, LockMode.EXCLUSIVE)
        attempts = [0]

        def op(m):
            attempts[0] += 1
            if attempts[0] > 1:
                locks.release_all(older)
            m.database.write_table(CHORD_TABLE)

        self.mdm.connect("planted", seed=self.seed, backoff_base=0.0).run(op)

    def run(self):
        threads = [
            threading.Thread(target=worker.run_ops, name=worker.session.name)
            for worker in self.workers
        ]
        self.blocker.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.blocker.join()
        return self

    # -- the oracle ------------------------------------------------------------

    def verify(self):
        problems = []
        for worker in self.workers:
            for error in worker.unexpected:
                problems.append(
                    "worker %d unexpected error: %r" % (worker.worker_id, error)
                )
        note_table = self.mdm.database.table(NOTE_TABLE)
        for worker in self.workers:
            for marker in worker.failed_creates:
                rows = note_table.select_eq("name", marker)
                if rows:
                    problems.append(
                        "failed create for marker %d left %d row(s)"
                        % (marker, len(rows))
                    )
            for marker, expected in worker.committed.items():
                rows = note_table.select_eq("name", marker)
                if len(rows) != 1:
                    problems.append(
                        "committed create for marker %d has %d row(s), want 1"
                        % (marker, len(rows))
                    )
                    continue
                if rows[0]["pitch"] != expected["pitch"]:
                    problems.append(
                        "marker %d pitch %r != last committed %r"
                        % (marker, rows[0]["pitch"], expected["pitch"])
                    )
                note = worker.instances[marker]
                if expected["chord"] is None:
                    if self.ordering.contains(note):
                        problems.append(
                            "marker %d should not be in the ordering" % marker
                        )
                else:
                    if not self.ordering.contains(note):
                        problems.append(
                            "marker %d missing from the ordering" % marker
                        )
                    elif self.ordering.parent_of(note).surrogate != expected["chord"]:
                        problems.append(
                            "marker %d under chord #%d, want #%d"
                            % (
                                marker,
                                self.ordering.parent_of(note).surrogate,
                                expected["chord"],
                            )
                        )
        if problems:
            raise AssertionError(
                "stress oracle (seed %d): %d violation(s):\n%s"
                % (self.seed, len(problems), "\n".join(problems))
            )
        self.mdm.check_invariants()
        return self.mdm.statistics()


def run_stress(seed, threads=4, ops_per_worker=10, **kwargs):
    """Build, run, and verify one seeded stress schedule; returns stats."""
    harness = StressHarness(
        seed, threads=threads, ops_per_worker=ops_per_worker, **kwargs
    )
    harness.run()
    stats = harness.verify()
    stats["harness"] = harness
    return stats
