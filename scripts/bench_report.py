#!/usr/bin/env python
"""Benchmark report: the quel, storage, text and net suites as BENCH_*.json.

Every workload is one ``harness.Op`` -- a call and a check of its answer
-- driven by ``bench/harness.py`` the way ``bench/run.py`` drives its
workloads: a warm-up, then a closed loop for ``--seconds``, the median of
per-window medians, times at the harness's reference speed.  An op whose
answer is wrong, or that raises, is a failed op, and a report with a
failed op fails the run.  Four files land at the repository root:

- ``BENCH_quel.json``: statements over a 40-chord ordering of 400 notes;
- ``BENCH_storage.json``: table, bulk-load, group-commit (8 threads),
  snapshot-read, checkpoint, WAL and pager operations;
- ``BENCH_text.json``: the same catalog searches over a 120k-row corpus
  before and after its trigram index exists, plus the first-N statements
  over a 1M-row corpus, and three self-gates on those numbers;
- ``BENCH_net.json``: a retrieve swarm, every client its own process,
  against the primary alone and with two WAL-shipped replicas.

A workload records its op count, the sum, p50 and p99 of its times at
the reference speed (p99 is null below the harness's sample floor) and
the unscaled p50; beside the workloads, the metrics snapshot after the
run, each histogram as count / sum / quantiles.  The CPU time of the
driving thread and of the crew threads a storage op hands work to is
scaled; fsync waits and the swarm's server are reported as measured.

Usage::

    PYTHONPATH=src python scripts/bench_report.py           # full run, writes the files
    PYTHONPATH=src python scripts/bench_report.py --check   # tiny sizes, writes nothing
    PYTHONPATH=src python scripts/bench_report.py \\
        --compare BENCH_quel.json --compare BENCH_storage.json

``--compare`` runs the suites the named baselines hold, writes nothing,
and exits nonzero when a workload's p50 is more than 25% (plus an
absolute slack) over its baseline's.
"""

import argparse
import itertools
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
# Appended, not prepended: bench/ also holds a ``trace.py``, which must
# not shadow the standard library's for anything else in this process.
sys.path.append(os.path.join(ROOT, "bench"))

import harness  # bench/harness.py

from repro.core.schema import Schema
from repro.obs.export import write_json
from repro.quel.executor import QuelSession
from repro.storage.database import Database
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog

KINDS = ("quel", "storage", "text", "net")
#: ``--seconds`` under ``--check``: long enough for a few ops a workload.
CHECK_SECONDS = 0.05


class Suite:
    """One report's workloads, each a ``harness.Op`` the harness drives."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.workloads = {}
        self.failed = 0
        self.errors = []

    def time(self, name, call, verify, crew=None):
        """Warm ``call`` up, then drive it for ``seconds``; ``verify``
        checks every answer, the warm-up's included.  The CPU time of a
        *crew* the call hands work to counts as the op's."""
        op = harness.Op(call, verify)
        driver = harness.Driver(
            name, {name: harness.BLOCK}, lambda cls, rng: op, seed=0
        )
        if crew is not None:
            driver.helpers = crew.threads
        harness.run_phase([driver], min(harness.WARMUP_S, self.seconds))
        phase = harness.Phase(self.seconds)
        harness.run_phase([driver], self.seconds, phase)
        self.record(name, phase, name, driver.failed, driver.errors)

    def record(self, name, phase, cls, failed, errors):
        """Keep *phase*'s numbers for op class *cls* as workload *name*."""
        self.failed += failed
        self.errors += errors
        median = phase.median_ms([cls])
        if median is None:
            raise SystemExit("%s: no op was verified: %s" % (name, errors))
        tail = phase.percentile_ms([cls], 0.99)
        self.workloads[name] = {
            "count": median["n"],
            "sum_s": sum(phase.pooled([cls])),
            "p50_s": median["value"] / 1e3,
            "p99_s": None if tail is None else tail["value"] / 1e3,
            "raw_p50_s": median["raw"] / 1e3,
        }

    def report(self, kind, dataset, metrics, **extra):
        report = {
            "benchmark": kind,
            "dataset": dataset,
            "workloads": self.workloads,
            "metrics": metrics,
            "failed_ops": self.failed,
            "errors": self.errors[:5],
        }
        report.update(extra)
        return report


def _metrics(registry):
    """*registry*'s snapshot, each histogram as its count, sum and quantiles."""
    snapshot = registry.snapshot()
    for name, value in snapshot.items():
        if isinstance(value, dict):
            histogram = registry.get(name)
            snapshot[name] = {
                "count": value["count"], "sum": value["sum"],
                "p50": histogram.quantile(0.50),
                "p99": histogram.quantile(0.99),
            }
    return snapshot


def _rows(rows):
    """A result's rows in one canonical order: the answer as a multiset."""
    return sorted(tuple(sorted(row.items())) for row in rows)


def _scores(rows):
    return [row["score"] for row in rows if "score" in row]


def _same_rows(expected):
    """A check that an answer holds exactly *expected*'s rows, and when
    they are ranked, their scores in *expected*'s order."""
    want, scores = _rows(expected), _scores(expected)
    return lambda rows: _rows(rows) == want and _scores(rows) == scores


# -- QUEL workloads -------------------------------------------------------------


def _populated_schema(chords, notes_per_chord):
    """A CHORD/NOTE ordering; returns it with ``n -> (pitch, label)``."""
    schema = Schema("bench")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity(
        "NOTE", [("n", "integer"), ("pitch", "integer"), ("label", "string")]
    )
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    notes = {}
    for chord_index in range(chords):
        chord = schema.entity_type("CHORD").create(n=chord_index)
        for note_index in range(notes_per_chord):
            n = chord_index * notes_per_chord + note_index
            notes[n] = (40 + (chord_index + note_index) % 48, "n%d" % note_index)
            note = schema.entity_type("NOTE").create(
                n=n, pitch=notes[n][0], label=notes[n][1]
            )
            ordering.append(chord, note)
    return schema, notes


def quel_report(seconds, chords=40, notes_per_chord=10):
    schema, notes = _populated_schema(chords, notes_per_chord)
    session = QuelSession(schema)
    session.execute("range of n is NOTE")
    session.execute("range of c is CHORD")
    target = chords * notes_per_chord // 2
    pitch = {n: note[0] for n, note in notes.items()}
    under = chords // 2
    statements = {
        "indexed_equality": (
            "retrieve (n.pitch) where n.n = %d" % target,
            [{"n.pitch": pitch[target]}],
        ),
        "filtered_scan": (
            "retrieve (n.n) where n.pitch > 80",
            [{"n.n": n} for n in notes if pitch[n] > 80],
        ),
        "two_variable_join": (
            "range of a, b is NOTE\n"
            "retrieve (a.n) where a.pitch = b.pitch + 1 and b.n = %d" % target,
            [{"a.n": n} for n in notes if pitch[n] == pitch[target] + 1],
        ),
        "under_query": (
            "retrieve (n.n) where n under c in o and c.n = %d sort by n.n"
            % under,
            [{"n.n": n} for n in notes if n // notes_per_chord == under],
        ),
        "aggregate": (
            "retrieve (total = count(n.n), top = max(n.pitch))",
            [{"total": len(notes), "top": max(pitch.values())}],
        ),
    }
    suite = Suite(seconds)
    for name, (source, expected) in sorted(statements.items()):
        suite.time(
            name, lambda s=source: session.execute(s), _same_rows(expected)
        )
    suite.time(
        "explain_analyze",
        lambda: session.execute(
            "explain analyze retrieve (n.pitch) where n.n = %d" % target
        ),
        lambda plan: plan[0]["plan"].startswith("bind n via index")
        and {"plan": "rows: 1"} in plan,
    )

    # The shape cache's two cases.  Repeated: the same source text over
    # and over -- a text-memo hit, no lexing, then only planned and run.
    # New literal: the same statement with another value each time -- one
    # regex pass finds the shape's parse and plan, so it must cost what
    # the repeat costs plus that pass, not a parse and a compile.
    shape = (
        "retrieve (a = n.pitch * 2 + 1, b = n.n - 3, c = n.label) "
        "where n.n = %d and n.pitch > 0"
    )

    def shaped(n):
        return [{"a": notes[n][0] * 2 + 1, "b": n - 3, "c": notes[n][1]}]

    suite.time(
        "repeated_statement",
        lambda: session.execute(shape % target),
        _same_rows(shaped(target)),
    )
    literals = itertools.cycle(sorted(notes))

    def new_literal():
        n = next(literals)
        return n, session.execute(shape % n)

    suite.time(
        "new_literal_statement", new_literal,
        lambda answer: _rows(answer[1]) == _rows(shaped(answer[0])),
    )
    return suite.report(
        "quel", {"chords": chords, "notes_per_chord": notes_per_chord},
        _metrics(session.metrics),
    )


# -- text-search workloads ------------------------------------------------------


def _rows_visited(session, statement):
    """Run ``explain analyze`` on *statement*; returns the rows-visited
    count the executor reports (None if the plan did not carry one)."""
    visited = None
    for row in session.execute("explain analyze " + statement):
        text = row.get("plan", "")
        if text.startswith("rows visited:"):
            visited = int(text.split(":")[1])
    return visited


def _index_stats(index):
    """The dataset entries describing a trigram index's footprint."""
    entries = index.posting_entries()
    return {
        "index_entries": len(index),
        "index_grams": index.gram_count(),
        "index_posting_entries": entries,
        "index_bytes": index.approx_bytes(),
        "index_bytes_per_entry": index.approx_bytes() / max(1, entries),
    }


def _head(full, limit):
    """A check for a ``limit`` statement: *limit* rows of *full* (all of
    them when it has fewer), and when *full* is ranked, its head's
    scores."""
    rows, scores = set(_rows(full)), _scores(full)[:limit]
    return lambda answer: (
        len(answer) == min(limit, len(full))
        and set(_rows(answer)) <= rows
        and _scores(answer) == scores
    )


def _catalog(name, row_count, seed):
    from repro.fixtures.corpus import load_catalog

    schema = Schema(name)
    entity = load_catalog(schema, row_count, seed=seed)
    session = QuelSession(schema)
    session.execute("range of t is TRACK")
    return schema, entity, session


def _scan_forms(session, statements):
    """Each statement's answer before the text index exists: what its
    indexed form must return."""
    return {statement: session.execute(statement) for statement in statements}


def _index_title(schema, entity):
    schema.database.create_text_index(entity.table.name, "title")
    return entity.table.text_index_for("title")


def text_report(seconds, row_count=120_000, seed=7, scale_rows=None):
    """The catalog-search suite: trigram-indexed text queries vs scans.

    Over the deterministic library corpus (``repro.fixtures.corpus``),
    every statement is answered once by scanning; the ``matches`` and
    ``similar_to`` statements are timed before the title's trigram index
    exists and after, and each indexed answer must be its scan form's.
    The top-k workloads time the streaming ``limit N`` ranked statement
    against the same statement without its limit (every candidate
    scored and sorted); *scale_rows* times the limit-bearing statements
    over a second, larger catalog.  Three hard ``gates``: the top-k and
    ``similar_to`` speedups stay >= 10x, the scale/base search ratio
    <= 5x.
    """
    match = 'retrieve (t.title) where matches(t.title, "prelude no. 7")'
    similar = (
        'retrieve (t.title) where '
        'similar_to(t.title, "nocturne in e flat major", 0.55)'
    )
    ranked = (
        'retrieve (t.title, score = similarity(t.title, "prelude no. 7")) '
        'where matches(t.title, "prelude no. 7") '
        'sort by similarity(t.title, "prelude no. 7") descending'
    )
    # The top-k showcase: a broad gate (every "prelude" row is a
    # candidate) ranked by similarity, keeping only the 10 best.  The
    # streaming operator prunes via the score bound; without the limit
    # every candidate is scored and sorted.
    topk = (
        'retrieve (t.title, score = similarity(t.title, "prelude no. 7")) '
        'where matches(t.title, "prelude") '
        'sort by similarity(t.title, "prelude no. 7") descending limit 10'
    )
    topk_full = topk.rsplit(" limit ", 1)[0]
    topk_search = match + " limit 100"

    schema, entity, session = _catalog("bench-text", row_count, seed)
    scanned = _scan_forms(session, (match, similar, ranked, topk_full))
    suite = Suite(seconds)
    workloads = {
        "catalog_search": (match, _same_rows(scanned[match])),
        "catalog_similar": (similar, _same_rows(scanned[similar])),
    }
    # No text index yet: these two can only scan.
    for name, (statement, verify) in workloads.items():
        suite.time(name + "_scan", lambda s=statement: session.execute(s), verify)
    index = _index_title(schema, entity)
    workloads.update({
        "catalog_ranked": (ranked, _same_rows(scanned[ranked])),
        "catalog_ranked_topk": (topk, _head(scanned[topk_full], 10)),
        "catalog_ranked_topk_full": (topk_full, _same_rows(scanned[topk_full])),
        "catalog_topk_search": (topk_search, _head(scanned[match], 100)),
    })
    for name, (statement, verify) in workloads.items():
        suite.time(name, lambda s=statement: session.execute(s), verify)

    dataset = {"rows": row_count, "seed": seed}
    dataset.update(_index_stats(index))
    dataset["rows_visited_indexed"] = _rows_visited(session, match)
    dataset["rows_visited_topk"] = _rows_visited(session, topk)
    if scale_rows:
        scale_schema, scale_entity, scale_session = _catalog(
            "bench-text-scale", scale_rows, seed
        )
        scale_scanned = _scan_forms(scale_session, (match, topk_full))
        scale_index = _index_title(scale_schema, scale_entity)
        for name, statement, verify in (
            ("catalog_scale_search", topk_search,
             _head(scale_scanned[match], 100)),
            ("catalog_scale_ranked_topk", topk,
             _head(scale_scanned[topk_full], 10)),
        ):
            suite.time(
                name, lambda s=statement: scale_session.execute(s), verify
            )
        dataset["scale"] = dict(
            {"rows": scale_rows, "seed": seed}, **_index_stats(scale_index)
        )

    def ratio(slow, fast):
        return suite.workloads[slow]["p50_s"] / suite.workloads[fast]["p50_s"]

    speedup = {
        "catalog_search_p50": ratio("catalog_search_scan", "catalog_search"),
        "catalog_similar_p50": ratio("catalog_similar_scan", "catalog_similar"),
        "catalog_ranked_topk_p50": ratio(
            "catalog_ranked_topk_full", "catalog_ranked_topk"
        ),
    }
    gates = {}
    # Hard perf gates, only meaningful at the full corpus size (tiny
    # --check corpora leave nothing for the index to prune).
    if row_count >= 120_000:
        gates = {
            "catalog_ranked_topk_speedup": {
                "value": speedup["catalog_ranked_topk_p50"], "min": 10.0,
            },
            "catalog_similar_speedup": {
                "value": speedup["catalog_similar_p50"], "min": 10.0,
            },
        }
        if scale_rows:
            gates["catalog_scale_search_ratio"] = {
                "value": ratio("catalog_scale_search", "catalog_topk_search"),
                "max": 5.0,
            }
    return suite.report(
        "text", dataset, _metrics(session.metrics), speedup=speedup,
        # The limit-bearing workloads finish in a couple of ms; widen
        # the absolute slack so the regression gate flags real slowdowns
        # rather than single-core scheduler noise.
        compare={"min_delta_s": 0.002}, gates=gates,
    )


# -- storage workloads ----------------------------------------------------------

#: Rows set-up loads before anything is timed, in ``row_count`` units:
#: what ``checkpoint`` writes an image of and ``table_select_eq`` reads.
#: With the 200 ``mixed`` rows, the default run's image holds 13,400
#: rows: the count the round-based report this one replaced had written
#: (30 rounds x (2 x 200 + 8 x 5) + 200) when it timed ``checkpoint``.
SETUP_BATCHES = 66


class Crew:
    """Threads that outlive the ops they work for, so that the harness
    can read their CPU clocks across each op (``Driver.helpers``)."""

    def __init__(self, size):
        self._inboxes = [queue.Queue() for _ in range(size)]
        self._outboxes = [queue.Queue() for _ in range(size)]
        self.threads = [
            threading.Thread(target=self._serve, args=(i,), daemon=True)
            for i in range(size)
        ]
        for thread in self.threads:
            thread.start()

    def _serve(self, i):
        for job in iter(self._inboxes[i].get, None):
            try:
                self._outboxes[i].put((job(), None))
            except Exception as error:
                self._outboxes[i].put((None, error))

    def start(self, jobs):
        """Hand ``jobs[i]`` to thread ``i``."""
        for inbox, job in zip(self._inboxes, jobs):
            inbox.put(job)

    def wait(self, members):
        """What the jobs of threads *members* returned; raises the first
        error once they have all finished."""
        outcomes = [self._outboxes[i].get() for i in members]
        for _, error in outcomes:
            if error is not None:
                raise error
        return [result for result, _ in outcomes]

    def close(self):
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self.threads:
            thread.join()


def storage_report(seconds, row_count=200):
    tempdir = tempfile.mkdtemp(prefix="bench_storage_")
    crew = Crew(8)
    try:
        suite = Suite(seconds)
        database = Database(os.path.join(tempdir, "db"))
        columns = [("k", "integer"), ("v", "string")]
        table = database.create_table("items", columns)
        table.create_index("k")
        bulk = database.create_table("bulk", columns)
        bulk.create_index("k")
        # Group commit under contention: 8 threads auto-commit inserts
        # into their own tables (so strict 2PL does not serialize them)
        # and their flushes coalesce -- wal.commits_per_fsync in the
        # metrics snapshot shows the amortization.
        conc_tables = [
            database.create_table("conc%d" % i, [("k", "integer")])
            for i in range(8)
        ]
        mixed = database.create_table(
            "mixed", [("k", "integer"), ("v", "integer")]
        )
        mixed_rows = [mixed.insert({"k": i, "v": 0}) for i in range(row_count)]
        loaded = row_count * SETUP_BATCHES
        database.bulk_ingest(
            "items", [{"k": k, "v": "value-%d" % k} for k in range(loaded)]
        )
        # Rows each table holds so far, which every write op checks.
        written = {"items": loaded, "bulk": 0, "conc": 0, "wal": 0}

        probe_key = row_count // 2
        suite.time(
            "table_select_eq", lambda: table.select_eq("k", probe_key),
            lambda rows: [row["v"] for row in rows] == ["value-%d" % probe_key],
        )
        checkpoints = itertools.count(1)
        suite.time(
            "checkpoint", database.checkpoint,
            lambda _: len(table) == loaded and database.metrics.value(
                "db.checkpoints") == next(checkpoints),
        )

        def fresh_rows(name):
            base = written[name]
            written[name] += row_count
            return [{"k": k, "v": "value-%d" % k}
                    for k in range(base, base + row_count)]

        def insert_rows():
            for row in fresh_rows("items"):
                table.insert(row)

        suite.time(
            "table_insert", insert_rows,
            lambda _: len(table) == written["items"],
        )
        # COPY-style bulk load: one BATCH_INSERT frame + one group-commit
        # flush per batch instead of a frame + fsync per row.
        suite.time(
            "bulk_ingest",
            lambda: database.bulk_ingest("bulk", fresh_rows("bulk")),
            lambda _: len(bulk) == written["bulk"],
        )

        per_thread = max(1, row_count // 40)

        def concurrent_insert():
            base = written["conc"]
            written["conc"] += per_thread

            def hammer(tab):
                for k in range(base, base + per_thread):
                    tab.insert({"k": k})

            crew.start([lambda t=tab: hammer(t) for tab in conc_tables])
            crew.wait(range(len(conc_tables)))

        suite.time(
            "concurrent_insert", concurrent_insert,
            lambda _: all(len(t) == written["conc"] for t in conc_tables),
            crew,
        )

        # MVCC snapshot reads under write pressure: one writer thread
        # auto-commits updates while 4 scan threads each run pinned
        # snapshot scans.  Timed from the readers' side -- before
        # snapshot reads, this schedule serialized on the table lock.
        transactions = database.transactions

        def mixed_readers_writers():
            stop = threading.Event()

            def writer():
                for i in itertools.count():
                    if stop.is_set():
                        return
                    mixed.update(mixed_rows[i % len(mixed_rows)].rowid,
                                 {"v": i})

            def scan():
                transactions.pin_snapshot()
                try:
                    return sum(1 for _ in mixed)
                finally:
                    transactions.unpin_snapshot()

            crew.start([lambda: [scan() for _ in range(3)]] * 4 + [writer])
            try:
                return crew.wait(range(4))
            finally:
                stop.set()
                crew.wait([4])

        suite.time(
            "mixed_readers_writers", mixed_readers_writers,
            lambda seen: seen == [[row_count] * 3] * 4, crew,
        )
        metrics = _metrics(database.metrics)
        database.close()

        # Raw WAL append/fsync rates.
        wal = WriteAheadLog(os.path.join(tempdir, "bench.wal"))

        def wal_appends():
            for _ in range(row_count):
                wal.append(1, 1)
            wal.flush()
            written["wal"] += row_count

        suite.time(
            "wal_append_fsync", wal_appends,
            lambda _: wal.flushed_lsn == wal.last_lsn == written["wal"],
        )
        wal.close()

        # Pager stream write/read.
        pager = Pager(os.path.join(tempdir, "bench.mdm"), capacity=8)
        payload = b"x" * (64 * 1024)
        head = pager.write_stream(payload)
        pager.flush()

        def stream_write():
            written_head = pager.write_stream(payload)
            pager.flush()
            return written_head

        suite.time(
            "pager_stream_write", stream_write,
            lambda at: pager.read_stream(at) == payload,
        )
        suite.time(
            "pager_stream_read", lambda: pager.read_stream(head),
            lambda data: data == payload,
        )
        pager.close()
        return suite.report(
            "storage", {"row_count": row_count, "setup_rows": loaded}, metrics
        )
    finally:
        crew.close()
        shutil.rmtree(tempdir, ignore_errors=True)


# -- network serving workloads ---------------------------------------------------

SWARM_STATEMENT = "retrieve (n.degree) where n.degree >= 0"


def _swarm_worker(argv):
    """Child-process entry point (``--swarm-worker``): one retrieve client
    driven by the harness; prints what its phase recorded as JSON."""
    from repro.net import MdmClient

    port, replica_ports, seconds, rows = argv
    seconds, rows = float(seconds), int(rows)
    client = MdmClient(
        ("127.0.0.1", int(port)),
        replicas=[("127.0.0.1", int(p)) for p in replica_ports.split(",") if p],
        client_id="swarm-%d" % os.getpid(), default_timeout=5.0,
    )
    op = harness.Op(
        lambda: client.retrieve(SWARM_STATEMENT),
        lambda answer: len(answer) == rows,
    )
    driver = harness.Driver(
        "swarm", {"retrieve": harness.BLOCK}, lambda cls, rng: op,
        seed=os.getpid(),
    )
    phase = harness.Phase(seconds)
    try:
        client.execute("range of n is NOTE")
        harness.run_phase([driver], min(harness.WARMUP_S, seconds))
        harness.run_phase([driver], seconds, phase)
    finally:
        client.close()
    json.dump({
        "samples": phase.samples, "raw": phase.raw,
        "failed": driver.failed, "errors": driver.errors,
    }, sys.stdout)
    return 0


def _run_swarm(suite, label, port, replica_ports, clients, rows):
    """Drive *clients* worker processes; their phases become one."""
    command = [
        sys.executable, os.path.abspath(__file__), "--swarm-worker",
        str(port), ",".join(str(p) for p in replica_ports),
        str(suite.seconds), str(rows),
    ]
    procs = [
        subprocess.Popen(command, stdout=subprocess.PIPE)
        for _ in range(clients)
    ]
    phase = harness.Phase(suite.seconds)
    failed, errors = 0, []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("swarm worker exited %d" % proc.returncode)
        child = json.loads(out.decode("utf-8"))
        # The merge mirrors Phase's own storage: every child must have cut
        # its phase into the same windows.
        if len(child["samples"]) != phase.windows:
            raise RuntimeError(
                "swarm worker sent %d windows, want %d"
                % (len(child["samples"]), phase.windows)
            )
        for window, part in zip(phase.samples, child["samples"]):
            for cls, values in part.items():
                window[cls].extend(values)
        for cls, values in child["raw"].items():
            phase.raw[cls].extend(values)
        failed += child["failed"]
        errors += child["errors"]
    suite.record(label, phase, "retrieve", failed, errors)


def net_report(seconds, clients=4, row_count=60):
    """The client-swarm serving benchmark: per-retrieve latency with
    every client in its own OS process, primary-only vs. primary plus
    two WAL-shipped replicas (retrieves fan out).  A shed retrieve is a
    failed op; ``net.shed`` in the metrics counts them."""
    from repro.mdm.manager import MusicDataManager
    from repro.net import MdmServer, ReplicaServer

    tempdir = tempfile.mkdtemp(prefix="bench_net_")
    suite = Suite(seconds)
    try:
        for label, replica_count in (
            ("swarm_primary_only", 0),
            ("swarm_two_replicas", 2),
        ):
            mdm = MusicDataManager(os.path.join(tempdir, "db_%s" % label))
            server = MdmServer(mdm)
            server.start()
            replicas = []
            try:
                for degree in range(row_count):
                    mdm.execute("append to NOTE (degree = %d)" % degree)
                for index in range(replica_count):
                    replica = ReplicaServer(
                        server.address, name="bench-r%d" % index
                    )
                    replica.start()
                    replicas.append(replica)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not all(
                    r.status()["serving"] for r in replicas
                ):
                    time.sleep(0.02)
                _run_swarm(
                    suite, label, server.address[1],
                    [r.address[1] for r in replicas], clients, row_count,
                )
                metrics = _metrics(mdm.database.metrics)
            finally:
                for replica in replicas:
                    replica.stop()
                server.stop()
                mdm.close()
        return suite.report(
            "net", {"clients": clients, "row_count": row_count}, metrics,
            # Swarm latencies are a few ms and swing with machine load;
            # widen the absolute slack so the gate catches gross
            # serving regressions without flagging scheduler noise.
            compare={"min_delta_s": 0.003},
        )
    finally:
        shutil.rmtree(tempdir, ignore_errors=True)


# -- report validation / entry point --------------------------------------------

_STAT_KEYS = {"count", "sum_s", "p50_s", "p99_s", "raw_p50_s"}


def validate_report(report):
    """Raise ValueError unless *report* has the BENCH_*.json shape."""
    for key in ("benchmark", "dataset", "workloads", "metrics"):
        if key not in report:
            raise ValueError("report missing %r" % key)
    if not report["workloads"]:
        raise ValueError("report has no workloads")
    for name, stats in report["workloads"].items():
        missing = _STAT_KEYS - set(stats)
        if missing:
            raise ValueError("workload %r missing %s" % (name, sorted(missing)))
        if stats["count"] < 1 or stats["sum_s"] < 0:
            raise ValueError("workload %r has nonsense stats" % name)
    for name, gate in report.get("gates", {}).items():
        if "value" not in gate or not ({"min", "max"} & set(gate)):
            raise ValueError("gate %r needs a value and a min/max bound" % name)
    json.dumps(report)  # must be serializable
    return report


def check_gates(report):
    """Check the claims a report makes about itself.

    Unlike the baseline comparison (relative: this run vs a committed
    run), these are absolute: every op returned a right answer, and the
    hard perf ``gates`` hold -- the top-k operator is >=10x its
    materialize-then-sort ablation, the 1M-row search p50 is <=5x the
    120k one.  Returns human-readable failure lines (empty means every
    claim holds).
    """
    failures = []
    if report.get("failed_ops"):
        failures.append(
            "%d op(s) failed their check: %s"
            % (report["failed_ops"], "; ".join(report.get("errors", [])))
        )
    for name, gate in sorted(report.get("gates", {}).items()):
        value = gate["value"]
        if "min" in gate and value < gate["min"]:
            failures.append(
                "%s: %.2f below required minimum %.2f"
                % (name, value, gate["min"])
            )
        if "max" in gate and value > gate["max"]:
            failures.append(
                "%s: %.2f above allowed maximum %.2f"
                % (name, value, gate["max"])
            )
    return failures


def _enforce_gates(reports):
    """Print gate status for each report; returns True when any fail."""
    failed = False
    for report in reports:
        failures = check_gates(report)
        gates = report.get("gates")
        if failures:
            failed = True
            print("GATE FAILURE in %s report:" % report["benchmark"])
            for line in failures:
                print("  " + line)
        elif gates:
            values = ", ".join("%s=%.2f" % (name, gate["value"])
                               for name, gate in sorted(gates.items()))
            print("gates OK in %s report (%s)" % (report["benchmark"], values))
    return failed


def compare_reports(current, baseline, threshold=0.25, min_delta_s=0.0005):
    """Compare per-workload p50 timings of *current* against *baseline*.

    Returns a list of human-readable regression lines (empty means the
    comparison passes).  A workload regresses when its current p50
    exceeds the baseline p50 by more than *threshold* (fractional) plus
    *min_delta_s* of absolute slack -- the slack keeps sub-millisecond
    workloads from flagging on scheduler noise.  Workloads present in
    only one report are ignored, so reports can gain scenarios without
    breaking older baselines.  A baseline may widen its own slack via a
    top-level ``"compare": {"min_delta_s": ...}`` entry (the net swarm
    does: wall-clock latencies over real sockets need more headroom
    than in-process microbenchmarks).
    """
    regressions = []
    base_workloads = baseline.get("workloads", {})
    for name, stats in sorted(current["workloads"].items()):
        base = base_workloads.get(name)
        if base is None:
            continue
        base_p50 = base["p50_s"]
        cur_p50 = stats["p50_s"]
        if cur_p50 > base_p50 * (1.0 + threshold) + min_delta_s:
            ratio = cur_p50 / base_p50 if base_p50 else float("inf")
            regressions.append(
                "%s: p50 %.6fs vs baseline %.6fs (%.2fx, budget %.0f%%)"
                % (name, cur_p50, base_p50, ratio, threshold * 100.0)
            )
    return regressions


def _run_compare(baseline_paths, current_by_kind):
    """Compare fresh reports against each baseline file; returns an exit
    status (0 pass, 1 any regression or unusable baseline)."""
    failed = False
    for path in baseline_paths:
        try:
            with open(path) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            print("compare: cannot read %s: %s" % (path, error))
            failed = True
            continue
        current = current_by_kind.get(baseline.get("benchmark"))
        if current is None:
            print(
                "compare: %s has unknown benchmark kind %r"
                % (path, baseline.get("benchmark"))
            )
            failed = True
            continue
        hints = baseline.get("compare", {})
        regressions = compare_reports(
            current, baseline,
            min_delta_s=float(hints.get("min_delta_s", 0.0005)),
        )
        shared = len(
            set(current["workloads"]) & set(baseline.get("workloads", {}))
        )
        if regressions:
            failed = True
            print("REGRESSION vs %s:" % path)
            for line in regressions:
                print("  " + line)
        else:
            print("compare OK vs %s (%d shared workloads)" % (path, shared))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="tiny sizes and %g s phases, every op still checked; "
             "validate report shapes, write nothing" % CHECK_SECONDS,
    )
    parser.add_argument(
        "--compare", action="append", default=None, metavar="BASELINE",
        help="compare against a baseline BENCH_*.json (repeatable); "
             "exit nonzero on >25%% p50 regression, write nothing",
    )
    parser.add_argument(
        "--seconds", type=float, default=2.0,
        help="measured seconds per workload, after a warm-up (default 2)",
    )
    parser.add_argument(
        "--out-dir", default=ROOT,
        help="directory for BENCH_*.json (default: repository root)",
    )
    parser.add_argument(
        "--scale-rows", type=int, default=1_000_000,
        help="row count for the catalog_scale_* text workloads "
             "(default 1000000; 0 skips the scale suite)",
    )
    parser.add_argument(
        "--swarm-worker", nargs=4, default=None,
        metavar=("PORT", "REPLICA_PORTS", "SECONDS", "ROWS"),
        help=argparse.SUPPRESS,  # internal: net_report child process
    )
    args = parser.parse_args(argv)

    if args.swarm_worker is not None:
        return _swarm_worker(args.swarm_worker)

    seconds = CHECK_SECONDS if args.check else args.seconds
    builders = {
        "quel": lambda: quel_report(
            seconds, chords=8 if args.check else 40,
            notes_per_chord=5 if args.check else 10,
        ),
        "storage": lambda: storage_report(
            seconds, row_count=20 if args.check else 200
        ),
        "text": lambda: text_report(
            seconds, row_count=400 if args.check else 120_000,
            scale_rows=800 if args.check else args.scale_rows,
        ),
        "net": lambda: net_report(
            seconds, clients=2 if args.check else 4,
            row_count=10 if args.check else 60,
        ),
    }
    wanted = set(builders)
    if args.compare and not args.check:
        # Only build the suites the named baselines actually gate --
        # `--compare BENCH_text.json` alone skips the net swarm etc.
        wanted = set()
        for path in args.compare:
            try:
                with open(path) as handle:
                    wanted.add(json.load(handle).get("benchmark"))
            except (OSError, ValueError):
                wanted = set(builders)  # _run_compare reports the problem
                break
        wanted &= set(builders)
    reports = {
        kind: validate_report(builders[kind]())
        for kind in KINDS if kind in wanted
    }
    gates_failed = _enforce_gates(reports.values())
    if args.check:
        counts = ", ".join("%d %s" % (len(reports[kind]["workloads"]), kind)
                           for kind in KINDS)
        print("bench report check %s (%s workloads)"
              % ("FAILED" if gates_failed else "OK", counts))
        return 1 if gates_failed else 0
    if args.compare:
        status = _run_compare(args.compare, reports)
        return 1 if gates_failed else status
    if gates_failed:
        return 1
    out_dir = os.path.abspath(args.out_dir)
    for kind in KINDS:
        path = os.path.join(out_dir, "BENCH_%s.json" % kind)
        write_json(path, reports[kind])
        print("wrote %s:" % os.path.relpath(path, out_dir))
        for name, stats in sorted(reports[kind]["workloads"].items()):
            print("  %-26s p50 %.6fs over %d ops"
                  % (name, stats["p50_s"], stats["count"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
