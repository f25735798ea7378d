#!/usr/bin/env python
"""Benchmark report: measure QUEL, storage, and net workloads, emit BENCH JSON.

Runs a self-contained ``time.perf_counter`` harness (no pytest-benchmark
dependency) over four workload suites and writes ``BENCH_quel.json``,
``BENCH_storage.json``, ``BENCH_text.json`` (trigram-indexed catalog
search over a 120k-row library corpus vs. unindexed scans), and
``BENCH_net.json`` (a multi-process client swarm against the network
server, primary-only vs. two WAL-shipped replicas: per-retrieve p50/p99
latency and shed rate) at the repository root.  Each file carries
per-workload timing statistics plus the metrics-registry snapshot taken
after the run, so a report shows both "how fast" and "how much work"
(page I/O, WAL appends, lock waits, statements).

Usage::

    PYTHONPATH=src python scripts/bench_report.py           # full run
    PYTHONPATH=src python scripts/bench_report.py --check   # CI smoke
    PYTHONPATH=src python scripts/bench_report.py \\
        --compare BENCH_quel.json --compare BENCH_storage.json

``--check`` runs every workload once with tiny parameters and validates
the report shape without writing any file -- wired into
``scripts/bench_smoke.sh`` so a broken workload fails CI fast.

``--compare`` re-runs the suites and exits nonzero when any workload's
median (p50) regresses more than 25% against the named baseline report,
guarding the committed BENCH_*.json numbers against perf regressions.
"""

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.schema import Schema
from repro.obs.export import write_json
from repro.quel.executor import QuelSession
from repro.storage.database import Database
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog


def _time_workload(fn, rounds):
    """Run ``fn()`` *rounds* times; returns timing statistics (seconds)."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return _stats_from_samples(samples)


# -- QUEL workloads -------------------------------------------------------------


def _populated_schema(chords, notes_per_chord):
    schema = Schema("bench")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity(
        "NOTE", [("n", "integer"), ("pitch", "integer"), ("label", "string")]
    )
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    for chord_index in range(chords):
        chord = schema.entity_type("CHORD").create(n=chord_index)
        for note_index in range(notes_per_chord):
            note = schema.entity_type("NOTE").create(
                n=chord_index * notes_per_chord + note_index,
                pitch=40 + (chord_index + note_index) % 48,
                label="n%d" % note_index,
            )
            ordering.append(chord, note)
    return schema


def quel_report(rounds, chords=40, notes_per_chord=10):
    schema = _populated_schema(chords, notes_per_chord)
    session = QuelSession(schema)
    session.execute("range of n is NOTE")
    session.execute("range of c is CHORD")
    target = chords * notes_per_chord // 2
    statements = {
        "indexed_equality": "retrieve (n.pitch) where n.n = %d" % target,
        "filtered_scan": "retrieve (n.n) where n.pitch > 80",
        "two_variable_join": (
            "range of a, b is NOTE\n"
            "retrieve (a.n) where a.pitch = b.pitch + 1 and b.n = %d" % target
        ),
        "under_query": (
            "retrieve (n.n) where n under c in o and c.n = %d sort by n.n"
            % (chords // 2)
        ),
        "aggregate": "retrieve (total = count(n.n), top = max(n.pitch))",
        "explain_analyze": "explain analyze retrieve (n.pitch) where n.n = %d"
        % target,
    }
    workloads = {}
    for name, source in sorted(statements.items()):
        workloads[name] = _time_workload(lambda s=source: session.execute(s), rounds)

    # The shape cache's two cases.  Repeated: the same source text over
    # and over -- a text-memo hit, no lexing, then only planned and run.
    # New literal: the same statement with another value each time -- one
    # regex pass finds the shape's parse and plan, so it must cost what
    # the repeat costs plus that pass, not a parse and a compile.
    shape = (
        "retrieve (a = n.pitch * 2 + 1, b = n.n - 3, c = n.label) "
        "where n.n = %d and n.pitch > 0"
    )
    repeated = shape % target
    session.execute(repeated)  # warm: adaptive indexes settle the epoch
    session.execute(repeated)
    workloads["repeated_statement"] = _time_workload(
        lambda: session.execute(repeated), rounds
    )
    fresh = itertools.count()
    workloads["new_literal_statement"] = _time_workload(
        lambda: session.execute(shape % (next(fresh) % (2 * target))), rounds
    )
    return {
        "benchmark": "quel",
        "dataset": {"chords": chords, "notes_per_chord": notes_per_chord},
        "workloads": workloads,
        "metrics": session.metrics.snapshot(),
    }


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


def text_report(rounds, row_count=120_000, seed=7, scale_rows=None):
    """The catalog-search suite: trigram-indexed text queries vs scans.

    Loads the deterministic library corpus (``repro.fixtures.corpus``)
    and times the same ``matches``/``similar_to`` statements twice:
    before the trigram index over the title column exists (the planner
    can only scan and apply the predicate to every row) and after.  The
    report carries the p50 speedup and the rows-visited count from
    ``explain analyze`` so the "index prunes the heap" claim is
    checkable from the JSON alone.

    The top-k workloads time the streaming ``limit N`` ranked statement
    against the same statement without its limit (every gate candidate
    is fetched, scored and sorted -- the cost the operator avoids);
    *scale_rows* additionally
    loads a second catalog of that size and re-times the limit-bearing
    statements there, so the report can show that first-N retrieval
    cost stays flat as the corpus grows ~8x.  Three claims are hard
    ``gates`` entries: ``--compare`` (and any full run) fails when the
    top-k speedup or the ``similar_to`` index-over-scan speedup drops
    below 10x, or the 1M/120k search ratio rises above 5x.
    """
    from repro.fixtures.corpus import load_catalog

    schema = Schema("bench-text")
    entity = load_catalog(schema, row_count, seed=seed)
    session = QuelSession(schema)
    session.execute("range of t is TRACK")

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
    # Scans walk the whole heap per round; fewer rounds keep the suite
    # affordable without touching the p50's meaning.
    scan_rounds = max(2, rounds // 6)
    # No text index yet: these two can only scan.
    workloads = {
        "catalog_search_scan": _time_workload(
            lambda: session.execute(match), scan_rounds
        ),
        "catalog_similar_scan": _time_workload(
            lambda: session.execute(similar), scan_rounds
        ),
    }
    schema.database.create_text_index(entity.table.name, "title")
    workloads.update({
        "catalog_search": _time_workload(
            lambda: session.execute(match), rounds
        ),
        "catalog_similar": _time_workload(
            lambda: session.execute(similar), rounds
        ),
        "catalog_ranked": _time_workload(
            lambda: session.execute(ranked), rounds
        ),
        "catalog_ranked_topk": _time_workload(
            lambda: session.execute(topk), rounds
        ),
        "catalog_ranked_topk_full": _time_workload(
            lambda: session.execute(topk_full), scan_rounds
        ),
        "catalog_topk_search": _time_workload(
            lambda: session.execute(topk_search), rounds
        ),
    })

    index = entity.table.text_index_for("title")
    dataset = {"rows": row_count, "seed": seed}
    dataset.update(_index_stats(index))
    dataset["rows_visited_indexed"] = _rows_visited(session, match)
    dataset["rows_visited_topk"] = _rows_visited(session, topk)
    speedup = {
        "catalog_search_p50": (
            workloads["catalog_search_scan"]["p50_s"]
            / workloads["catalog_search"]["p50_s"]
        ),
        "catalog_similar_p50": (
            workloads["catalog_similar_scan"]["p50_s"]
            / workloads["catalog_similar"]["p50_s"]
        ),
        "catalog_ranked_topk_p50": (
            workloads["catalog_ranked_topk_full"]["p50_s"]
            / workloads["catalog_ranked_topk"]["p50_s"]
        ),
    }

    if scale_rows:
        scale_schema = Schema("bench-text-scale")
        scale_entity = load_catalog(scale_schema, scale_rows, seed=seed)
        scale_schema.database.create_text_index(
            scale_entity.table.name, "title"
        )
        scale_session = QuelSession(scale_schema)
        scale_session.execute("range of t is TRACK")
        workloads["catalog_scale_search"] = _time_workload(
            lambda: scale_session.execute(topk_search), rounds
        )
        workloads["catalog_scale_ranked_topk"] = _time_workload(
            lambda: scale_session.execute(topk), scan_rounds
        )
        scale_dataset = {"rows": scale_rows, "seed": seed}
        scale_dataset.update(_index_stats(
            scale_entity.table.text_index_for("title")
        ))
        dataset["scale"] = scale_dataset

    report = {
        "benchmark": "text",
        "dataset": dataset,
        "speedup": speedup,
        # The limit-bearing workloads finish in a couple of ms; widen
        # the absolute slack so the regression gate flags real slowdowns
        # rather than single-core scheduler noise.
        "compare": {"min_delta_s": 0.002},
        "workloads": workloads,
        "metrics": session.metrics.snapshot(),
    }
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
                "value": (
                    workloads["catalog_scale_search"]["p50_s"]
                    / workloads["catalog_topk_search"]["p50_s"]
                ),
                "max": 5.0,
            }
        report["gates"] = gates
    return report


# -- storage workloads ----------------------------------------------------------


def storage_report(rounds, row_count=200):
    tempdir = tempfile.mkdtemp(prefix="bench_storage_")
    try:
        workloads = {}

        # Table insert + indexed select through a durable database.
        database = Database(os.path.join(tempdir, "db"))
        table = database.create_table(
            "items", [("k", "integer"), ("v", "string")]
        )
        table.create_index("k")
        counter = [0]

        def insert_rows():
            base = counter[0]
            counter[0] += row_count
            for offset in range(row_count):
                table.insert({"k": base + offset, "v": "value-%d" % offset})

        workloads["table_insert"] = _time_workload(insert_rows, rounds)
        workloads["table_select_eq"] = _time_workload(
            lambda: table.select_eq("k", row_count // 2), rounds
        )

        # COPY-style bulk load: one BATCH_INSERT frame + one group-commit
        # flush per batch instead of a frame + fsync per row.
        bulk = database.create_table(
            "bulk", [("k", "integer"), ("v", "string")]
        )
        bulk.create_index("k")

        def bulk_ingest():
            base = counter[0]
            counter[0] += row_count
            database.bulk_ingest(
                "bulk",
                [
                    {"k": base + offset, "v": "value-%d" % offset}
                    for offset in range(row_count)
                ],
            )

        workloads["bulk_ingest"] = _time_workload(bulk_ingest, rounds)

        # Group commit under contention: 8 threads auto-commit inserts
        # into their own tables (so strict 2PL does not serialize them)
        # and their flushes coalesce -- wal.commits_per_fsync in the
        # metrics snapshot shows the amortization.
        conc_tables = [
            database.create_table("conc%d" % i, [("k", "integer")])
            for i in range(8)
        ]
        per_thread = max(1, row_count // 40)

        def concurrent_insert():
            def hammer(tab, base):
                for offset in range(per_thread):
                    tab.insert({"k": base + offset})

            base = counter[0]
            counter[0] += per_thread
            threads = [
                threading.Thread(target=hammer, args=(tab, base))
                for tab in conc_tables
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        workloads["concurrent_insert"] = _time_workload(concurrent_insert, rounds)

        # MVCC snapshot reads under write pressure: one writer thread
        # auto-commits updates while 4 scan threads each run pinned
        # snapshot scans.  Timed from the readers' side -- before
        # snapshot reads, this schedule serialized on the table lock.
        mixed = database.create_table(
            "mixed", [("k", "integer"), ("v", "integer")]
        )
        mixed_rows = [mixed.insert({"k": i, "v": 0}) for i in range(row_count)]
        transactions = database.transactions

        def mixed_readers_writers():
            stop = threading.Event()

            def writer():
                i = 0
                while not stop.is_set():
                    mixed.update(mixed_rows[i % len(mixed_rows)].rowid,
                                 {"v": i})
                    i += 1

            def reader():
                for _ in range(3):
                    transactions.pin_snapshot()
                    try:
                        sum(row["v"] for row in mixed)
                    finally:
                        transactions.unpin_snapshot()

            writer_thread = threading.Thread(target=writer)
            readers = [threading.Thread(target=reader) for _ in range(4)]
            writer_thread.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join()
            stop.set()
            writer_thread.join()

        workloads["mixed_readers_writers"] = _time_workload(
            mixed_readers_writers, rounds
        )
        workloads["checkpoint"] = _time_workload(database.checkpoint, rounds)
        metrics_snapshot = database.metrics.snapshot()
        database.close()

        # Raw WAL append/fsync rates.
        wal = WriteAheadLog(os.path.join(tempdir, "bench.wal"))

        def wal_appends():
            for offset in range(row_count):
                wal.append(1, 1)
            wal.flush()

        workloads["wal_append_fsync"] = _time_workload(wal_appends, rounds)
        wal.close()

        # Pager stream write/read.
        pager = Pager(os.path.join(tempdir, "bench.mdm"), capacity=8)
        payload = b"x" * (64 * 1024)
        heads = []

        def stream_write():
            heads.append(pager.write_stream(payload))
            pager.flush()

        workloads["pager_stream_write"] = _time_workload(stream_write, rounds)
        workloads["pager_stream_read"] = _time_workload(
            lambda: pager.read_stream(heads[0]), rounds
        )
        pager.close()

        return {
            "benchmark": "storage",
            "dataset": {"row_count": row_count},
            "workloads": workloads,
            "metrics": metrics_snapshot,
        }
    finally:
        shutil.rmtree(tempdir, ignore_errors=True)


# -- network serving workloads ---------------------------------------------------


def _stats_from_samples(samples):
    """The BENCH stat dict for a list of per-operation latencies."""
    samples = sorted(samples)
    count = len(samples)
    total = sum(samples)
    return {
        "rounds": count,
        "total_s": total,
        "mean_s": total / count,
        "min_s": samples[0],
        "max_s": samples[-1],
        "p50_s": samples[count // 2],
        "p99_s": samples[min(count - 1, (count * 99) // 100)],
    }


def _swarm_worker(argv):
    """Child-process entry point (``--swarm-worker``): one retrieve
    client hammering the server; emits latency samples as JSON."""
    port, replica_ports, ops = argv[0], argv[1], int(argv[2])
    from repro.errors import MDMError
    from repro.net import MdmClient

    replicas = [
        ("127.0.0.1", int(p)) for p in replica_ports.split(",") if p
    ]
    client = MdmClient(
        ("127.0.0.1", int(port)), replicas=replicas,
        client_id="swarm-%d" % os.getpid(), default_timeout=5.0,
    )
    latencies, ok, shed = [], 0, 0
    try:
        client.execute("range of n is NOTE")
        for _ in range(ops):
            started = time.perf_counter()
            try:
                client.retrieve("retrieve (n.degree) where n.degree >= 0")
            except MDMError:
                shed += 1
                continue
            ok += 1
            latencies.append(time.perf_counter() - started)
    finally:
        client.close()
    json.dump({"lat": latencies, "ok": ok, "shed": shed}, sys.stdout)
    return 0


def _run_swarm(port, replica_ports, clients, ops_per_client):
    """Launch *clients* worker processes; returns merged results."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"
    )
    env["PYTHONPATH"] = os.path.abspath(src)
    command = [
        sys.executable, os.path.abspath(__file__), "--swarm-worker",
        str(port), ",".join(str(p) for p in replica_ports),
        str(ops_per_client),
    ]
    procs = [
        subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
        for _ in range(clients)
    ]
    latencies, ok, shed = [], 0, 0
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("swarm worker exited %d" % proc.returncode)
        result = json.loads(out.decode("utf-8"))
        latencies.extend(result["lat"])
        ok += result["ok"]
        shed += result["shed"]
    return latencies, ok, shed


def net_report(clients=4, ops_per_client=30, row_count=60):
    """The client-swarm serving benchmark: per-retrieve latency and shed
    rate with every client in its own OS process, primary-only vs.
    primary plus two WAL-shipped replicas (retrieves fan out)."""
    from repro.mdm.manager import MusicDataManager
    from repro.net import MdmServer, ReplicaServer

    tempdir = tempfile.mkdtemp(prefix="bench_net_")
    workloads = {}
    metrics_snapshot = {}
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
                latencies, ok, shed = _run_swarm(
                    server.address[1],
                    [r.address[1] for r in replicas],
                    clients, ops_per_client,
                )
                if not latencies:
                    raise RuntimeError(
                        "swarm %r produced no successful retrieves" % label
                    )
                stats = _stats_from_samples(latencies)
                stats["clients"] = clients
                stats["ops_per_client"] = ops_per_client
                stats["shed_rate"] = shed / float(ok + shed)
                workloads[label] = stats
                metrics_snapshot = mdm.database.metrics.snapshot()
            finally:
                for replica in replicas:
                    replica.stop()
                server.stop()
                mdm.close()
        return {
            "benchmark": "net",
            "dataset": {
                "clients": clients, "ops_per_client": ops_per_client,
                "row_count": row_count,
            },
            # Swarm latencies are a few ms and swing with machine load;
            # widen the absolute slack so the gate catches gross
            # serving regressions without flagging scheduler noise.
            "compare": {"min_delta_s": 0.003},
            "workloads": workloads,
            "metrics": metrics_snapshot,
        }
    finally:
        shutil.rmtree(tempdir, ignore_errors=True)


# -- report validation / entry point --------------------------------------------

_STAT_KEYS = {"rounds", "total_s", "mean_s", "min_s", "max_s", "p50_s"}


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
        if stats["rounds"] < 1 or stats["total_s"] < 0:
            raise ValueError("workload %r has nonsense stats" % name)
    for name, gate in report.get("gates", {}).items():
        if "value" not in gate or not ({"min", "max"} & set(gate)):
            raise ValueError("gate %r needs a value and a min/max bound" % name)
    json.dumps(report)  # must be serializable
    return report


def check_gates(report):
    """Check a report's hard perf ``gates``.

    Unlike the baseline comparison (relative: this run vs a committed
    run), gates are absolute claims a report makes about itself -- the
    top-k operator is >=10x its materialize-then-sort ablation, the
    1M-row search p50 is <=5x the 120k one.  Returns human-readable
    failure lines (empty means every gate holds).
    """
    failures = []
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
        gates = report.get("gates")
        if not gates:
            continue
        failures = check_gates(report)
        if failures:
            failed = True
            print("GATE FAILURE in %s report:" % report["benchmark"])
            for line in failures:
                print("  " + line)
        else:
            print(
                "gates OK in %s report (%s)"
                % (
                    report["benchmark"],
                    ", ".join(
                        "%s=%.2f" % (name, gate["value"])
                        for name, gate in sorted(gates.items())
                    ),
                )
            )
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
        help="tiny rounds, validate report shapes, write nothing",
    )
    parser.add_argument(
        "--compare", action="append", default=None, metavar="BASELINE",
        help="compare against a baseline BENCH_*.json (repeatable); "
             "exit nonzero on >25%% p50 regression, write nothing",
    )
    parser.add_argument(
        "--rounds", type=int, default=30,
        help="timing rounds per workload (default 30)",
    )
    parser.add_argument(
        "--out-dir", default=os.path.join(os.path.dirname(__file__), ".."),
        help="directory for BENCH_*.json (default: repository root)",
    )
    parser.add_argument(
        "--scale-rows", type=int, default=1_000_000,
        help="row count for the catalog_scale_* text workloads "
             "(default 1000000; 0 skips the scale suite)",
    )
    parser.add_argument(
        "--swarm-worker", nargs=3, default=None,
        metavar=("PORT", "REPLICA_PORTS", "OPS"),
        help=argparse.SUPPRESS,  # internal: net_report child process
    )
    args = parser.parse_args(argv)

    if args.swarm_worker is not None:
        return _swarm_worker(args.swarm_worker)

    rounds = 2 if args.check else args.rounds
    builders = {
        "quel": lambda: quel_report(
            rounds, chords=8 if args.check else 40,
            notes_per_chord=5 if args.check else 10,
        ),
        "storage": lambda: storage_report(
            rounds, row_count=20 if args.check else 200
        ),
        "text": lambda: text_report(
            rounds, row_count=400 if args.check else 120_000,
            scale_rows=800 if args.check else args.scale_rows,
        ),
        "net": lambda: net_report(
            clients=2 if args.check else 4,
            ops_per_client=5 if args.check else 30,
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
        for kind in ("quel", "storage", "text", "net") if kind in wanted
    }
    if args.check:
        print(
            "bench report check OK (%s workloads)"
            % ", ".join(
                "%d %s" % (len(reports[kind]["workloads"]), kind)
                for kind in ("quel", "storage", "text", "net")
            )
        )
        return 0
    gates_failed = _enforce_gates(reports.values())
    if args.compare:
        status = _run_compare(args.compare, reports)
        return 1 if gates_failed else status
    if gates_failed:
        return 1
    out_dir = os.path.abspath(args.out_dir)
    for kind in ("quel", "storage", "text", "net"):
        path = os.path.join(out_dir, "BENCH_%s.json" % kind)
        write_json(path, reports[kind])
        print("wrote %s:" % os.path.relpath(path, out_dir))
        for name, stats in sorted(reports[kind]["workloads"].items()):
            print("  %-24s mean %.6fs over %d rounds"
                  % (name, stats["mean_s"], stats["rounds"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
