"""One ``cold_open`` cycle: open the database in a fresh process.

Run as ``python3 cold_child.py SRC PATH QUERY TRACE``.  Opens the
directory with ``MusicDataManager(path)``, runs one indexed ``matches``
query, and prints one JSON line: the time to the first query result, what
the database holds (row count, a content hash, the titles the query
found) for the parent to check, and, when TRACE is 1, the layer sums.
It probes its own speed before and after (see ``harness``), because the
parent's probes may run on another processor.
"""

import json
import resource
import statistics
import sys
import time
import zlib

from harness import PROBE_KEEP, PROBE_REF_S, probe


def main(argv):
    src, path, query, trace = argv[1], argv[2], argv[3], argv[4] == "1"
    sys.path.insert(0, src)
    from repro.fixtures.corpus import CATALOG_ATTRIBUTES
    from repro.mdm.manager import MusicDataManager

    tracer = None
    if trace:
        from trace import Tracer  # this directory's, not the stdlib's

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        root = tracer.begin("open")
    probes = [probe() for _ in range(PROBE_KEEP)]
    started, cpu_started = time.perf_counter(), time.process_time()
    mdm = MusicDataManager(path, with_cmn=False)
    recovered = time.perf_counter()
    mdm.schema.define_entity("TRACK", CATALOG_ATTRIBUTES)
    mdm.session.execute("range of t is TRACK")
    rows = mdm.session.execute(
        'retrieve (t.title) where matches(t.title, "%s")' % query
    )
    answered, cpu_answered = time.perf_counter(), time.process_time()
    probes += [probe() for _ in range(PROBE_KEEP)]
    if tracer is not None:
        tracer.end(root)
        tracer.enabled = False
    table = mdm.schema.entity_type("TRACK").table
    content = 0
    for line in sorted(
        "%s|%s|%s" % (row["title"], row["composer"], row["edition"])
        for row in table
    ):
        content = zlib.crc32(line.encode("utf-8"), content)
    report = {
        "open_s": answered - started,
        "open_cpu_s": cpu_answered - cpu_started,
        "speed_factor": statistics.median(probes) / PROBE_REF_S,
        "recover_s": recovered - started,
        "rows": len(table),
        "content_crc": content,
        "found": sorted(row["t.title"] for row in rows),
        "index_bytes": table.text_index_for("title").approx_bytes(),
        "text_searches": mdm.database.metrics.value("text.searches"),
        "text_candidates": mdm.database.metrics.value("text.candidates"),
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    mdm.close()
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv)
