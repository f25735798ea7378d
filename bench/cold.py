"""``cold_open``: what opening a database that was not checkpointed costs.

Set-up loads the catalog, adds acknowledged single-row appends on top and
closes without a checkpoint, so an open replays the whole log.  Each op
is a fresh child process (``cold_child.py``): an in-process reopen leaks
and slows every later cycle.  The parent knows what the directory must
hold and checks the child's report against it.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import zlib

from repro.fixtures.corpus import corpus_rows

from catalog import build_catalog
from harness import BLOCK, Driver, Op, Workload
from metrics import merge_summaries

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
APPEND_PREFIX = "Bench Opus"
CHILD_TIMEOUT_S = 60.0


class ColdOpen(Workload):
    name = "cold_open"
    mix = {"opener": {"open": BLOCK}}
    text_gated = ("open",)

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.tracks = sizes["cold_tracks"]
        self.appends = sizes["cold_appends"]
        self.trace_children = False
        self.reports = []

    # -- set-up (timed by the caller) ---------------------------------------

    def build(self):
        mdm, table, self.facts = build_catalog(
            self.next_path(), self.tracks, self.seed
        )
        try:
            for i in range(self.appends):
                mdm.execute(
                    'append to TRACK (title = "%s %d-%d", composer = "Érik '
                    'Satie", edition = "Durand, 1900", incipit = "!G 22Q")'
                    % (APPEND_PREFIX, self.seed, i)
                )
        finally:
            mdm.close()  # no checkpoint: the next open replays the log
        del mdm, table
        gc.collect()

    # -- after set-up, untimed ----------------------------------------------

    def prepare(self):
        self.expected_found = sorted(
            "%s %d-%d" % (APPEND_PREFIX, self.seed, i)
            for i in range(self.appends)
        )
        lines = [
            "%s|%s|%s" % (row["title"], row["composer"], row["edition"])
            for row in corpus_rows(self.tracks, self.seed)
        ] + ["%s|Érik Satie|Durand, 1900" % title
             for title in self.expected_found]
        self.expected_crc = 0
        for line in sorted(lines):
            self.expected_crc = zlib.crc32(line.encode("utf-8"), self.expected_crc)
        self.expected_rows = self.tracks + self.appends
        self.user_bytes = sum(len(line.encode("utf-8")) for line in lines)
        self.wal_bytes = os.path.getsize(os.path.join(self.path, "wal.log"))
        self.disk_bytes_at_start = self.disk_bytes()
        self.drivers = [
            Driver("opener", self.mix["opener"], self.make_op, self.seed * 100)
        ]

    def sabotage(self):
        self.expected_rows += 1

    def user_bytes_loaded(self):
        return self.user_bytes

    def registries(self):
        return []  # the program runs in the children

    def peak_rss_mb(self):
        return max(report["max_rss_mb"] for report in self.reports)

    def start_tracing(self):
        self.trace_children = True
        self.traced_from = len(self.reports)
        return None  # the children install their own tracers

    def stop_tracing(self):
        self.trace_children = False
        return merge_summaries(
            [r["trace"] for r in self.reports[self.traced_from:] if "trace" in r]
        )

    def layer_facts(self, delta):
        traced = self.reports[self.traced_from:]
        delta["text.searches"] = sum(r["text_searches"] for r in traced)
        delta["text.candidates"] = sum(r["text_candidates"] for r in traced)
        recover_s = statistics.median(r["recover_s"] for r in self.reports)
        return {
            "replay_mb_per_s": self.wal_bytes / recover_s / 1e6,
            "index_bytes_per_row": self.reports[-1]["index_bytes"]
            / self.expected_rows,
        }

    def make_op(self, cls, rng):
        command = [
            sys.executable, os.path.join(HERE, "cold_child.py"), SRC,
            self.path, APPEND_PREFIX, "1" if self.trace_children else "0",
        ]

        def call():
            # run() kills the child and waits for it when the time is up;
            # the TimeoutExpired it raises makes this a failed op.
            done = subprocess.run(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S, cwd=HERE, check=True,
            )
            return json.loads(done.stdout.decode("utf-8").splitlines()[-1])

        def check(report):
            self.reports.append(report)
            return (
                report["rows"] == self.expected_rows
                and report["content_crc"] == self.expected_crc
                and report["found"] == self.expected_found
            )

        return Op(call, check, lambda report: (
            report["open_s"], report["open_cpu_s"], report["speed_factor"]
        ))
