"""Stress matrix: N threads committing through one group-commit leader.

Per-thread tables keep strict 2PL out of the way (no lock conflicts),
so the only shared resource is the WAL's flush point — exactly the
contention group commit amortizes.  The oracle is exactly-once durable
effects: every acknowledged commit's rows exist exactly once, both live
and after a close/reopen recovery.  Every thread's first commit appends,
then meets the others, then flushes, which makes a shared flush (and
therefore riders) a certainty rather than scheduler luck; the slow fsync
keeps later committers queued behind the flush in flight.
"""

import os
import threading
import time

import pytest

from repro.storage.database import Database


class _SlowFsyncFile:
    def __init__(self, handle, delay):
        self._handle = handle
        self._delay = delay

    def fsync(self):
        self._handle.flush()
        time.sleep(self._delay)
        os.fsync(self._handle.fileno())

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False


def slow_opener(delay):
    def _open(path, mode="rb"):
        return _SlowFsyncFile(open(path, mode), delay)
    return _open


@pytest.mark.stress
@pytest.mark.parametrize("thread_count", [2, 4, 8])
def test_concurrent_committers_exactly_once(tmp_path, thread_count):
    commits_each = 8
    db_dir = str(tmp_path / ("db%d" % thread_count))
    database = Database(db_dir, opener=slow_opener(0.005))
    tables = [
        database.create_table("w%d" % i, [("k", "integer"), ("tag", "string")])
        for i in range(thread_count)
    ]
    barrier = threading.Barrier(thread_count)
    errors = []
    metrics = database.metrics
    # The tables' own DDL commits came before; count from here.
    synced, led, rode = (
        metrics.value(name) for name in (
            "wal.commits_synced", "wal.group_commits",
            "wal.group_commit_riders",
        )
    )
    # A leader fsyncs holding the append mutex, so a committer still
    # appending then can only lead a round of its own.  With every
    # first frame in before anyone flushes, the first arrival leads for
    # all of them; the later commits run free.
    appended = threading.Barrier(thread_count)
    first = threading.local()
    commit_flush = database._log.commit_flush

    def flush_first_together(lsn, deadline=None):
        if not getattr(first, "met", False):
            first.met = True
            appended.wait(10.0)
        return commit_flush(lsn, deadline=deadline)

    database._log.commit_flush = flush_first_together

    def committer(index):
        table = tables[index]
        try:
            barrier.wait()
            for k in range(commits_each):
                # Alternate explicit transactions and auto-commits:
                # both routes end at the same group-commit barrier.
                if k % 2 == 0:
                    with database.begin():
                        table.insert({"k": k, "tag": "txn"})
                else:
                    table.insert({"k": k, "tag": "auto"})
        except BaseException as error:
            errors.append((index, error))

    threads = [
        threading.Thread(target=committer, args=(i,))
        for i in range(thread_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    del database._log.commit_flush
    assert not errors, "unexpected worker errors: %r" % errors

    total_commits = thread_count * commits_each
    assert metrics.value("wal.commits_synced") - synced == total_commits
    if thread_count >= 4:
        # Enough committers pile up behind the in-flight flush that the
        # next leader must cover several of them: fewer fsyncs than
        # commits were paid.  (Two threads can legally alternate
        # leadership with nobody left over to ride.)
        leaders = metrics.value("wal.group_commits") - led
        assert 0 < leaders < total_commits
        assert metrics.value("wal.group_commit_riders") - rode >= 1

    # Exactly-once, live.
    for index, table in enumerate(tables):
        keys = sorted(r["k"] for r in table)
        assert keys == list(range(commits_each)), (
            "table w%d: %r" % (index, keys)
        )
    database.close()

    # Exactly-once, recovered (every acknowledged commit was durable).
    recovered = Database(db_dir)
    try:
        for index in range(thread_count):
            keys = sorted(r["k"] for r in recovered.table("w%d" % index))
            assert keys == list(range(commits_each)), (
                "recovered w%d: %r" % (index, keys)
            )
    finally:
        recovered.close()
