"""Concurrent clients over one MDM: the section 2 concurrency-control
requirement exercised through the public stack."""

import threading
from fractions import Fraction

import pytest

from repro.errors import RetryExhaustedError
from repro.mdm import MdmSession, MusicDataManager


class TestConcurrentClients:
    def test_parallel_transactions_all_commit(self):
        """Several threads each insert their own scores transactionally;
        wait-die aborts are retried through the service layer's jittered
        backoff, so a younger transaction does not spend its budget while
        the older lock holder waits for the processor; every insert lands
        exactly once."""
        mdm = MusicDataManager()
        threads = 4
        per_thread = 10
        errors = []

        def worker(worker_index):
            session = MdmSession(mdm, name="worker-%d" % worker_index,
                                 seed=worker_index, max_attempts=20)
            for item in range(per_thread):
                title = "w%d-%d" % (worker_index, item)
                try:
                    session.run(
                        lambda m, title=title: m.cmn.SCORE.create(
                            title=title, catalogue_id=""
                        ),
                        timeout=30.0,
                    )
                except RetryExhaustedError:
                    errors.append("worker %d starved" % worker_index)

        pool = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert errors == []
        assert mdm.cmn.SCORE.count() == threads * per_thread
        titles = {score["title"] for score in mdm.cmn.SCORE.instances()}
        assert len(titles) == threads * per_thread

    def test_aborted_thread_leaves_no_trace(self):
        mdm = MusicDataManager()
        started = threading.Event()
        finish = threading.Event()

        def aborter():
            txn = mdm.begin()
            mdm.cmn.SCORE.create(title="phantom", catalogue_id="")
            started.set()
            finish.wait(timeout=10)
            txn.abort()

        thread = threading.Thread(target=aborter)
        thread.start()
        started.wait(timeout=10)
        finish.set()
        thread.join(timeout=10)
        assert mdm.cmn.SCORE.count() == 0

    def test_threads_have_independent_transactions(self):
        """begin() is thread-local: two threads can hold transactions at
        once without tripping the nested-begin guard."""
        mdm = MusicDataManager()
        barrier = threading.Barrier(2, timeout=10)
        results = []

        def worker(tag):
            with mdm.begin():
                barrier.wait()  # both transactions active simultaneously
                mdm.cmn.ORCHESTRA.create(name=tag)
            results.append(tag)

        pool = [
            threading.Thread(target=worker, args=("t%d" % index,))
            for index in range(2)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=15)
        assert sorted(results) == ["t0", "t1"]
        assert mdm.cmn.ORCHESTRA.count() == 2
