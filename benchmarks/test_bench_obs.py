"""Guard: disabled-tracing instrumentation stays under 3% of statement cost.

With no trace sink attached, the executor's hot path hoists one
``tracing_active()`` check per span site and skips the span (and its
attribute records) entirely; a statement's counts are kept in plain
slots of the thread's cell, summed on read.  This benchmark measures
the exact per-statement instrumentation sequence of a warm compiled statement --
shape-cache hit (no parse), plan hit -- in isolation and
compares it to the latency of the *cheapest* instrumented statement
(indexed equality retrieve, now compiled and cached: the worst case
for relative overhead), asserting the ratio stays under the 3% budget
the observability layer promises.
"""

import time
from bisect import bisect_left

import pytest

from repro.core.schema import Schema
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.trace import (
    NOOP_SPAN,
    get_tracer,
    span,
    tracing_active,
    uninstall_tracer,
)
from repro.quel import sources
from repro.quel.sources import (
    FETCHED, PLAN_HITS, RETURNED, STATEMENT_HITS, STATEMENTS,
)
from repro.quel.executor import QuelSession
from repro.storage.lock import LockManager

pytestmark = pytest.mark.obs_smoke


@pytest.fixture(scope="module")
def populated():
    schema = Schema("obsbench")
    schema.define_entity(
        "NOTE", [("n", "integer"), ("pitch", "integer")]
    )
    for index in range(400):
        schema.entity_type("NOTE").create(n=index, pitch=40 + index % 48)
    return schema


def _per_call_seconds(fn, calls, repeats=5):
    """Best-of-*repeats* mean seconds per call of ``fn``."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = (time.perf_counter() - started) / calls
        if best is None or elapsed < best:
            best = elapsed
    return best


def _warm_session(schema):
    """A session whose indexed equality retrieve hits every cache."""
    session = QuelSession(schema)
    session.execute("range of n is NOTE")
    source = "retrieve (n.pitch) where n.n = 250"
    # The first run builds the adaptive index, which bumps the epoch:
    # the second misses the plan cache once more, and later ones hit.
    for _ in range(2):
        rows = session.execute(source)
    assert len(rows) == 1
    assert "index" in session.last_plan
    return session, source


def _instrumentation_cycle(metrics):
    """Mirrors exactly what one warm execute() pays with no sink
    attached: one hoisted tracing_active() check that every span site
    (statement, plan, scan) reads, each span skipped with its records
    and finishes; the table lock's grant; and the statement's counts
    -- a shape-cache hit (no parse span), a plan hit, the rows fetched
    and returned, the statement and its latency -- added into the
    thread's Accounting slots."""
    grants = LockManager(metrics=metrics)
    tally = sources.statement_tally(metrics)
    seconds = metrics.histogram("quel.statement_seconds")
    at = tally.slot(seconds)
    latency = (at, seconds.buckets, at + len(seconds.buckets) + 1)
    accounting = sources.Accounting(tally.cell())

    def cycle():
        accounting.limits = None
        accounting.counts[STATEMENT_HITS] += 1
        tracing = accounting.tracing = tracing_active()
        statement_span = (
            span("quel.statement", kind="RetrieveStatement")
            if tracing else NOOP_SPAN
        )
        started = time.monotonic()
        accounting.counts[PLAN_HITS] += 1
        plan_span = span("quel.plan") if accounting.tracing else NOOP_SPAN
        if plan_span is not NOOP_SPAN:
            plan_span.record("label", "index")
            plan_span.record("candidates", 1)
            plan_span.record("index_hits", 1)
        if plan_span is not NOOP_SPAN:
            plan_span.finish()
        grants._granted[0] += 1  # under the grant's own condition
        scan_span = (
            span("quel.scan", variables=1) if accounting.tracing else NOOP_SPAN
        )
        accounting.counts[FETCHED] += 1  # the pull's one chunk
        if accounting.limits is not None:
            accounting.limits.fetched += 1
        if scan_span is not NOOP_SPAN:
            scan_span.record("rows_out", 1)
            scan_span.finish()
        accounting.counts[RETURNED] += 1
        if statement_span is not NOOP_SPAN:
            statement_span.finish()
        elapsed = time.monotonic() - started
        counts, (at_, buckets, total) = accounting.counts, latency
        counts[STATEMENTS] += 1
        counts[at_ + bisect_left(buckets, elapsed)] += 1
        counts[total] += elapsed

    return cycle


def _recorded(write, writes):
    def recorded(instrument, *args):
        writes.append((type(instrument).__name__, write.__name__,
                       instrument.name))
        return write(instrument, *args)
    return recorded


def test_the_mirror_makes_the_writes_of_a_warm_retrieve(populated, monkeypatch):
    """The timed mirror stays a copy of the path it stands for: one warm
    retrieve and one mirror cycle write the same instruments, the same
    number of times, and add the same counts to the same slots."""
    writes = []
    for kind, methods in (
        (Counter, ("inc",)), (Gauge, ("set", "inc", "dec")),
        (Histogram, ("observe",)),
    ):
        for method in methods:
            monkeypatch.setattr(
                kind, method, _recorded(getattr(kind, method), writes)
            )
    session, source = _warm_session(populated)
    metrics = session.metrics
    cell = sources.statement_tally(metrics).cell()
    width = len(sources.STATEMENT_COUNTERS)

    def counted(run):
        """The instrument writes *run* makes, and what it adds to the
        thread's Accounting slots (each count, and the latencies) and
        to the lock grants."""
        before, grants = list(cell), metrics.value("lock.grants")
        del writes[:]
        run()
        added = [after - was for after, was in zip(cell, before)]
        return (sorted(writes), added[:width], sum(added[width:-1]),
                metrics.value("lock.grants") - grants)

    assert counted(lambda: session.execute(source)) == counted(
        _instrumentation_cycle(metrics)
    )


def test_noop_instrumentation_overhead_under_3_percent(populated):
    uninstall_tracer()
    assert get_tracer() is None

    session, source = _warm_session(populated)
    statement_s = _per_call_seconds(lambda: session.execute(source), 200)
    overhead_s = _per_call_seconds(_instrumentation_cycle(session.metrics), 5000)

    ratio = overhead_s / statement_s
    assert ratio < 0.03, (
        "no-sink instrumentation costs %.2f%% of an indexed retrieve "
        "(%.3fus of %.3fus); budget is 3%%"
        % (ratio * 100.0, overhead_s * 1e6, statement_s * 1e6)
    )
