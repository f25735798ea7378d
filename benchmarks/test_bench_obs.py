"""Guard: disabled-tracing instrumentation stays under 3% of statement cost.

With no trace sink attached, the executor's hot path hoists one
``tracing_active()`` check per span site and skips the span (and its
attribute records) entirely; metric updates are lock-free deque
appends folded on read.  This benchmark measures the exact
per-statement instrumentation sequence of a warm compiled statement --
shape-cache hit (no parse), plan hit -- in isolation and
compares it to the latency of the *cheapest* instrumented statement
(indexed equality retrieve, now compiled and cached: the worst case
for relative overhead), asserting the ratio stays under the 3% budget
the observability layer promises.
"""

import time

import pytest

from repro.core.schema import Schema
from repro.obs.trace import (
    NOOP_SPAN,
    get_tracer,
    span,
    tracing_active,
    uninstall_tracer,
)
from repro.quel.executor import QuelSession

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


def test_noop_instrumentation_overhead_under_3_percent(populated):
    uninstall_tracer()
    assert get_tracer() is None

    session = QuelSession(populated)
    session.execute("range of n is NOTE")
    source = "retrieve (n.pitch) where n.n = 250"
    rows = session.execute(source)  # warm caches and the adaptive index
    assert len(rows) == 1
    assert "index" in session.last_plan

    statement_s = _per_call_seconds(lambda: session.execute(source), 200)

    rows_returned = session.metrics.counter("quel.rows_returned")
    statement_hits = session.metrics.counter("quel.cache.statement_hits")
    plan_hits = session.metrics.counter("quel.cache.hits")
    statement_tally = session.metrics.tally(
        "quel.statements", "quel.statement_seconds"
    )

    def instrumentation_cycle():
        # Mirrors exactly what one warm execute() pays with no sink
        # attached: a shape-cache hit (no parse span), a plan hit,
        # one hoisted tracing_active() check per span site
        # (statement, plan, scan -- each skipped along with its
        # records and finishes), and the per-statement metric updates
        # (two cache counters, one row counter, one write-combined
        # count+latency tally).
        statement_hits.inc()
        statement_span = (
            span("quel.statement", kind="RetrieveStatement")
            if tracing_active()
            else NOOP_SPAN
        )
        started = time.monotonic()
        plan_hits.inc()
        plan_span = span("quel.plan") if tracing_active() else NOOP_SPAN
        if plan_span is not NOOP_SPAN:
            plan_span.record("label", "index")
            plan_span.record("candidates", 1)
            plan_span.record("index_hits", 1)
        if plan_span is not NOOP_SPAN:
            plan_span.finish()
        scan_span = (
            span("quel.scan", variables=1) if tracing_active() else NOOP_SPAN
        )
        if scan_span is not NOOP_SPAN:
            scan_span.record("rows_out", 1)
            scan_span.finish()
        if statement_span is not NOOP_SPAN:
            statement_span.finish()
        statement_tally.observe(time.monotonic() - started)
        rows_returned.inc(1)

    overhead_s = _per_call_seconds(instrumentation_cycle, 5000)

    ratio = overhead_s / statement_s
    assert ratio < 0.03, (
        "no-sink instrumentation costs %.2f%% of an indexed retrieve "
        "(%.3fus of %.3fus); budget is 3%%"
        % (ratio * 100.0, overhead_s * 1e6, statement_s * 1e6)
    )
