"""Tier-1 guard for the benchmark's patch points.

``bench/trace.py`` takes its spans from outside by replacing the public
callables named in ``TARGETS``; ``bench/test_smoke.py`` is not part of
tier-1, so without this a ``src/`` refactor could rename one of them and
nothing would fail until a traced benchmark run crashed (a missing
attribute) or silently reported zeros (a call that moved to another
module's globals).
"""

import collections
import importlib
import importlib.util
import threading
from pathlib import Path

import pytest

from repro.core.ordering import Ordering
from repro.core.schema import Schema
from repro.mdm.manager import MusicDataManager
from repro.net import MdmClient, MdmServer
from repro.quel import executor

TRACE_PY = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves(targets):
    assert targets
    for module_name, owner_name, attribute, _span in targets:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        assert callable(getattr(owner, attribute)), (
            "bench/trace.py wraps %s.%s.%s, which no longer exists"
            % (module_name, owner_name, attribute)
        )


def test_execute_reaches_parse_and_compile_through_executor_globals(
    targets, monkeypatch
):
    wrapped = {(m, o, a) for m, o, a, _ in targets}
    calls = {"parse_quel": 0, "compile_statement": 0}
    for name in calls:
        assert ("repro.quel.executor", None, name) in wrapped
        original = getattr(executor, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(executor, name, counting)

    schema = Schema("bench-targets")
    schema.define_entity("NOTE", [("n", "integer")])
    schema.entity_type("NOTE").create(n=1)
    session = executor.QuelSession(schema)
    # A statement text (and shape) no session or plan cache has seen.
    assert session.execute("retrieve (NOTE.n) where NOTE.n + 41 = 42") == [
        {"NOTE.n": 1}
    ]
    assert calls == {"parse_quel": 1, "compile_statement": 1}


def test_an_order_range_retrieve_reaches_a_wrapped_ordering_read(
    targets, monkeypatch
):
    """``core.ordering_read_us`` is the time inside the ``Ordering``
    readers the tracer wraps.  Every one of them is a front for
    ``Ordering.walk``; an executor that called ``walk`` itself would
    answer the same rows and a traced run would report zero."""
    calls = collections.Counter()
    for _module, owner, name, span in targets:
        if owner != "Ordering" or not span.startswith("core.ordering_read."):
            continue
        original = getattr(Ordering, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Ordering, name, counting)

    schema = Schema("bench-targets")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity("NOTE", [("n", "integer")])
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    chord = schema.entity_type("CHORD").create(n=0)
    ordering.extend(
        chord, [schema.entity_type("NOTE").create(n=i) for i in range(3)]
    )
    session = executor.QuelSession(schema)
    session.execute("range of a, b is NOTE\nrange of c is CHORD")
    for where in ("a under c in o and c.n = 0", "a before b in o and b.n = 2",
                  "a after b in o and b.n = 0"):
        calls.clear()
        assert len(session.execute("retrieve (a.n) where " + where)) >= 2
        assert session.last_plan_object.label == "index+order range"
        assert any(name.startswith("member_rows_") for name in calls), (
            "%r ran outside every callable bench/trace.py wraps: %r"
            % (where, dict(calls))
        )


def test_a_served_connection_runs_on_the_thread_name_the_bench_looks_for():
    """``bench/catalog.py::connect`` finds the thread that works for a
    client by this name; renamed, it would find none and the
    reference-speed scaling would silently lose the server's CPU time."""
    with MusicDataManager() as mdm, MdmServer(mdm) as server:
        before = set(threading.enumerate())
        with MdmClient(server.address) as client:
            client.execute("range of n is NOTE")
            serving = [
                thread for thread in threading.enumerate()
                if thread not in before and thread.name == "mdm-server-conn"
            ]
            assert len(serving) == 1
