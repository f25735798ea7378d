"""Unit tests for JSON export of traces and metrics."""

import json

from repro.obs.export import (
    metrics_to_dict,
    metrics_to_json,
    span_to_dict,
    tracer_to_dict,
    traces_to_json,
    write_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class SteppingClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        value = self.now
        self.now += 0.5
        return value


def _sample_tracer():
    tracer = Tracer(clock=SteppingClock())
    root = tracer.span("quel.statement", kind="RetrieveStatement")
    tracer.span("quel.plan").record("label", "index").finish()
    tracer.span("quel.scan").add("rows_visited", 3).finish()
    root.finish()
    return tracer, root


def test_span_to_dict_shape():
    tracer, root = _sample_tracer()
    data = span_to_dict(root)
    assert data["name"] == "quel.statement"
    assert data["attrs"] == {"kind": "RetrieveStatement"}
    assert data["duration_s"] == root.duration
    names = [child["name"] for child in data["children"]]
    assert names == ["quel.plan", "quel.scan"]
    # Child offsets are relative to the root's start.
    assert data["children"][0]["offset_s"] == 0.5
    assert data["children"][1]["offset_s"] == 1.5


def test_tracer_to_dict_and_json():
    tracer, _ = _sample_tracer()
    data = tracer_to_dict(tracer)
    assert data["capacity"] == tracer.capacity
    assert data["dropped"] == 0
    assert len(data["traces"]) == 1
    parsed = json.loads(traces_to_json(tracer))
    assert parsed["traces"][0]["name"] == "quel.statement"


def test_metrics_export():
    registry = MetricsRegistry()
    registry.counter("wal.fsyncs").inc(9)
    registry.histogram("quel.statement_seconds").observe(0.003)
    assert metrics_to_dict(registry) == registry.snapshot()
    parsed = json.loads(metrics_to_json(registry))
    assert parsed["wal.fsyncs"] == 9
    assert parsed["quel.statement_seconds"]["count"] == 1


def test_write_json(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": 2, "a": 1})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": 2}
    # sort_keys makes the output deterministic
    assert text.index('"a"') < text.index('"b"')
