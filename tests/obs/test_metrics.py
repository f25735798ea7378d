"""Unit tests for the metrics registry and its instruments."""

import threading
from collections import deque

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_bucket_placement(self):
        histogram = Histogram("h", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"le_0.001": 1, "le_0.01": 1, "le_0.1": 1}
        assert snap["overflow"] == 1
        assert snap["sum"] == pytest.approx(5.0555)

    def test_boundary_is_upper_inclusive(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(1.0)
        assert histogram.snapshot()["buckets"]["le_1"] == 1

    def test_mean(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        histogram.observe(0.2)
        histogram.observe(0.4)
        assert histogram.mean == pytest.approx(0.3)
        assert histogram.count == 2

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.5, 0.1))

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestTally:
    def test_one_write_feeds_both_instruments(self):
        registry = MetricsRegistry()
        tally = registry.tally("stmt", "stmt_seconds")
        tally.observe(0.002)
        tally.observe(0.004)
        assert registry.counter("stmt").value == 2
        histogram = registry.histogram("stmt_seconds")
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.006)
        assert histogram.snapshot()["buckets"]["le_0.0025"] == 1

    def test_same_pair_same_object(self):
        registry = MetricsRegistry()
        assert registry.tally("a", "b") is registry.tally("a", "b")

    def test_mixes_with_direct_writes(self):
        registry = MetricsRegistry()
        tally = registry.tally("stmt", "stmt_seconds")
        registry.counter("stmt").inc(3)
        tally.observe(0.001)
        registry.histogram("stmt_seconds").observe(0.5)
        assert registry.counter("stmt").value == 4
        assert registry.histogram("stmt_seconds").count == 2

    def test_exact_under_concurrency(self):
        registry = MetricsRegistry()
        tally = registry.tally("stmt", "stmt_seconds")
        per_thread = 5000

        def hammer():
            for _ in range(per_thread):
                tally.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("stmt").value == 4 * per_thread
        assert registry.histogram("stmt_seconds").count == 4 * per_thread


    def test_a_racing_drain_may_take_values_from_under_this_one(self):
        """Two threads crossing the pending bound together both drain;
        the loser used to die of ``IndexError: pop from an empty
        deque`` inside whatever statement it was finishing."""
        class OneStolen(deque):
            # As if another drainer popped one after the length read.
            def __len__(self):
                return super().__len__() + 1

        registry = MetricsRegistry()
        tally = registry.tally("stmt", "stmt_seconds")
        tally._pending = OneStolen([0.001, 0.002])
        tally.drain()
        assert registry.counter("stmt").value == 2
        assert registry.histogram("stmt_seconds").count == 2


class TestRegistry:
    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        assert registry.names() == ["aa", "zz"]

    def test_value_by_name(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat").observe(0.1)
        assert registry.value("hits") == 3
        assert registry.value("lat") == 1  # histograms report their count
        assert registry.value("missing") == 0
        assert registry.value("missing", default=None) is None
        assert registry.get("hits") is registry.counter("hits")
        assert registry.get("missing") is None

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(7)
        registry.histogram("h").observe(0.002)
        snap = registry.snapshot()
        assert snap["c"] == 1 and snap["g"] == 7
        assert snap["h"]["count"] == 1 and "buckets" in snap["h"]

    def test_render(self):
        registry = MetricsRegistry()
        assert registry.render() == "(no metrics recorded)"
        registry.counter("wal.appends").inc(2)
        registry.histogram("lock.wait_seconds").observe(0.01)
        text = registry.render()
        assert "wal.appends" in text and "2" in text
        assert "lock.wait_seconds" in text and "count=1" in text
