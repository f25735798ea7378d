"""Unit tests for the metrics registry and its instruments."""

import threading
from bisect import bisect_left

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


class TestRatio:
    def test_divides_its_counters_when_read(self):
        registry = MetricsRegistry()
        synced, fsyncs = registry.counter("synced"), registry.counter("fsyncs")
        ratio = registry.ratio("per_fsync", synced, fsyncs)
        assert ratio.value == 0  # no denominator yet
        synced.inc(6)
        fsyncs.inc(4)
        assert ratio.value == 1.5
        assert registry.value("per_fsync") == 1.5
        assert registry.snapshot()["per_fsync"] == 1.5
        assert registry.gauge("per_fsync") is ratio


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
        tally = registry.tally(["stmt"], ["stmt_seconds"])
        histogram = registry.histogram("stmt_seconds")
        cell, at = tally.cell(), tally.slot(histogram)
        for seconds in (0.002, 0.004):
            cell[0] += 1
            cell[at + bisect_left(histogram.buckets, seconds)] += 1
            cell[at + len(histogram.buckets) + 1] += seconds
        assert registry.counter("stmt").value == 2
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.006)
        assert histogram.snapshot()["buckets"]["le_0.0025"] == 1
        assert histogram.quantile(1.0) == 0.005

    def test_one_cell_feeds_every_instrument(self):
        registry = MetricsRegistry()
        tally = registry.tally(["a", "b", "c"])
        cell = tally.cell()
        assert cell is tally.cell()  # one a thread
        cell[0] += 1
        cell[1] += 7
        assert registry.snapshot()["a"] == 1
        assert registry.value("b") == 7
        assert registry.value("c") == 0

    def test_same_pair_same_object(self):
        registry = MetricsRegistry()
        assert registry.tally(["a"], ["b"]) is registry.tally(["a"], ["b"])

    def test_mixes_with_direct_writes(self):
        registry = MetricsRegistry()
        tally = registry.tally(["stmt"], ["stmt_seconds"])
        histogram = registry.histogram("stmt_seconds")
        cell, at = tally.cell(), tally.slot(histogram)
        registry.counter("stmt").inc(3)
        cell[0] += 1
        cell[at + bisect_left(histogram.buckets, 0.001)] += 1
        cell[at + len(histogram.buckets) + 1] += 0.001
        histogram.observe(0.5)
        assert registry.counter("stmt").value == 4
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.501)
        assert histogram.snapshot()["buckets"]["le_0.001"] == 1
        assert histogram.snapshot()["buckets"]["le_0.5"] == 1

    def test_exact_under_concurrency(self):
        registry = MetricsRegistry()
        tally = registry.tally(["stmt"], ["stmt_seconds"])
        counter = registry.counter("stmt")
        histogram = registry.histogram("stmt_seconds")
        at = tally.slot(histogram)
        bucket = at + bisect_left(histogram.buckets, 0.001)
        total = at + len(histogram.buckets) + 1
        per_thread = 5000
        seen = []

        def hammer():
            cell = tally.cell()
            for _ in range(per_thread):
                cell[0] += 1
                cell[bucket] += 1
                cell[total] += 0.001
                counter.inc()  # the counter's own cell
                histogram.observe(0.002)
            seen.append(counter.value)  # a live read

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 2 * 4 * per_thread
        assert histogram.count == 2 * 4 * per_thread
        assert histogram.sum == pytest.approx(4 * per_thread * 0.003)
        buckets = histogram.snapshot()["buckets"]
        assert buckets["le_0.001"] == buckets["le_0.0025"] == 4 * per_thread
        assert all(
            2 * per_thread <= value <= 2 * 4 * per_thread for value in seen
        )
        # Every ended thread's cell is folded: only this thread's is left.
        assert [writer() for writer, _ in tally._entries] == [
            threading.current_thread()
        ]

    def test_an_owned_cell_counts_until_its_owner_is_gone(self):
        class Owner:
            pass

        registry = MetricsRegistry()
        tally = registry.tally(["grants"])
        owner = Owner()
        tally.owned_cell(owner)[0] += 5
        registry.counter("grants").inc(2)
        assert registry.value("grants") == 7
        del owner  # its cell is folded into the totals, not lost
        assert registry.value("grants") == 7
        assert len(tally._entries) == 1  # this thread's cell alone

    def test_a_racing_drain_may_take_values_from_under_this_one(self):
        """Readers racing to fold the cells of ended threads each fold a
        cell once: the totals neither lose nor double a count."""
        registry = MetricsRegistry()
        tally = registry.tally(["stmt"])
        counter = registry.counter("stmt")
        for round_ in range(20):
            writers = [
                threading.Thread(target=lambda: tally.cell().__setitem__(0, 1))
                for _ in range(8)
            ]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join()
            reads = []
            readers = [
                threading.Thread(target=lambda: reads.append(counter.value))
                for _ in range(4)
            ]
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join()
            assert reads == [8 * (round_ + 1)] * 4


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
