"""A metrics registry: named counters, gauges, and histograms.

Replaces the ad-hoc ``statistics()`` dict plumbing: every layer that
wants a counter asks its registry once (``registry.counter("wal.appends")``)
and increments the returned object directly, with no name lookups.

Counter increments and histogram observations are *lock-free on the
write path*: each lands in a ``collections.deque`` (whose ``append``
and ``popleft`` are single C calls, atomic under the GIL) and is folded
into the running total on read -- or inline once the pending queue
reaches a bound, so an instrument nobody reads stays O(1) in memory.
The fold drains with ``popleft`` under the instrument's mutex, so no
concurrent increment is ever lost: counts stay exact, which the
concurrency and stress suites rely on.  Gauges keep a plain mutex --
``set`` is last-write-wins, so reordering through a queue would change
semantics, and no gauge sits on a per-statement hot path.

For a (counter, histogram) pair updated together -- one statement, one
latency -- a :class:`Tally` combines both writes into a single queue
append, and its drain folds in bulk straight into the instruments'
totals (two lock acquisitions per batch).  The per-statement hot path
in ``repro.quel.executor`` uses one for ``quel.statements`` /
``quel.statement_seconds``.

Histograms use *fixed* bucket boundaries chosen at creation -- the
Prometheus model -- so concurrent observers and exporters never see a
half-resized layout.  The default boundaries suit sub-second latencies
(lock waits, statement times).

Instruments are created on first use and never removed; ``snapshot()``
returns plain data (ints/floats/dicts) safe to serialize or diff.
"""

import threading
from bisect import bisect_left
from collections import deque

#: Pending writes tolerated before a writer folds inline.
_PENDING_BOUND = 2048

#: Default latency boundaries, in seconds (upper-inclusive edges).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing count (lock-free increments)."""

    __slots__ = ("name", "_value", "_pending", "_sources", "_mutex")

    def __init__(self, name):
        self.name = name
        self._value = 0
        self._pending = deque()
        self._sources = ()  # Tally queues that feed this instrument
        self._mutex = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counter %r cannot decrease" % self.name)
        pending = self._pending
        pending.append(amount)
        if len(pending) >= _PENDING_BOUND:
            self._fold()

    def _fold(self):
        with self._mutex:
            pending = self._pending
            value = self._value
            # Bounded drain: popleft never loses a concurrent append,
            # and appends landing mid-drain wait for the next fold.
            for _ in range(len(pending)):
                value += pending.popleft()
            self._value = value

    @property
    def value(self):
        for source in self._sources:
            source.drain()
        if self._pending:
            self._fold()
        return self._value

    def __repr__(self):
        return "Counter(%r=%d)" % (self.name, self.value)


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "_value", "_mutex")

    def __init__(self, name):
        self.name = name
        self._value = 0
        self._mutex = threading.Lock()

    def set(self, value):
        with self._mutex:
            self._value = value

    def inc(self, amount=1):
        with self._mutex:
            self._value += amount

    def dec(self, amount=1):
        with self._mutex:
            self._value -= amount

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return "Gauge(%r=%r)" % (self.name, self._value)


class Histogram:
    """Observations bucketed by fixed upper boundaries.

    ``counts[i]`` counts observations ``<= buckets[i]``; one implicit
    overflow bucket counts the rest.  ``sum``/``count`` give the mean.
    """

    __slots__ = (
        "name", "buckets", "_counts", "_sum", "_count", "_pending",
        "_sources", "_mutex",
    )

    def __init__(self, name, buckets=DEFAULT_BUCKETS):
        boundaries = tuple(buckets)
        if not boundaries:
            raise ValueError("histogram %r needs at least one bucket" % name)
        if list(boundaries) != sorted(boundaries):
            raise ValueError("histogram %r buckets must increase" % name)
        self.name = name
        self.buckets = boundaries
        self._counts = [0] * (len(boundaries) + 1)
        self._sum = 0.0
        self._count = 0
        self._pending = deque()
        self._sources = ()  # Tally queues that feed this instrument
        self._mutex = threading.Lock()

    def observe(self, value):
        pending = self._pending
        pending.append(value)
        if len(pending) >= _PENDING_BOUND:
            self._fold()

    def _fold(self):
        with self._mutex:
            pending = self._pending
            buckets = self.buckets
            counts = self._counts
            for _ in range(len(pending)):
                value = pending.popleft()
                # bisect_left finds the first boundary >= value, i.e.
                # the upper-inclusive bucket; past-the-end is overflow.
                counts[bisect_left(buckets, value)] += 1
                self._sum += value
                self._count += 1

    @property
    def count(self):
        for source in self._sources:
            source.drain()
        if self._pending:
            self._fold()
        return self._count

    @property
    def sum(self):
        for source in self._sources:
            source.drain()
        if self._pending:
            self._fold()
        return self._sum

    @property
    def mean(self):
        count = self.count
        return self._sum / count if count else 0.0

    def snapshot(self):
        for source in self._sources:
            source.drain()
        if self._pending:
            self._fold()
        with self._mutex:
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": {
                    ("le_%g" % b): c
                    for b, c in zip(self.buckets, self._counts)
                },
                "overflow": self._counts[-1],
            }

    def quantile(self, q):
        """Approximate *q*-quantile (0..1) from the bucket boundaries.

        Returns the upper boundary of the bucket containing the
        quantile rank (the overflow bucket reports the top boundary),
        0.0 when empty.  Boundary precision is all a fixed-bucket
        histogram can promise; it is what the bench report's p99 wants.
        """
        count = self.count  # drains sources and folds pending
        if not count:
            return 0.0
        rank = q * count
        with self._mutex:
            seen = 0
            for boundary, bucket_count in zip(self.buckets, self._counts):
                seen += bucket_count
                if seen >= rank:
                    return boundary
            return self.buckets[-1]

    def __repr__(self):
        return "Histogram(%r: n=%d, mean=%.6f)" % (
            self.name, self.count, self.mean
        )


class Tally:
    """One lock-free write feeding a Counter and a Histogram together.

    The per-statement hot path pays a *single* deque append for the
    (count, latency) pair instead of one write per instrument.  Reads
    of either backing instrument drain the shared queue first (each
    popleft moves one observation into both instruments' own lock-free
    write paths), so totals stay exact and the counter always equals
    the histogram's count for values routed through the tally.
    """

    __slots__ = ("counter", "histogram", "_pending")

    def __init__(self, counter, histogram):
        self.counter = counter
        self.histogram = histogram
        self._pending = deque()
        counter._sources += (self,)
        histogram._sources += (self,)

    def observe(self, value):
        pending = self._pending
        pending.append(value)
        if len(pending) >= _PENDING_BOUND:
            self.drain()

    def drain(self):
        pending = self._pending
        drained = []
        # Bounded drain: popleft never loses a concurrent append, and
        # appends landing mid-drain wait for the next drain.  Nothing
        # serializes drainers, so another one may empty the queue under
        # this one: each value still goes to exactly one of them.
        for _ in range(len(pending)):
            try:
                drained.append(pending.popleft())
            except IndexError:
                break
        if not drained:
            return
        # Fold in bulk straight into the instruments' totals: two lock
        # acquisitions per batch instead of two queue writes per value.
        counter = self.counter
        with counter._mutex:
            counter._value += len(drained)
        histogram = self.histogram
        with histogram._mutex:
            counts = histogram._counts
            buckets = histogram.buckets
            total = 0.0
            for value in drained:
                counts[bisect_left(buckets, value)] += 1
                total += value
            histogram._sum += total
            histogram._count += len(drained)

    def __repr__(self):
        return "Tally(%r, %r)" % (self.counter.name, self.histogram.name)


class MetricsRegistry:
    """Named instruments, created on first request.

    Asking twice for the same name returns the same object; asking for
    an existing name as a different instrument kind is an error (it
    would silently fork the metric).
    """

    def __init__(self):
        self._mutex = threading.Lock()
        self._instruments = {}
        self._tallies = {}

    def _get(self, name, kind, factory):
        with self._mutex:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        "metric %r already registered as %s"
                        % (name, type(existing).__name__)
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name):
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name):
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name, buckets=DEFAULT_BUCKETS):
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def tally(self, counter_name, histogram_name):
        """A write-combining :class:`Tally` over the named pair.

        ``tally.observe(seconds)`` counts one event on *counter_name*
        and records its latency on *histogram_name* with a single
        queue write; asking again for the same pair returns the same
        object.
        """
        counter = self.counter(counter_name)
        histogram = self.histogram(histogram_name)
        key = (counter_name, histogram_name)
        with self._mutex:
            existing = self._tallies.get(key)
            if existing is None:
                existing = self._tallies[key] = Tally(counter, histogram)
            return existing

    def names(self):
        with self._mutex:
            return sorted(self._instruments)

    def get(self, name):
        """The instrument registered under *name*, or None."""
        return self._instruments.get(name)

    def value(self, name, default=0):
        """A counter/gauge's value by name (0 when absent)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return instrument.count
        return instrument.value

    def snapshot(self):
        """Plain-data view: name -> int/float (or dict for histograms)."""
        out = {}
        with self._mutex:
            items = list(self._instruments.items())
        for name, instrument in items:
            if isinstance(instrument, Histogram):
                out[name] = instrument.snapshot()
            else:
                out[name] = instrument.value
        return out

    def render(self):
        """Aligned text listing for the shell's ``\\metrics`` command."""
        lines = []
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                lines.append(
                    "%-40s count=%d mean=%.6fs sum=%.6fs"
                    % (name, instrument.count, instrument.mean, instrument.sum)
                )
            else:
                value = instrument.value
                if isinstance(value, float):
                    lines.append("%-40s %.6f" % (name, value))
                else:
                    lines.append("%-40s %s" % (name, value))
        return "\n".join(lines) if lines else "(no metrics recorded)"
