"""A metrics registry: named counters, gauges, and histograms.

Replaces the ad-hoc ``statistics()`` dict plumbing: every layer that
wants a counter asks its registry once (``registry.counter("wal.appends")``)
and increments the returned object directly, with no name lookups.

Counts have one mechanism, the :class:`Tally`: each writing thread adds
into a cell of its own, a plain list with a slot per count, with no
lock or queue; a read sums the cells.  Only its thread writes a cell,
so no add is ever lost: counts stay exact, which the concurrency and
stress suites rely on.  Each counter and histogram writes through a
tally of its own (``inc`` / ``observe`` add into the calling thread's
cell).  Instruments updated together -- one statement's counts and its
latency, one request's frames -- share a tally whose cell a hot path
takes once and adds into with no call per count: ``repro.quel.executor``
counts each statement's ``quel.*`` and ``text.*`` counts and its
latency through one, and the network server each request's ``net.*``
counts.  A writer that already serializes its adds under a lock of its
own (the lock manager's grants) owns a cell instead of a thread.

A gauge is last-write-wins, so summing cells would change its
semantics: ``set`` is one attribute store, and ``inc`` / ``dec``, which
read first, hold the gauge's mutex (a gauge is either set or moved,
never both).  A :class:`Ratio` is a gauge no one writes: it divides two
counters when it is read.

Histograms use *fixed* bucket boundaries chosen at creation -- the
Prometheus model -- so concurrent observers and exporters never see a
half-resized layout.  The default boundaries suit sub-second latencies
(lock waits, statement times).

Instruments are created on first use and never removed; ``snapshot()``
returns plain data (ints/floats/dicts) safe to serialize or diff.
"""

import threading
import weakref
from bisect import bisect_left

#: Default latency boundaries, in seconds (upper-inclusive edges).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing count (each thread adds into a cell)."""

    __slots__ = ("name", "_sources", "_cells")

    def __init__(self, name):
        self.name = name
        self._sources = ()  # the Tallies whose cells hold its counts
        self._cells = Tally([self]).cells

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counter %r cannot decrease" % self.name)
        self._cells.cell[0] += amount

    @property
    def value(self):
        return sum(source.total(self) for source in self._sources)

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
        # One attribute store is atomic; inc and dec read first.
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


class Ratio(Gauge):
    """A gauge that reads one counter's value over another's (0 while
    the second reads 0), computed when read: the counters' writers pay
    nothing for it."""

    __slots__ = ("_numerator", "_denominator")

    def __init__(self, name, numerator, denominator):
        super().__init__(name)
        self._numerator = numerator
        self._denominator = denominator

    @property
    def value(self):
        denominator = self._denominator.value
        return self._numerator.value / denominator if denominator else 0

    def __repr__(self):
        return "Ratio(%r=%r)" % (self.name, self.value)


class Histogram:
    """Observations bucketed by fixed upper boundaries.

    ``counts[i]`` counts observations ``<= buckets[i]``; one implicit
    overflow bucket counts the rest.  ``sum``/``count`` give the mean.
    """

    __slots__ = ("name", "buckets", "_sources", "_cells")

    def __init__(self, name, buckets=DEFAULT_BUCKETS):
        boundaries = tuple(buckets)
        if not boundaries:
            raise ValueError("histogram %r needs at least one bucket" % name)
        if list(boundaries) != sorted(boundaries):
            raise ValueError("histogram %r buckets must increase" % name)
        self.name = name
        self.buckets = boundaries
        self._sources = ()  # the Tallies whose cells hold its observations
        self._cells = Tally([self]).cells

    def observe(self, value):
        cell = self._cells.cell
        # bisect_left finds the first boundary >= value, i.e. the
        # upper-inclusive bucket; past-the-end is overflow.  The sum is
        # the cell's last slot.
        cell[bisect_left(self.buckets, value)] += 1
        cell[-1] += value

    def _totals(self):
        """``(bucket counts, sum)`` over every Tally that feeds it."""
        counts, total = [0] * (len(self.buckets) + 1), 0.0
        for source in self._sources:
            fed, fed_sum = source.total(self)
            counts = [a + b for a, b in zip(counts, fed)]
            total += fed_sum
        return counts, total

    @property
    def count(self):
        return sum(self._totals()[0])

    @property
    def sum(self):
        return self._totals()[1]

    @property
    def mean(self):
        counts, total = self._totals()
        count = sum(counts)
        return total / count if count else 0.0

    def snapshot(self):
        counts, total = self._totals()
        return {
            "count": sum(counts),
            "sum": total,
            "buckets": {
                ("le_%g" % b): c for b, c in zip(self.buckets, counts)
            },
            "overflow": counts[-1],
        }

    def quantile(self, q):
        """Approximate *q*-quantile (0..1) from the bucket boundaries.

        Returns the upper boundary of the bucket containing the
        quantile rank (the overflow bucket reports the top boundary),
        0.0 when empty.  Boundary precision is all a fixed-bucket
        histogram can promise; it is what the bench report's p99 wants.
        """
        counts, _ = self._totals()
        count = sum(counts)
        if not count:
            return 0.0
        rank = q * count
        seen = 0
        for boundary, bucket_count in zip(self.buckets, counts):
            seen += bucket_count
            if seen >= rank:
                return boundary
        return self.buckets[-1]

    def __repr__(self):
        return "Histogram(%r: n=%d, mean=%.6f)" % (
            self.name, self.count, self.mean
        )


class _Cells(threading.local):
    """``cell``: a tally's cell for the calling thread, made and
    registered the first time the thread reads it."""

    def __init__(self, tally):
        self.cell = tally._register(threading.current_thread())


class Tally:
    """Instruments written together, each thread into a cell of its own.

    A thread's cell (:meth:`cell`) is a list with a slot per counter
    and, per histogram, a slot per bucket and one for the sum.  Its
    thread adds into it with plain list stores: no lock, no queue, no
    call per count.  Only its thread writes a cell, so no add is ever
    lost.  An owner that serializes its adds under a lock of its own
    may hold a cell instead (:meth:`owned_cell`).  A read of a backing
    instrument sums the cells under the tally's mutex, after folding
    each cell whose thread has ended (or whose owner is gone) into the
    tally's totals and dropping it: the cells are as many as the
    writers still running, and counts stay exact.
    """

    __slots__ = ("instruments", "cells", "_at", "_width", "_folded",
                 "_entries", "_mutex")

    def __init__(self, instruments):
        self.instruments = tuple(instruments)
        self._at = {}  # instrument -> its first slot
        width = 0
        for instrument in self.instruments:
            self._at[instrument] = width
            width += (
                1 if isinstance(instrument, Counter)
                else len(instrument.buckets) + 2
            )
        self._width = width
        self._mutex = threading.Lock()
        self._folded = self._zeros()  # the ended writers' cells
        self._entries = []  # (weak reference to the writer, its cell)
        self.cells = _Cells(self)  # ``cells.cell``: the thread's cell
        for instrument in self.instruments:
            instrument._sources += (self,)

    def _zeros(self):
        cell = [0] * self._width
        for instrument, at in self._at.items():
            if isinstance(instrument, Histogram):
                cell[at + len(instrument.buckets) + 1] = 0.0
        return cell

    def cell(self):
        """The calling thread's cell, a plain list (whose item stores
        the interpreter specializes), made the first time it asks."""
        return self.cells.cell

    def owned_cell(self, owner):
        """A cell for *owner*, which adds into it only under a lock of
        its own; folded into the totals once *owner* is gone."""
        return self._register(owner)

    def _register(self, writer):
        cell = self._zeros()
        with self._mutex:
            self._fold_ended()
            self._entries.append((weakref.ref(writer), cell))
        return cell

    def slot(self, instrument):
        """Where *instrument*'s slots start in a cell: a counter's one;
        a histogram's bucket counts (the value's is ``bisect_left`` of
        its buckets past the start), then its sum."""
        return self._at[instrument]

    def _fold_ended(self):
        """Fold the cells of ended threads and gone owners; under the
        mutex."""
        folded, live = self._folded, []
        for entry in self._entries:
            writer = entry[0]()
            if writer is not None and (
                not isinstance(writer, threading.Thread) or writer.is_alive()
            ):
                live.append(entry)
                continue
            for slot, count in enumerate(entry[1]):
                folded[slot] += count
        self._entries = live

    def total(self, instrument):
        """What the cells hold for *instrument*: a counter's count, or a
        histogram's ``(bucket counts, sum)``."""
        at = self._at[instrument]
        with self._mutex:
            self._fold_ended()
            cells = [self._folded] + [cell for _, cell in self._entries]
            if isinstance(instrument, Counter):
                return sum(cell[at] for cell in cells)
            end = at + len(instrument.buckets) + 1
            counts = [0] * (end - at)
            total = 0.0
            for cell in cells:
                counts = [a + b for a, b in zip(counts, cell[at:end])]
                total += cell[end]
            return counts, total

    def __repr__(self):
        return "Tally(%s)" % ", ".join(
            repr(instrument.name) for instrument in self.instruments
        )


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

    def ratio(self, name, numerator, denominator):
        """A :class:`Ratio` gauge of the counters *numerator* over
        *denominator*."""
        return self._get(
            name, Ratio, lambda: Ratio(name, numerator, denominator)
        )

    def tally(self, counters=(), histograms=()):
        """A write-combining :class:`Tally` over the named *counters*
        and then *histograms*, their slots in that order in a cell.
        Asking again for the same names returns the same object."""
        instruments = [self.counter(name) for name in counters] + [
            self.histogram(name) for name in histograms
        ]
        key = (tuple(counters), tuple(histograms))
        with self._mutex:
            existing = self._tallies.get(key)
            if existing is None:
                existing = self._tallies[key] = Tally(instruments)
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
