"""The closed-loop driver, the op stream, and the statistics.

A workload hands the harness one or more ``Driver`` objects.  Each is one
driving thread: it draws op classes from an endless seeded stream laid
out in blocks of ``BLOCK`` ops with fixed class counts, asks the workload
for the op (a timed call plus a check against the reference model), times
the call and records the latency under the window it started in.

Times are reported at a reference speed.  The machine this was sized on
runs the same code up to 1.7x slower for seconds to minutes at a time (a
busy neighbour on the host), which no median over a 12 s run survives.
So every driving thread keeps timing a fixed piece of interpreter work
(``probe``) between ops, in CPU seconds, and an op's time is reported as

    cpu / factor + (wall - cpu),    factor = probe time / PROBE_REF_S

where ``cpu`` is the CPU time of the threads that worked on the op: the
part of an op spent computing is scaled to the speed at which the probe
takes ``PROBE_REF_S``, the part spent waiting (fsync, a socket, another
thread's turn) is left as measured.  The unscaled times are kept beside
the scaled ones in ``bench/out/``.
"""

import collections
import gc
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time

BLOCK = 20
WINDOWS = 4
WARMUP_S = 1.0
#: CPU seconds ``probe`` takes when the machine is undisturbed.
PROBE_REF_S = 0.00060
#: A driver probes again once this much time has passed since its last probe.
PROBE_GAP_S = 0.025
#: The speed factor is the median of this many latest probes.
PROBE_KEEP = 5

#: An op: ``call()`` is timed, ``verify(result)`` compares the result with
#: the reference model (and advances the model), ``measured(result)``
#: optionally replaces the harness's own (wall s, cpu s, speed factor)
#: (cold_open's children time and probe themselves).
Op = collections.namedtuple("Op", "call verify measured", defaults=(None,))

_PROBE_ROWS = [
    {"title": "Title %d in C major" % i, "composer": "Composer %d" % (i % 18),
     "n": i}
    for i in range(1000)
]


def probe():
    """CPU seconds this thread needs for a fixed piece of interpreter work:
    a filter over dict rows, a counting dict and some arithmetic, the kind
    of work the program under test does, on a working set that stays in
    cache so only the processor's speed shows."""
    started = time.thread_time()
    for _ in range(3):
        hits = [row for row in _PROBE_ROWS
                if row["composer"] == "Composer 7" and "major" in row["title"]]
        counts = {}
        for row in _PROBE_ROWS:
            counts[row["n"]] = counts.get(row["n"], 0) + len(hits)
    total = 0
    for i in range(4000):
        total += i * i % 7
    return time.thread_time() - started


def scaled(wall, cpu, factor):
    """*wall* seconds with their *cpu* part brought to the reference speed."""
    cpu = min(wall, max(0.0, cpu))
    return cpu / factor + (wall - cpu)


class Speed:
    """The latest probes of one thread and the factor they give."""

    def __init__(self):
        self.recent = collections.deque(maxlen=PROBE_KEEP)
        self.due = 0.0

    def refresh(self, now):
        if now >= self.due:
            self.recent.append(probe())
            self.due = time.perf_counter() + PROBE_GAP_S

    def factor(self):
        return statistics.median(self.recent) / PROBE_REF_S


def measure_setup(build):
    """Run *build*; its wall seconds and the same at the reference speed."""
    probes = [probe() for _ in range(PROBE_KEEP)]
    began, cpu_began = time.perf_counter(), time.process_time()
    build()
    wall = time.perf_counter() - began
    cpu = time.process_time() - cpu_began
    probes += [probe() for _ in range(PROBE_KEEP)]
    return wall, scaled(wall, cpu, statistics.median(probes) / PROBE_REF_S)


def calibrate():
    """Milliseconds a fixed pure-Python spin takes: a disturbed run shows."""
    def spin():
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return (time.perf_counter() - started) * 1e3
    return statistics.median(spin() for _ in range(5))


class Driver:
    """One closed-loop driving thread and what it measured."""

    def __init__(self, name, counts, make_op, seed, counted=True):
        if sum(counts.values()) != BLOCK:
            raise ValueError("class counts of %r must sum to %d" % (name, BLOCK))
        self.name = name
        self.counts = counts
        self.make_op = make_op
        #: Whether this driver's verified ops are the workload's ops_per_s.
        self.counted = counted
        self.rng = random.Random(seed)
        #: Other threads that work on this driver's ops (a server's
        #: connection thread); their CPU time counts into the op's.
        self.helpers = []
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._classes = self._class_stream()

    def _class_stream(self):
        base = [cls for cls, n in self.counts.items() for _ in range(n)]
        while True:
            block = list(base)
            self.rng.shuffle(block)
            yield from block

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def run(self, start, end, phase=None, tracer=None):
        """Issue ops back to back from *start* until *end*.

        *phase* (a ``Phase``) receives the latencies; None is warm-up.
        """
        clock = time.perf_counter
        cpu_clocks = [
            time.pthread_getcpuclockid(thread.ident)
            for thread in [threading.current_thread()] + self.helpers
        ]

        def cpu_clock():
            return sum(time.clock_gettime(c) for c in cpu_clocks)

        speed = self.speed
        while clock() < start:
            time.sleep(0.0005)
        for cls in self._classes:
            now = clock()
            if now >= end:
                return
            speed.refresh(now)
            op = self.make_op(cls, self.rng)
            self.attempted += 1
            root = tracer.begin(cls) if tracer is not None else None
            cpu_began = cpu_clock()
            began = clock()
            try:
                result = op.call()
                ended = clock()
                cpu = cpu_clock() - cpu_began
            except Exception as exc:  # a failed op, not a failed harness
                if root is not None:
                    tracer.end(root)
                self.fail("%s raised %s: %s" % (cls, type(exc).__name__, exc))
                continue
            if root is not None:
                tracer.end(root)
            try:
                ok = op.verify(result)
            except Exception as exc:
                ok = False
                self.fail("%s check raised %s: %s"
                          % (cls, type(exc).__name__, exc))
            else:
                if not ok:
                    self.fail("%s returned a wrong result" % cls)
            if ok and phase is not None:
                if op.measured is not None:
                    wall, cpu, factor = op.measured(result)
                else:
                    wall, factor = ended - began, speed.factor()
                phase.record(self, cls, began - start, wall,
                             scaled(wall, cpu, factor))


class Phase:
    """Latency samples of one measured phase, cut into windows."""

    def __init__(self, seconds, windows=WINDOWS):
        self.seconds = seconds
        self.windows = windows
        self.window_s = seconds / windows
        # samples[window][class] -> [seconds at the reference speed]
        self.samples = [collections.defaultdict(list) for _ in range(windows)]
        self.raw = collections.defaultdict(list)  # class -> [wall seconds]
        # Per window, the counted ops begun in it and the time they took:
        # a closed loop's rate is the one over its mean latency.
        self.counted = [[0, 0.0] for _ in range(windows)]
        self._mutex = threading.Lock()

    def record(self, driver, cls, began, wall, at_reference_speed):
        window = min(self.windows - 1, int(began / self.window_s))
        with self._mutex:
            self.samples[window][cls].append(at_reference_speed)
            self.raw[cls].append(wall)
            if driver.counted:
                self.counted[window][0] += 1
                self.counted[window][1] += at_reference_speed

    # -- statistics --------------------------------------------------------

    def pooled(self, classes):
        return [
            value for window in self.samples for cls in classes
            for value in window.get(cls, ())
        ]

    def median_ms(self, classes):
        """Median over windows of the per-window median, with its spread."""
        medians = []
        for window in self.samples:
            values = [v for cls in classes for v in window.get(cls, ())]
            if values:
                medians.append(statistics.median(values) * 1e3)
        if not medians:
            return None
        raw = [v for cls in classes for v in self.raw.get(cls, ())]
        return {
            "value": statistics.median(medians), "unit": "ms",
            "n": len(raw), "min": min(medians), "max": max(medians),
            "raw": statistics.median(raw) * 1e3,
        }

    def percentile_ms(self, classes, q):
        """Nearest-rank percentile over the whole phase, or None when
        fewer than ten samples lie beyond it."""
        values = sorted(self.pooled(classes))
        beyond = len(values) * (1.0 - q)
        if beyond < 10:
            return None
        rank = min(len(values) - 1, int(math.ceil(q * len(values))) - 1)
        return {"value": values[rank] * 1e3, "unit": "ms", "n": len(values)}

    def ops_per_s(self):
        rates = [count / spent for count, spent in self.counted if count]
        if not rates:
            return None
        return {
            "value": statistics.median(rates), "unit": "1/s",
            "n": sum(tally[0] for tally in self.counted),
            "min": min(rates), "max": max(rates),
        }


def run_phase(drivers, seconds, phase=None, tracer=None):
    """Run every driver for *seconds*; one inline, several as threads."""
    start = time.perf_counter() + 0.005
    end = start + seconds
    if len(drivers) == 1:
        drivers[0].run(start, end, phase, tracer)
        return
    threads = [
        threading.Thread(target=driver.run, args=(start, end, phase, tracer),
                         name="bench-" + driver.name)
        for driver in drivers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Workload:
    """What ``run.py`` needs from a workload.  The defaults fit one that
    runs the program inside this process."""

    name = None
    #: driver name -> class counts per block of ``BLOCK``
    mix = {}
    #: reported metric -> the op classes pooled into it
    class_metrics = {}
    write_classes = ()
    #: classes whose statement has a text predicate an index could serve
    text_gated = ()
    #: whether its reads go through ``MdmSession.run(read_only=True)``
    read_only_path = False

    def __init__(self, seed, sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.path = None
        self.built = 0
        self.facts = {}  # what set-up measured, for the per-layer metrics
        self.user_bytes_written = 0
        self.drivers = []
        self._tracer = None

    def next_path(self):
        self.built += 1
        self.path = os.path.join(self.workdir, "db%d" % self.built)
        return self.path

    def build(self):
        """Set-up, timed by the caller: the state a run starts from."""
        raise NotImplementedError

    def discard(self):
        """Throw away what ``build`` made."""
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
        gc.collect()

    def close(self):
        self.discard()

    def prepare(self):
        """After set-up, untimed: reference models and drivers."""
        raise NotImplementedError

    def finish(self):
        """Checks that need the whole run; failures land on a driver."""

    def registries(self):
        return [self.mdm.database.metrics]

    def disk_bytes(self):
        return sum(
            os.path.getsize(os.path.join(self.path, name))
            for name in os.listdir(self.path)
        )

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_facts(self, delta):
        """Per-layer facts only this workload knows; may correct *delta*."""
        return {}

    def start_tracing(self):
        from trace import Tracer  # bench/trace.py, not the stdlib's

        self._tracer = Tracer()
        self._tracer.install()
        self._tracer.enabled = True
        return self._tracer

    def stop_tracing(self):
        """Spans off, written to ``bench/out/``; returns their summary."""
        tracer = self._tracer
        tracer.enabled = False
        tracer.uninstall()
        tracer.write(os.path.join(
            os.path.dirname(self.workdir),
            "spans-%s-seed%d.txt" % (self.name, self.seed),
        ))
        return tracer.summary()
