"""The shape cache: one parse and one plan for every statement that
differs only in its literals.

System R's compile-once/execute-many split, keyed so that it also
covers the common case -- the same statement with a new title every
time.  A statement's *shape* is its text with the literals cut out
(:func:`repro.lang.lexer.lift`, one regex pass, no tokens); the cache
maps it to a :class:`Shape`: the parsed statements, each with the plans
compiled for it.  Which literals a plan reads from the executing
statement's literal vector (*bound*) and which are part of what is
cached (*pinned*) is decided once, in :mod:`repro.quel.compile`; a
shape with pinned slots is entered under ``(shape, pinned values)``, so
``limit 10`` and ``limit 20`` are two entries and two titles are one.

One cache per database, shared by every session and thread of it.  A
plan is valid for ``(range-binding shape, function registry)`` at one
schema epoch: DDL -- ``define entity`` / ``define relationship`` /
``define ordering``, index creation, attribute widening -- bumps the
epoch, so a stale plan is detected at its next look-up, counted as an
invalidation, and recompiled.  An exact textual repeat skips even the
regex pass: a bounded text memo maps it onto the same entry.

Counters surface through the shared MetricsRegistry:
``quel.cache.statement_{hits,misses}`` count shape look-ups,
``quel.cache.{hits,misses,invalidations}`` plan look-ups -- the
executor counts both with the rest of a statement's counts
(:class:`repro.quel.sources.Accounting`) -- and the
``quel.cache.shapes`` gauge is the number of entries held.
"""

import threading
from collections import OrderedDict

from repro.lang.lexer import lift, shape_text

#: Entries kept, least recently used out first.
_SHAPES = 512
#: Exact source texts remembered beside them.
_TEXTS = 1024
#: Plans kept per statement: one per (range bindings, registry) in use.
_PLANS_PER_STATEMENT = 8


class CachedStatement:
    """One parsed statement of a shape: the range variables it joins
    over (what a plan's range-binding key is read off), the literal
    slots its plans leave bound, and the plans, ``(bindings, registry)
    -> (epoch, compiled)``.  *used* is None for a statement that has no
    plan (a range declaration)."""

    __slots__ = ("statement", "used", "bound", "plans")

    def __init__(self, statement, used, bound):
        self.statement = statement
        self.used = used
        self.bound = bound
        self.plans = {}


class Shape:
    """One cache entry: what every statement of the shape shares."""

    __slots__ = ("text", "statements")

    def __init__(self, text, statements):
        self.text = text  # the statement with ? for each literal
        self.statements = statements  # [CachedStatement, ...]


class ShapeCache:
    """LRU shape -> :class:`Shape` cache (one per database)."""

    def __init__(self, metrics):
        # shape -> Shape, for a shape with no pinned slot; otherwise
        # shape -> the pinned slot indexes (a tuple) and
        # (shape, pinned values) -> Shape.
        self._shapes = OrderedDict()
        # source text -> (Shape, literals): exact repeats.
        self._texts = OrderedDict()
        self._lock = threading.Lock()
        self._size = metrics.gauge("quel.cache.shapes")

    def __len__(self):
        return len(self._shapes)

    def lookup(self, source):
        """``(Shape, literals)`` for *source*; the Shape is None on a
        miss -- parse, then :meth:`store`."""
        with self._lock:
            found = self._texts.get(source)
            if found is not None:
                self._texts.move_to_end(source)
                return found
        shape, literals = lift(source)
        with self._lock:
            shapes = self._shapes
            found = shapes.get(shape)
            if type(found) is tuple:
                shapes.move_to_end(shape)
                shape = (shape, tuple([literals[slot] for slot in found]))
                found = shapes.get(shape)
            if found is None:
                return None, literals
            shapes.move_to_end(shape)
            self._remember(source, found, literals)
            return found, literals

    def store(self, source, literals, statements, bound):
        """Enter the parse of *source*: *statements* is its
        CachedStatement list, *bound* the literal slots their plans
        leave bound; the rest of *literals* join the key."""
        shape, _ = lift(source)
        entry = Shape(shape_text(shape), statements)
        pinned = tuple(
            slot for slot in range(len(literals)) if slot not in bound
        )
        with self._lock:
            shapes = self._shapes
            if pinned:
                shapes[shape] = pinned
                shape = (shape, tuple([literals[slot] for slot in pinned]))
            shapes[shape] = entry
            while len(shapes) > _SHAPES:
                shapes.popitem(last=False)
            self._size.set(len(shapes))
            self._remember(source, entry, literals)
        return entry

    def _remember(self, source, entry, literals):
        texts = self._texts
        texts[source] = (entry, literals)
        if len(texts) > _TEXTS:
            texts.popitem(last=False)

    def store_plan(self, cached, key, epoch, compiled):
        with self._lock:
            plans = cached.plans
            plans.pop(key, None)  # re-entered last: eviction is oldest first
            plans[key] = (epoch, compiled)
            if len(plans) > _PLANS_PER_STATEMENT:
                del plans[next(iter(plans))]


def shape_cache_for(database, metrics):
    """The database-wide shape cache, created on first use."""
    cache = getattr(database, "_quel_shape_cache", None)
    if cache is None:
        cache = ShapeCache(metrics)
        database._quel_shape_cache = cache
    return cache
