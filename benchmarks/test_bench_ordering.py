"""Ordering-manipulation guards.

Section 5.2 motivates ordering as a modeled property rather than a
performance trick; these guards hold what the modeling may cost: an
edit writes one membership row, front inserts stay >=20x ahead of dense
renumbering in the same database, and a score import reads a bounded
number of sibling rows per instance.  ``scripts/bench_smoke.sh`` runs
them (``-m ordering_smoke``).
"""

import time

import pytest

from repro.core.ordering import Ordering
from repro.core.schema import Schema
from repro.fixtures.examples import make_scale_score

pytestmark = pytest.mark.ordering_smoke


def make_chord_schema(note_count):
    schema = Schema("bench")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity("NOTE", [("n", "integer")])
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    chord = schema.entity_type("CHORD").create(n=0)
    notes = [schema.entity_type("NOTE").create(n=i) for i in range(note_count)]
    return schema, ordering, chord, notes


# The gap-based order-key encoding must keep front inserts O(1) in row
# writes: no per-sibling renumbering.
SMOKE_CHILDREN = 2000


class DensePositionReference:
    """The seed's dense 1-based ``position`` encoding, kept as a
    reference point: inserting at the front renumbers every existing
    sibling, one ``table.update`` per row, in *database*."""

    def __init__(self, database):
        self.table = database.create_table(
            "dense_ord",
            [("parent", "integer"), ("child", "integer"), ("position", "integer")],
        )
        self._parent_index = self.table.create_index("parent")

    def insert_front(self, parent, child):
        for rowid in self._parent_index.lookup(parent):
            row = self.table.get(rowid)
            self.table.update(rowid, {"position": row["position"] + 1})
        self.table.insert({"parent": parent, "child": child, "position": 1})


def count_row_writes(table):
    """Wrap *table*'s mutators with counters; returns the counter dict."""
    counts = {"insert": 0, "update": 0, "delete": 0}
    for name in counts:
        original = getattr(table, name)

        def wrapped(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        setattr(table, name, wrapped)
    return counts


def count_rows_walked(monkeypatch):
    """Wrap ``Ordering.walk``, the one sibling read, the way
    ``count_row_writes`` wraps the mutators; returns the counter dict
    (membership rows the walks handed back)."""
    counts = {"rows": 0}
    original = Ordering.walk

    def wrapped(self, *args, **kwargs):
        rows = original(self, *args, **kwargs)
        counts["rows"] += len(rows)
        return rows

    monkeypatch.setattr(Ordering, "walk", wrapped)
    return counts


def test_score_import_walks_stay_linear(monkeypatch):
    """Importing a score reads a bounded number of sibling rows per
    instance it creates, however long the score: a chord's start beat
    must not cost a walk of every measure (when it does, 32 measures
    read three times the rows per instance that 8 do)."""
    counts = count_rows_walked(monkeypatch)
    per_instance = {}
    for measures in (8, 32):
        counts["rows"] = 0
        builder = make_scale_score(measures=measures, voices=4)
        per_instance[measures] = (
            counts["rows"] / builder.cmn.schema.instance_count()
        )
    assert per_instance[32] <= 1.25 * per_instance[8], per_instance


def test_front_insert_write_count():
    """Front-inserting the Nth child issues exactly one row write --
    no sibling is touched."""
    schema, ordering, chord, notes = make_chord_schema(SMOKE_CHILDREN)
    counts = count_row_writes(ordering.table)
    for note in notes:
        ordering.insert(chord, note, 1)
    assert counts["insert"] == SMOKE_CHILDREN
    assert counts["update"] == 0, "front insert renumbered siblings"
    assert counts["delete"] == 0
    ordering.check_invariants()
    children = ordering.children(chord)
    assert [c["n"] for c in children] == list(range(SMOKE_CHILDREN - 1, -1, -1))


def test_move_and_remove_write_counts():
    """Moves and removes are single-row operations too."""
    schema, ordering, chord, notes = make_chord_schema(SMOKE_CHILDREN)
    ordering.extend(chord, notes)
    counts = count_row_writes(ordering.table)
    ordering.move(notes[-1], 1)
    ordering.move(notes[0], SMOKE_CHILDREN)
    ordering.remove(notes[SMOKE_CHILDREN // 2])
    assert counts["insert"] == 0
    assert counts["update"] == 2
    assert counts["delete"] == 1
    ordering.check_invariants()


# 10x the dense renumbering, scaled by what a database adds to each of
# its updates (journal, commit stamp, version chain: about 1.8x the
# update alone), so the reference's own overhead cannot pay for a
# slower order-key insert.
DENSE_SPEEDUP = 20
# Front inserts on each side: the reference's cost is quadratic in them
# (80k renumbering updates here), the order keys' linear.
DENSE_CHILDREN = 400


def test_front_insert_speedup_over_dense_reference():
    """400 front inserts must beat the seed's dense renumbering, in the
    same database, by >= DENSE_SPEEDUP x."""
    schema, ordering, chord, notes = make_chord_schema(DENSE_CHILDREN)
    dense = DensePositionReference(schema.database)
    start = time.perf_counter()
    for i in range(DENSE_CHILDREN):
        dense.insert_front(1, i)
    dense_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for note in notes:
        ordering.insert(chord, note, 1)
    elapsed = time.perf_counter() - start

    assert ordering.table_size() == DENSE_CHILDREN
    assert dense_elapsed >= DENSE_SPEEDUP * elapsed, (
        "dense reference %.3fs vs order keys %.3fs" % (dense_elapsed, elapsed)
    )
