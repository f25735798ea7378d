"""Sibling reads under a pinned snapshot describe the pinned state.

Every sibling read is one ``Ordering.walk`` -- a ``Table.probe`` and a
``Table.fetch`` -- so a reader that pinned a snapshot before another
thread moved and reparented children still sees the sibling list it
pinned, from every reader, and all of them agree.  (They used to do
slot arithmetic on the live ``(parent, order_key)`` index and returned
a sibling list no committed state ever had.)  The randomized half is
the temporal battery in ``tests/props/test_ordering_props.py``.
"""

import threading

import pytest

from repro.core.schema import Schema
from repro.quel.executor import QuelSession


@pytest.fixture
def voices():
    schema = Schema("pinned-siblings")
    schema.define_entity("VOICE", [("n", "integer")])
    schema.define_entity("CHORD", [("n", "integer")])
    ordering = schema.define_ordering("stream", ["CHORD"], under="VOICE")
    voice, other = (schema.entity_type("VOICE").create(n=i) for i in (0, 1))
    chords = [schema.entity_type("CHORD").create(n=i) for i in range(8)]
    ordering.extend(voice, chords)
    return schema, ordering, voice, other, chords


def _elsewhere(job):
    """Run *job* on a thread of its own (the caller's pin is
    thread-local) and return its result."""
    results = []
    thread = threading.Thread(target=lambda: results.append(job()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and results
    return results[0]


def _edit(ordering, other, chords):
    """What the editor thread does: first chord to the end, second
    chord to the other voice."""
    _elsewhere(lambda: (
        ordering.move(chords[0], len(chords)),
        ordering.reparent(chords[1], other),
    ))


def _assert_siblings(schema, ordering, voice, chords, expected):
    """Every sibling reader, and the three order operators through
    QUEL, describe the list *expected* (chord numbers) under *voice*."""
    assert [c["n"] for c in ordering.children(voice)] == expected
    quel = QuelSession(schema)
    quel.execute("range of a, b is CHORD\nrange of v is VOICE")
    under = quel.execute(
        "retrieve (a.n) where a under v in stream and v.n = %d" % voice["n"]
    )
    assert [row["a.n"] for row in under] == expected
    assert quel.last_plan_object.label == "index+order range"
    for slot, number in enumerate(expected):
        chord = chords[number]
        assert ordering.position_of(chord) == slot + 1
        assert ordering.child_at(voice, slot + 1)["n"] == number
        assert ordering.under(chord, voice)
        earlier = ordering.previous_sibling(chord)
        later = ordering.next_sibling(chord)
        assert (earlier and earlier["n"]) == (expected[slot - 1] if slot else None)
        assert (later and later["n"]) == (
            expected[slot + 1] if slot + 1 < len(expected) else None
        )
        for operator, siblings in (
            ("before", expected[:slot]), ("after", expected[slot + 1:])
        ):
            rows = quel.execute(
                "retrieve (a.n) where a %s b in stream and b.n = %d"
                % (operator, number)
            )
            assert [row["a.n"] for row in rows] == siblings
            assert quel.last_plan_object.label == "index+order range"
            for sibling in siblings:
                assert getattr(ordering, operator)(chords[sibling], chord)
    assert ordering.child_at(voice, len(expected) + 1) is None


def test_pinned_sibling_reads_survive_a_move_and_a_reparent(voices):
    schema, ordering, voice, other, chords = voices
    transactions = schema.database.transactions
    transactions.pin_snapshot()
    try:
        _edit(ordering, other, chords)
        _assert_siblings(schema, ordering, voice, chords, list(range(8)))
        assert ordering.children(other) == []
        assert ordering.parent_of(chords[1]) == voice
    finally:
        transactions.unpin_snapshot()
    _assert_siblings(schema, ordering, voice, chords, [2, 3, 4, 5, 6, 7, 0])
    _assert_siblings(schema, ordering, other, chords, [1])


def test_a_pinned_position_read_leaves_the_live_memo_alone(voices):
    """``position_of`` numbers a walk's siblings and keeps the numbering
    per table version -- for current reads only: a pinned read sees an
    older list and must neither be served from that memo nor feed it."""
    schema, ordering, voice, other, chords = voices
    transactions = schema.database.transactions
    transactions.pin_snapshot()
    try:
        _edit(ordering, other, chords)
        live = lambda: ordering.position_of(chords[2])
        assert _elsewhere(live) == 1                   # memoized now
        assert ordering.position_of(chords[2]) == 3    # not served from it
        assert _elsewhere(live) == 1                   # nor fed
    finally:
        transactions.unpin_snapshot()
