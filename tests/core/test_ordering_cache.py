"""The memoized position cache must never serve stale ordinals.

``position_of`` memoizes per :attr:`Table.version`, and the version
counter bumps on *every* row mutation -- including transaction undo and
WAL recovery, which bypass the :class:`Ordering` API entirely.  These
tests exercise exactly those bypass paths.
"""

import pytest

from repro.core.schema import Schema


@pytest.fixture
def populated():
    schema = Schema("cache")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity("NOTE", [("n", "integer")])
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    chord = schema.entity_type("CHORD").create(n=0)
    notes = [schema.entity_type("NOTE").create(n=i) for i in range(1, 6)]
    ordering.extend(chord, notes)
    return schema, ordering, chord, notes


class TestPositionCache:
    def test_repeated_queries_are_cached(self, populated):
        _, ordering, _, notes = populated
        assert [ordering.position_of(n) for n in notes] == [1, 2, 3, 4, 5]
        version = ordering.table.version
        assert [ordering.position_of(n) for n in notes] == [1, 2, 3, 4, 5]
        assert ordering.table.version == version  # reads don't mutate

    def test_mutations_invalidate(self, populated):
        _, ordering, chord, notes = populated
        assert ordering.position_of(notes[4]) == 5
        ordering.move(notes[4], 1)
        assert ordering.position_of(notes[4]) == 1
        assert ordering.position_of(notes[0]) == 2
        ordering.remove(notes[0])
        assert ordering.position_of(notes[0]) is None
        assert ordering.position_of(notes[1]) == 2

    def test_nonmember_result_is_cached_until_insert(self, populated):
        schema, ordering, chord, _ = populated
        late = schema.entity_type("NOTE").create(n=99)
        assert ordering.position_of(late) is None
        ordering.insert(chord, late, 1)
        assert ordering.position_of(late) == 1

    def test_transaction_abort_invalidates(self, populated):
        """Undo goes through Table.undo_update/undo_delete, not Ordering."""
        schema, ordering, chord, notes = populated
        assert ordering.position_of(notes[0]) == 1
        txn = schema.database.begin()
        ordering.move(notes[0], 5)
        assert ordering.position_of(notes[0]) == 5
        ordering.remove(notes[2])
        assert ordering.position_of(notes[0]) == 4
        assert ordering.position_of(notes[2]) is None
        txn.abort()
        # The undo restored the rows behind the ordering's back; the
        # cache must notice via the version counter.
        assert ordering.position_of(notes[0]) == 1
        assert ordering.position_of(notes[2]) == 3
        assert [ordering.position_of(n) for n in notes] == [1, 2, 3, 4, 5]
        ordering.check_invariants()

    def test_transaction_abort_of_insert_invalidates(self, populated):
        schema, ordering, chord, notes = populated
        late = schema.entity_type("NOTE").create(n=42)
        txn = schema.database.begin()
        ordering.insert(chord, late, 1)
        assert ordering.position_of(late) == 1
        assert ordering.position_of(notes[0]) == 2
        txn.abort()
        assert ordering.position_of(late) is None
        assert ordering.position_of(notes[0]) == 1
        ordering.check_invariants()
