"""Property battery: random ordering programs vs a Python-list model.

Programs run on the shared runner (``tests/props/program.py``) in two
worlds: *flat* (NOTEs under CHORDs) and *recursive* (GROUPs and CHORDs
under GROUP -- recursive and inhomogeneous, so a P-cycle is one
reparent away and siblings mix types).  Every op the model refuses --
a placement that would close a P-cycle, a position out of range, a
second membership, a non-member moved or removed, a parent or child of
the wrong type -- must raise a typed ``IntegrityError`` and leave the
ordering exactly as the model has it; one op kind asks for such an
illegal argument on purpose.

Checked after every operation:

* ``children(parent)`` matches the reference list exactly, per parent;
* ``position_of`` / ``child_at`` / ``parent_of`` / ``under`` agree with
  the list positions;
* ``before`` / ``after`` hold for adjacent siblings, are irreflexive and
  are *false* across parents (section 5.6's incomparability rule);
* ``next_sibling`` / ``previous_sibling`` step through the list and end
  in None;
* removed children are not ``contains``-ed and have no position;
* per-parent order keys stay distinct (the gap-key invariant) and
  ``check_invariants`` -- which also walks for P-cycles -- passes.

The battery is also *temporal*, as ``test_mvcc_props.py`` is for plain
tables: after every operation ``(snapshot LSN, deep copy of the list
model)`` is recorded, and every recorded snapshot is then re-read under
``pin_snapshot(lsn)`` -- the same checks against the copy (all but
``check_invariants``, which reads the live index), plus ``under`` /
``before`` / ``after`` retrieves that must bind ``order range``, return
the copy's siblings in the copy's order and equal
``tests/quel/reference.py`` under the same pin.  The last ``WINDOW``
snapshots are kept: a protector thread (``tests/props/protector.py``)
pins the oldest, and forgetting one lets the pruning loose on the rest.

Sabotage: every sibling read is one ``Ordering.walk``, and what makes a
walk right under a pin is the stale rowids ``Table.fetch`` merges into
the index slice.  Hand ``fetch`` an empty stale set there and the first
move, reparent or remove fails every seed at the snapshot before it;
let ``reparent`` write before it looks for a P-cycle and the recursive
world's illegal op finds the ordering changed.
"""

import copy

import pytest

from repro.core.ordering import Ordering
from repro.core.schema import Schema
from repro.errors import IntegrityError, OrderingCycleError
from repro.quel.executor import QuelSession
from tests.props.program import assert_passes, generate, shrink
from tests.props.protector import Protector
from tests.quel.reference import reference_execute

pytestmark = pytest.mark.props

PARENTS = 3
CHILDREN = 12
OPS_PER_PROGRAM = 60
#: Recorded snapshots kept (and re-read after every op).
WINDOW = 5


class OrderingState:
    """An ordering, its parents and children, the list model (per parent
    the children's indexes, in order) and the recorded snapshots.

    A child's ``n`` is its index in ``children``.  In the recursive
    world the first ``PARENTS`` children *are* the parents (GROUPs) and
    the rest CHORDs, which alone the retrieves' range variables name."""

    def __init__(self, world="flat", count=CHILDREN, window=WINDOW):
        schema = Schema("props")
        self.recursive = world == "recursive"
        parent_type, child_type = (
            ("GROUP", "CHORD") if self.recursive else ("CHORD", "NOTE")
        )
        for name in (parent_type, child_type, "STRANGER"):
            schema.define_entity(name, [("n", "integer")])
        self.ordering = schema.define_ordering(
            "o", [parent_type, child_type] if self.recursive else [child_type],
            under=parent_type,
        )
        self.parents = [
            schema.entity_type(parent_type).create(n=i) for i in range(PARENTS)
        ]
        first = PARENTS if self.recursive else 0
        self.children = self.parents[:first] + [
            schema.entity_type(child_type).create(n=i) for i in range(first, count)
        ]
        self.named = range(first, count)
        #: Of a type the ordering admits neither as parent nor as child.
        self.stranger = schema.entity_type("STRANGER").create(n=-1)
        self.model = [[] for _ in range(PARENTS)]
        self.ranges = "range of n, a, b is %s\nrange of c is %s\n" % (
            child_type, parent_type
        )
        self.transactions = schema.database.transactions
        self.quel = QuelSession(schema)
        self.quel.execute(self.ranges)
        self.window = window
        self.snapshots = {}  # lsn -> the model as of that LSN
        self.checks = 0
        self.protector = Protector(self.transactions)
        self.protector.set_floor(self.transactions.snapshot_lsn())

    def close(self):
        self.protector.stop()

    # -- the model ---------------------------------------------------------------

    def _parent_of(self, child):
        return next((p for p, row in enumerate(self.model) if child in row), None)

    def _cycles(self, child, parent):
        """Whether placing *child* under *parent* closes a P-cycle: in
        the recursive world a GROUP child is parent index *child*."""
        if not self.recursive or child >= PARENTS:
            return False
        while parent is not None:
            if parent == child:
                return True
            parent = self._parent_of(parent)
        return False

    def _refused(self, call, *args):
        """*call* must raise a typed ``IntegrityError``; :meth:`check`
        then finds the ordering unchanged, or the refusal was not whole."""
        try:
            call(*args)
        except IntegrityError:
            return
        raise AssertionError("%s%r accepted; the model refuses it" % (
            call.__name__, args
        ))

    def apply(self, op):
        """Interpret one raw op against the current state; mutate both
        sides, or neither where the model refuses it."""
        ordering, model = self.ordering, self.model
        kind = op[0] % 6
        placed = sorted(index for row in model for index in row)
        free = [i for i in range(len(self.children)) if i not in set(placed)]
        parent = op[2] % PARENTS
        if kind == 5:
            self._illegal(op, placed, free)
        elif kind == 4 and op[1] % 4 == 0:  # clear
            ordering.clear(self.parents[parent])
            model[parent] = []
        elif kind in (0, 4):  # insert a free child; append for kind 4
            if not free:
                return
            child = free[op[1] % len(free)]
            room = len(model[parent]) + 1
            position = op[3] % room + 1 if kind == 0 else room
            if self._cycles(child, parent):
                return self._refused(
                    ordering.insert, self.parents[parent], self.children[child],
                    position,
                )
            ordering.insert(self.parents[parent], self.children[child], position)
            model[parent].insert(position - 1, child)
        elif placed:
            child = placed[op[1] % len(placed)]
            home = self._parent_of(child)
            slot = model[home].index(child)
            handle = self.children[child]
            if kind == 1:
                ordering.remove(handle)
                del model[home][slot]
            elif kind == 2:  # move within the current siblings
                position = op[3] % len(model[home]) + 1
                ordering.move(handle, position)
                del model[home][slot]
                model[home].insert(position - 1, child)
            else:  # reparent, at the end (None) or at a position
                room = len(model[parent]) + (parent != home)
                position = op[3] % (room + 1) or None
                if self._cycles(child, parent):
                    return self._refused(
                        ordering.reparent, handle, self.parents[parent], position
                    )
                ordering.reparent(handle, self.parents[parent], position)
                del model[home][slot]
                model[parent].insert(
                    len(model[parent]) if position is None else position - 1, child
                )

    def _illegal(self, op, placed, free):
        """One argument the model refuses, chosen by ``op[1]``: the
        recursive world prefers the reparent that closes a P-cycle."""
        ordering, model = self.ordering, self.model
        parent = self.parents[op[2] % PARENTS]
        groups = [i for i in placed if self.recursive and i < PARENTS]
        if groups and op[1] % 2 == 0:
            group = groups[op[3] % len(groups)]
            below = [group] + [
                i for i in range(PARENTS) if i != group and self._cycles(group, i)
            ]
            return self._refused(
                ordering.reparent, self.children[group],
                self.parents[below[op[2] % len(below)]],
            )
        variant = op[1] % 5
        if variant == 0 and free:  # a position past either end
            bad = [0, len(model[op[2] % PARENTS]) + 2][op[3] % 2]
            return self._refused(
                ordering.insert, parent, self.children[free[0]], bad
            )
        if variant == 1 and placed:  # a second membership
            return self._refused(
                ordering.insert, parent, self.children[placed[op[3] % len(placed)]]
            )
        if variant == 2 and placed:  # a move out of range
            child = placed[op[3] % len(placed)]
            bad = [0, len(model[self._parent_of(child)]) + 1][op[2] % 2]
            return self._refused(ordering.move, self.children[child], bad)
        if variant == 3 and free:  # a non-member removed
            return self._refused(ordering.remove, self.children[free[0]])
        if op[3] % 2 and free:  # a parent of the wrong type
            return self._refused(
                ordering.insert, self.stranger, self.children[free[0]]
            )
        return self._refused(ordering.insert, parent, self.stranger)

    # -- the checks --------------------------------------------------------------

    def check(self):
        """The live checks, then the temporal half: record this state,
        re-read every recorded one under its pin."""
        self._check_reads(self.model)
        self.check_retrieves(self.model)
        self.snapshots[self.transactions.snapshot_lsn()] = copy.deepcopy(self.model)
        while len(self.snapshots) > self.window:
            del self.snapshots[min(self.snapshots)]
            self.protector.set_floor(min(self.snapshots))
            # Reap what the old floor kept alive; every snapshot still
            # recorded must survive it.
            self.ordering.table.prune_versions(self.transactions.prune_horizon())
        for lsn in sorted(self.snapshots):
            self.transactions.pin_snapshot(lsn)
            try:
                self._check_reads(self.snapshots[lsn], live=False)
                self.check_retrieves(self.snapshots[lsn])
            except AssertionError as error:
                raise AssertionError("at snapshot %d: %s" % (lsn, error)) from error
            finally:
                self.transactions.unpin_snapshot()

    def _check_reads(self, model, live=True):
        """Every read against *model*; *live* False under a pinned
        snapshot, where ``check_invariants`` -- a reader of the live
        index -- has no business."""
        ordering, parents, children = self.ordering, self.parents, self.children
        if live:
            ordering.check_invariants()
        placed = set(index for row in model for index in row)
        for parent_index, expected in enumerate(model):
            parent = parents[parent_index]
            observed = [instance["n"] for instance in ordering.children(parent)]
            assert observed == expected, (
                "children(%d) = %r, model says %r" % (parent_index, observed, expected)
            )
            for slot, child_index in enumerate(expected):
                child = children[child_index]
                assert ordering.position_of(child) == slot + 1
                assert ordering.child_at(parent, slot + 1)["n"] == child_index
                assert ordering.parent_of(child)["n"] == parent_index
                assert ordering.under(child, parent)
                other = parents[(parent_index + 1) % len(parents)]
                assert not ordering.under(child, other)
                for step, neighbor in (
                    (ordering.previous_sibling, slot - 1),
                    (ordering.next_sibling, slot + 1),
                ):
                    found = step(child)
                    if 0 <= neighbor < len(expected):
                        assert found["n"] == expected[neighbor]
                    else:
                        assert found is None
            for slot in range(len(expected) - 1):
                a = children[expected[slot]]
                b = children[expected[slot + 1]]
                assert ordering.before(a, b) and ordering.after(b, a)
                assert not ordering.before(b, a) and not ordering.after(a, b)
                assert not ordering.before(a, a)
        nonempty = [i for i, row in enumerate(model) if row]
        if len(nonempty) >= 2:
            a = children[model[nonempty[0]][0]]
            b = children[model[nonempty[1]][0]]
            assert not ordering.before(a, b) and not ordering.after(a, b)
        for child_index in range(len(children)):
            if child_index not in placed:
                child = children[child_index]
                assert not ordering.contains(child)
                assert ordering.position_of(child) is None
                assert ordering.parent_of(child) is None
        keys_by_parent = {}
        for row in ordering.table:
            keys_by_parent.setdefault(row["parent"], []).append(row["order_key"])
        for keys in keys_by_parent.values():
            assert len(set(keys)) == len(keys), "duplicate order keys under one parent"

    def check_retrieves(self, model):
        """One ``under``, ``before`` or ``after`` retrieve (which, and
        over which parent or child, rotates), judged three ways: the
        plan, the model's sibling order, the reference's rows.  The
        equality comes first so the reference's ``and`` short-circuits
        on it."""
        self.checks += 1
        turn, operator = divmod(self.checks, 3)
        named = [index for row in model for index in row if index in self.named]
        if operator == 0 or not named:
            source = "retrieve (n.n) where c.n = %d and n under c in o" % (
                turn % PARENTS
            )
            column = "n.n"
            expected = [i for i in model[turn % PARENTS] if i in self.named]
        else:
            pivot = named[turn % len(named)]
            siblings = next(row for row in model if pivot in row)
            slot = siblings.index(pivot)
            source = "retrieve (a.n) where b.n = %d and a %s b in o" % (
                pivot, "before" if operator == 1 else "after"
            )
            column = "a.n"
            expected = [
                i for i in (siblings[:slot] if operator == 1 else siblings[slot + 1:])
                if i in self.named
            ]
        rows = self.quel.execute(source)
        label = self.quel.last_plan_object.label
        assert label == "index+order range", "%s bound via %s" % (source, label)
        observed = [row[column] for row in rows]
        assert observed == expected, "%s = %r, model says %r" % (
            source, observed, expected
        )
        reference = reference_execute(self.ordering.schema, self.ranges + source)
        assert sorted(observed) == sorted(row[column] for row in reference), (
            "%s = %r, reference says %r" % (source, observed, reference)
        )


# Twenty programs, and one more for each property of the six ordering
# hypothesis tests the battery took over.
@pytest.mark.parametrize("world, seed", [
    *(("flat", seed) for seed in range(14)),
    *(("recursive", seed) for seed in range(14, 26)),
])
def test_random_programs_match_reference_model(world, seed):
    assert_passes(OrderingState, generate(seed, OPS_PER_PROGRAM), world=world)


@pytest.mark.mvcc_slow
@pytest.mark.parametrize("world", ["flat", "recursive"])
@pytest.mark.parametrize("seed", range(100, 104))
def test_random_programs_extended(seed, world, monkeypatch):
    """Longer programs over more children and a wider window, behind a
    front-insert storm: each ``(0, PARENTS, 0, 1)`` puts the free child
    after the first ``PARENTS`` (never a GROUP) second under parent 0,
    halving the gap behind its first child until a rebalance rewrites
    every sibling key there -- under the feet of the snapshots recorded
    before it, whose whole sibling list is then stale and has only its
    keys to come back in order by."""
    rebalances = []
    rebalance = Ordering._rebalance
    monkeypatch.setattr(
        Ordering, "_rebalance",
        lambda self, parent: rebalances.append(parent) or rebalance(self, parent),
    )
    ops = [(0, PARENTS, 0, 1)] * 20 + generate(seed, 50)
    assert_passes(OrderingState, ops, world=world, count=24, window=8)
    assert rebalances, "the storm no longer exhausts a gap"


def test_the_recursive_world_refuses_cycles_of_every_length():
    """The premise of the illegal op: a GROUP placed under itself, its
    child or its grandchild closes a P-cycle and is refused whole."""
    state = OrderingState(world="recursive")
    ordering, groups = state.ordering, state.parents
    try:
        state.apply((0, 0, 0, 0))   # group 0 under group 0: refused
        state.apply((0, 1, 0, 0))   # group 1 under group 0
        state.apply((0, 1, 1, 0))   # group 2 under group 1
        state.check()
        assert state.model == [[1], [2], []]
        for child, parent in ((1, 1), (1, 2)):
            with pytest.raises(OrderingCycleError):
                ordering.reparent(groups[child], groups[parent])
        with pytest.raises(OrderingCycleError):
            ordering.insert(groups[2], groups[0])
        state.check()
    finally:
        state.close()


def test_shrinker_finds_minimal_reproducer():
    """The shrinker itself: a synthetic predicate shrinks to one op."""
    ops = generate(12345, 40) + [(1, 0, 0, 0)]

    def fails(candidate):
        return any(op[0] % 4 == 1 and op[1] % 5 == 0 for op in candidate)

    minimal = shrink(ops, fails)
    assert len(minimal) == 1 and fails(minimal)


def test_front_insert_storm_keeps_gap_keys_sound():
    """Worst case for gap keys: repeated position-1 inserts force key
    rebalancing; the public order must stay exactly reversed-arrival."""
    schema = Schema("props-storm")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity("NOTE", [("n", "integer")])
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    parent = schema.entity_type("CHORD").create(n=0)
    notes = [schema.entity_type("NOTE").create(n=i) for i in range(200)]
    for note in notes:
        ordering.insert(parent, note, 1)
        ordering.check_invariants()
    observed = [instance["n"] for instance in ordering.children(parent)]
    assert observed == list(range(199, -1, -1))
