"""Hierarchical ordering: the paper's extension to the ER model.

An :class:`Ordering` realizes one ``define ordering`` statement: a set
of child entity types whose instances form ordered sets under parent
instances.  The membership table holds one row per P-edge; S-edges are
implied by relative key order.

Supported forms (section 5.5): multiple levels of hierarchy, multiple
orderings under a parent, inhomogeneous child types, multiple parents
(one per ordering), and recursive orderings -- with the well-formedness
restrictions that P-edges and S-edges of a given ordering are acyclic.

Physical encoding
-----------------
Sibling order is stored as a *gap-based order key*, not a dense 1-based
integer.  Appends extend the key range by a fixed gap; inserts take the
midpoint of their neighbors' keys; only when a midpoint gap is exhausted
does a rebalance rewrite one parent's sibling keys.  Insert, move,
remove and reparent are therefore single-row writes instead of O(n)
sibling shifts.  Positions remain contiguous, 1-based logical ordinals.

Every read of sibling order -- ``children``, ``child_at``, the sibling
neighbors, ``position_of``, the executor's ``order range`` -- is one
:meth:`Ordering.walk` over the ordered composite index on ``(parent,
order_key)``: a :meth:`Table.probe` and a :meth:`Table.fetch`, so it
answers under a table lock and under a pinned MVCC snapshot alike.
Only writers do slot arithmetic on that index (they hold the table's
exclusive lock and cannot be pinned), and ``check_invariants`` reads it
directly because the index is what it checks.
"""

from repro.errors import (
    IntegrityError,
    OrderingCycleError,
    OrderingMembershipError,
    SchemaError,
)
from repro.core.entity import EntityInstance
from repro.storage.values import Domain

#: Spacing between appended order keys; also the post-rebalance stride.
_GAP = 1 << 16

#: Keys are kept well inside float-exact integer range (sort keys pass
#: through ``float``), forcing a rebalance long before precision loss.
_KEY_LIMIT = 1 << 52


def default_ordering_name(child_types, parent_type):
    """The generated name for a ``define ordering`` with no order_name."""
    return "%s_under_%s" % ("_".join(child_types), parent_type)


class Ordering:
    """One hierarchical ordering (one edge of the HO graph)."""

    def __init__(self, schema, name, child_types, parent_type):
        if not child_types:
            raise SchemaError("ordering %r needs at least one child type" % name)
        if len(set(child_types)) != len(child_types):
            raise SchemaError("duplicate child type in ordering %r" % name)
        for type_name in list(child_types) + [parent_type]:
            if not schema.has_entity_type(type_name):
                raise SchemaError(
                    "ordering %r references unknown entity type %r" % (name, type_name)
                )
        self.schema = schema
        self.name = name
        self.child_types = list(child_types)
        self.parent_type = parent_type
        self.table = schema.database.create_or_bind_table(
            "ord:%s" % name,
            [
                ("parent", Domain.ENTITY),
                ("child", Domain.ENTITY),
                ("order_key", Domain.INTEGER),
            ],
        )
        self.table.create_index("parent")
        self.table.create_index("child")
        self._order_index = self.table.create_index(("parent", "order_key"))
        self._positions = {}
        self._positions_version = -1

    # -- classification --------------------------------------------------------

    @property
    def is_recursive(self):
        """True when the parent type is also a child type (section 5.5)."""
        return self.parent_type in self.child_types

    @property
    def is_inhomogeneous(self):
        """True when siblings may be of more than one type."""
        return len(self.child_types) > 1

    # -- validation helpers -------------------------------------------------------

    def _check_child(self, child):
        if not isinstance(child, EntityInstance):
            raise IntegrityError("ordering child must be an EntityInstance")
        if child.type.name not in self.child_types:
            raise IntegrityError(
                "ordering %r does not admit %s children (admits %s)"
                % (self.name, child.type.name, ", ".join(self.child_types))
            )

    def _check_parent(self, parent):
        if not isinstance(parent, EntityInstance):
            raise IntegrityError("ordering parent must be an EntityInstance")
        if parent.type.name != self.parent_type:
            raise IntegrityError(
                "ordering %r expects %s parents, got %s"
                % (self.name, self.parent_type, parent.type.name)
            )

    def _membership_row(self, child):
        rows = self.table.select_eq("child", child.surrogate)
        return rows[0] if rows else None

    def _ancestors(self, instance):
        """The P-edge chain above *instance*, nearest parent first.

        Only recursive orderings have chains longer than one; an
        existing P-edge cycle raises instead of looping.
        """
        seen = {instance.surrogate}
        current = instance
        while current.type.name in self.child_types:
            current = self.parent_of(current)
            if current is None:
                return
            if current.surrogate in seen:
                raise OrderingCycleError(
                    "existing P-edge cycle detected at %r in ordering %r"
                    % (current, self.name)
                )
            seen.add(current.surrogate)
            yield current

    def _assert_no_p_cycle(self, parent, child):
        """Reject P-edge cycles: *child* may not be *parent* or one of
        its ancestors."""
        if parent.surrogate == child.surrogate or any(
            ancestor.surrogate == child.surrogate
            for ancestor in self._ancestors(parent)
        ):
            raise OrderingCycleError(
                "placing %r under %r creates a P-edge cycle in ordering %r"
                % (child, parent, self.name)
            )

    # -- the one ordered read ---------------------------------------------------

    def walk(self, parent_surrogate, after=None, before=None):
        """The membership rows under *parent_surrogate* whose order key
        lies strictly between *after* and *before* (None: unbounded), in
        sibling order.

        The only reader of the (parent, order_key) index.  Like every
        other index read it is a :meth:`Table.probe` -- the slot range
        is bisected and its rowids copied under the latch, the stale set
        taken in the same hold -- followed by a :meth:`Table.fetch` that
        re-checks parent and key bounds on each visible version.  A
        stale rowid's visible key need not sit where its rowid sorts, so
        a fetch that merged any in is put back in key order.
        """
        index = self._order_index

        def rowids():
            # Keys are integers, so "after < key" starts at after + 1.
            start, stop = index.prefix_bounds((parent_surrogate,))
            if after is not None:
                start = index.rank((parent_surrogate, after + 1))
            if before is not None:
                stop = index.rank((parent_surrogate, before))
            return index.rowids_slice(start, stop)

        def member(row):
            key = row["order_key"]
            return (
                row["parent"] == parent_surrogate
                and (after is None or key > after)
                and (before is None or key < before)
            )

        found, stale = self.table.probe(rowids)
        rows = self.table.fetch(found, stale, member)
        if stale:
            rows.sort(key=lambda row: row["order_key"])
        return rows

    # The QUEL executor's ``order range`` source asks by these names
    # (and the benchmark's tracer wraps them).

    def member_row_of(self, child):
        """The membership row of *child*, or None."""
        return self._membership_row(child)

    def member_rows_under(self, parent_surrogate):
        """All membership rows under *parent_surrogate*, in order."""
        return self.walk(parent_surrogate)

    def member_rows_before(self, row):
        """Membership rows of siblings strictly before *row*, in order."""
        return self.walk(row["parent"], before=row["order_key"])

    def member_rows_after(self, row):
        """Membership rows of siblings strictly after *row*, in order."""
        return self.walk(row["parent"], after=row["order_key"])

    # -- write-side key allocation -----------------------------------------------
    #
    # Slot arithmetic straight on the (parent, order_key) index: a
    # writer holds the table's exclusive lock and ``assert_no_snapshot``
    # keeps it unpinned, so the index is exact for it.

    def _bounds(self, parent_surrogate):
        """Index slots [start, stop) holding this parent's siblings."""
        return self._order_index.prefix_bounds((parent_surrogate,))

    def _sibling_count(self, parent_surrogate):
        start, stop = self._bounds(parent_surrogate)
        return stop - start

    def _key_at_slot(self, slot):
        return self.table.get(self._order_index.rowids_at(slot)[0])["order_key"]

    def _rank(self, row):
        """1-based logical position of a membership *row* among siblings."""
        start, _ = self._bounds(row["parent"])
        slot = self._order_index.rank((row["parent"], row["order_key"]))
        return slot - start + 1

    def _rebalance(self, parent_surrogate):
        """Rewrite one parent's sibling keys to evenly spaced multiples.

        This is the only O(n)-write operation left, and it runs only when
        midpoint insertion exhausts a gap (or keys approach the exact-
        float limit) -- amortized over the ~log2(_GAP) single-row inserts
        each gap admits.
        """
        for index, row in enumerate(self.walk(parent_surrogate)):
            key = (index + 1) * _GAP
            if row["order_key"] != key:
                self.table.update(row.rowid, {"order_key": key})

    def _allocate_key(self, parent_surrogate, position, own=None):
        """An order key placing a child at 1-based *position* among the
        parent's siblings: all of them for a new child, the others for
        one being re-placed, whose 0-based slot among them is *own*.

        *position* must already be validated against that count.  May
        rebalance the parent's siblings once when gaps are exhausted
        (which moves no sibling, so *own* holds).
        """
        for _ in range(2):
            start, stop = self._bounds(parent_surrogate)
            count = stop - start - (own is not None)

            def key_of(nth):
                """The key of the nth (0-based) sibling to place around."""
                stepped_over = own is not None and nth >= own
                return self._key_at_slot(start + nth + stepped_over)

            if count == 0:
                return 0
            if position == 1:
                key = key_of(0) - _GAP
                if key > -_KEY_LIMIT:
                    return key
            elif position == count + 1:
                key = key_of(count - 1) + _GAP
                if key < _KEY_LIMIT:
                    return key
            else:
                low, high = key_of(position - 2), key_of(position - 1)
                if high - low >= 2:
                    return (low + high) // 2
            self._rebalance(parent_surrogate)
        raise IntegrityError(
            "ordering %r: could not allocate an order key under parent #%d"
            % (self.name, parent_surrogate)
        )

    # -- mutation --------------------------------------------------------------------

    def insert(self, parent, child, position=None):
        """Place *child* under *parent* at *position* (1-based; default end).

        Siblings at or after *position* shift right (logically -- their
        stored keys are untouched).  A child may appear at most once in a
        given ordering ("there is only one second object", section 5.5).
        """
        self._check_parent(parent)
        self._check_child(child)
        if self._membership_row(child) is not None:
            raise OrderingMembershipError(
                "%r is already a member of ordering %r" % (child, self.name)
            )
        self._assert_no_p_cycle(parent, child)
        count = self._sibling_count(parent.surrogate)
        if position is None:
            position = count + 1
        if position < 1 or position > count + 1:
            raise OrderingMembershipError(
                "position %d out of range 1..%d in ordering %r"
                % (position, count + 1, self.name)
            )
        key = self._allocate_key(parent.surrogate, position)
        self.table.insert(
            {"parent": parent.surrogate, "child": child.surrogate, "order_key": key}
        )
        return position

    def append(self, parent, child):
        """Place *child* last under *parent*."""
        return self.insert(parent, child)

    def extend(self, parent, children):
        """Append each of *children* under *parent*, preserving order.

        The bulk-load path: validates everything up front, then issues
        one insert per child with pre-spaced keys -- no per-child
        neighbor probing, no partial loads on a bad child.
        """
        children = list(children)
        if not children:
            return
        self._check_parent(parent)
        batch = set()
        for child in children:
            self._check_child(child)
            if child.surrogate in batch or self._membership_row(child) is not None:
                raise OrderingMembershipError(
                    "%r is already a member of ordering %r" % (child, self.name)
                )
            batch.add(child.surrogate)
            self._assert_no_p_cycle(parent, child)
        start, stop = self._bounds(parent.surrogate)
        key = self._key_at_slot(stop - 1) + _GAP if stop > start else 0
        for child in children:
            self.table.insert(
                {
                    "parent": parent.surrogate,
                    "child": child.surrogate,
                    "order_key": key,
                }
            )
            key += _GAP

    def remove(self, child):
        """Remove *child* from the ordering; later siblings shift left."""
        self._check_child(child)
        row = self._membership_row(child)
        if row is None:
            raise OrderingMembershipError(
                "%r is not a member of ordering %r" % (child, self.name)
            )
        self.table.delete(row.rowid)

    def move(self, child, new_position):
        """Move *child* to *new_position* among its current siblings.

        Validates before mutating and writes one row, so a bad position
        can no longer drop the child from the ordering.
        """
        row = self._membership_row(child)
        if row is None:
            raise OrderingMembershipError(
                "%r is not a member of ordering %r" % (child, self.name)
            )
        count = self._sibling_count(row["parent"])
        if new_position < 1 or new_position > count:
            raise OrderingMembershipError(
                "position %d out of range 1..%d in ordering %r"
                % (new_position, count, self.name)
            )
        rank = self._rank(row)
        if new_position != rank:
            key = self._allocate_key(row["parent"], new_position, own=rank - 1)
            self.table.update(row.rowid, {"order_key": key})

    def reparent(self, child, new_parent, position=None):
        """Move *child* under a different parent.

        All validation (membership, parent type, position range, P-edge
        cycles) happens before the single-row write, so a failing check
        no longer silently removes the child from the ordering.
        """
        self._check_child(child)
        row = self._membership_row(child)
        if row is None:
            raise OrderingMembershipError(
                "%r is not a member of ordering %r" % (child, self.name)
            )
        self._check_parent(new_parent)
        if row["parent"] == new_parent.surrogate:
            count = self._sibling_count(new_parent.surrogate)
            self.move(child, count if position is None else position)
            return
        self._assert_no_p_cycle(new_parent, child)
        count = self._sibling_count(new_parent.surrogate)
        if position is None:
            position = count + 1
        if position < 1 or position > count + 1:
            raise OrderingMembershipError(
                "position %d out of range 1..%d in ordering %r"
                % (position, count + 1, self.name)
            )
        key = self._allocate_key(new_parent.surrogate, position)
        self.table.update(
            row.rowid, {"parent": new_parent.surrogate, "order_key": key}
        )

    def clear(self, parent):
        """Remove every child of *parent*."""
        self._check_parent(parent)
        for row in self.table.select_eq("parent", parent.surrogate):
            self.table.delete(row.rowid)

    # -- queries (the section 5.6 operators' semantics) -------------------------------

    def children(self, parent):
        """The ordered children of *parent* ("x under p", all x)."""
        self._check_parent(parent)
        return [
            self.schema.instance(row["child"])
            for row in self.walk(parent.surrogate)
        ]

    def child_at(self, parent, position):
        """The child at ordinal *position* (1-based), or None.

        Supports queries like "the third note in chord x" (section 5.4).
        """
        self._check_parent(parent)
        rows = self.walk(parent.surrogate)
        if position < 1 or position > len(rows):
            return None
        return self.schema.instance(rows[position - 1]["child"])

    def parent_of(self, child):
        """The parent of *child* in this ordering, or None."""
        self._check_child(child)
        row = self._membership_row(child)
        if row is None:
            return None
        return self.schema.instance(row["parent"])

    def position_of(self, child):
        """The 1-based ordinal of *child* under its parent, or None.

        One walk of the child's siblings numbers them all.  A current
        read keeps the numbering per table version, so repeated ordinal
        queries between mutations are O(1) and any mutation (including
        transaction undo and recovery, which bypass this class)
        invalidates it; the memo mirrors the *live* table, so a read
        through a pinned snapshot neither consults nor feeds it.
        """
        self._check_child(child)
        positions = {}
        if self.schema.database.transactions.current_snapshot() is None:
            if self._positions_version != self.table.version:
                self._positions.clear()
                self._positions_version = self.table.version
            positions = self._positions
        if child.surrogate not in positions:
            row = self._membership_row(child)
            positions[child.surrogate] = None
            if row is not None:
                for position, sibling in enumerate(self.walk(row["parent"]), 1):
                    positions[sibling["child"]] = position
        return positions[child.surrogate]

    def contains(self, child):
        if child.type.name not in self.child_types:
            return False
        return self._membership_row(child) is not None

    def before(self, a, b):
        """True iff a and b share a parent and a precedes b (section 5.6).

        Instances under different parents "are not comparable, and the
        before clause evaluates to false".
        """
        row_a = self._membership_row(a) if a.type.name in self.child_types else None
        row_b = self._membership_row(b) if b.type.name in self.child_types else None
        if row_a is None or row_b is None:
            return False
        if row_a["parent"] != row_b["parent"]:
            return False
        return row_a["order_key"] < row_b["order_key"]

    def after(self, a, b):
        """True iff a and b share a parent and a follows b."""
        return self.before(b, a)

    def under(self, child, parent):
        """True iff *child* lies (directly) under *parent*."""
        if child.type.name not in self.child_types:
            return False
        if parent.type.name != self.parent_type:
            return False
        row = self._membership_row(child)
        return row is not None and row["parent"] == parent.surrogate

    def next_sibling(self, child):
        """The S-edge successor of *child*, or None."""
        row = self._membership_row(child)
        later = row and self.walk(row["parent"], after=row["order_key"])
        return self.schema.instance(later[0]["child"]) if later else None

    def previous_sibling(self, child):
        """The S-edge predecessor of *child*, or None."""
        row = self._membership_row(child)
        earlier = row and self.walk(row["parent"], before=row["order_key"])
        return self.schema.instance(earlier[-1]["child"]) if earlier else None

    def parents(self):
        """All parent instances that currently have children, in surrogate order."""
        seen = {}
        for row in self.table:
            seen.setdefault(row["parent"], None)
        return [self.schema.instance(s) for s in sorted(seen)]

    def roots(self):
        """Parents that are not themselves children (tops of the hierarchy).

        For non-recursive orderings this equals :meth:`parents`.
        """
        member_children = {row["child"] for row in self.table}
        return [p for p in self.parents() if p.surrogate not in member_children]

    def descendants(self, parent):
        """Pre-order walk of the subtree rooted at *parent* (recursive form)."""
        out = []
        for child in self.children(parent):
            out.append(child)
            if child.type.name == self.parent_type:
                out.extend(self.descendants(child))
        return out

    def depth_of(self, child):
        """Number of P-edges from *child* up to a root."""
        self._check_child(child)
        return sum(1 for _ in self._ancestors(child))

    def references(self, surrogate):
        """True if the ordering mentions the entity *surrogate*."""
        return bool(
            self.table.select_eq("child", surrogate)
            or self.table.select_eq("parent", surrogate)
        )

    def table_size(self):
        return len(self.table)

    def check_invariants(self):
        """Verify key distinctness, index consistency, and acyclicity.

        Logical positions are the ranks of distinct order keys, so the
        contiguous-1..n contract of the public API holds exactly when
        each parent's keys are distinct and the composite index agrees
        with the heap; both are checked here.  Used by tests and by the
        MDM's consistency checker.
        """
        by_parent = {}
        for row in self.table:
            key = row["order_key"]
            if not isinstance(key, int) or abs(key) > 2 * _KEY_LIMIT:
                raise IntegrityError(
                    "ordering %r: bad order key %r on row #%d"
                    % (self.name, key, row.rowid)
                )
            by_parent.setdefault(row["parent"], []).append(key)
            if row.rowid not in self._order_index.lookup((row["parent"], key)):
                raise IntegrityError(
                    "ordering %r: row #%d missing from the order index"
                    % (self.name, row.rowid)
                )
        for parent_surrogate, keys in by_parent.items():
            if len(set(keys)) != len(keys):
                raise IntegrityError(
                    "ordering %r: duplicate order keys under parent #%d: %r"
                    % (self.name, parent_surrogate, sorted(keys))
                )
            start, stop = self._bounds(parent_surrogate)
            if stop - start != len(keys):
                raise IntegrityError(
                    "ordering %r: order index out of sync under parent #%d"
                    % (self.name, parent_surrogate)
                )
        child_parent = {row["child"]: row["parent"] for row in self.table}
        if len(child_parent) != len(self.table):
            raise IntegrityError(
                "ordering %r: a child appears under two parents" % self.name
            )
        for start in child_parent:
            seen = set()
            current = start
            while current in child_parent:
                if current in seen:
                    raise OrderingCycleError(
                        "ordering %r: P-edge cycle through #%d" % (self.name, current)
                    )
                seen.add(current)
                current = child_parent[current]

    def ddl(self):
        """The ``define ordering`` statement for this ordering."""
        return "define ordering %s (%s) under %s" % (
            self.name,
            ", ".join(self.child_types),
            self.parent_type,
        )

    def __repr__(self):
        return "Ordering(%r: (%s) under %s)" % (
            self.name,
            ", ".join(self.child_types),
            self.parent_type,
        )
