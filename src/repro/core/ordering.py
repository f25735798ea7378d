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
sibling shifts.  An ordered composite index over ``(parent, order_key)``
answers ordinal and neighbor queries by bisect + slot arithmetic, and a
per-ordering position cache (invalidated by the table's mutation
version, so transaction undo and recovery invalidate it too) keeps
``position_of`` O(1) amortized.  The public API is unchanged: positions
remain contiguous, 1-based logical ordinals.
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

    def _assert_no_p_cycle(self, parent, child):
        """Reject P-edge cycles: *child* may not be an ancestor of *parent*.

        Only recursive orderings can produce such cycles, but the walk is
        cheap and correct in every case.
        """
        current = parent
        seen = set()
        while current is not None:
            if current.surrogate == child.surrogate:
                raise OrderingCycleError(
                    "placing %r under %r creates a P-edge cycle in ordering %r"
                    % (child, parent, self.name)
                )
            if current.surrogate in seen:
                raise OrderingCycleError(
                    "existing P-edge cycle detected at %r in ordering %r"
                    % (current, self.name)
                )
            seen.add(current.surrogate)
            if current.type.name in self.child_types:
                current = self.parent_of(current)
            else:
                current = None

    # -- order-key plumbing -----------------------------------------------------

    def _bounds(self, parent_surrogate):
        """Index slots [start, stop) holding this parent's siblings."""
        return self._order_index.prefix_bounds((parent_surrogate,))

    def _sibling_count(self, parent_surrogate):
        start, stop = self._bounds(parent_surrogate)
        return stop - start

    def _row_at_slot(self, slot):
        return self.table.get(self._order_index.rowids_at(slot)[0])

    def _key_at_slot(self, slot):
        return self._row_at_slot(slot)["order_key"]

    def _rank(self, row):
        """1-based logical position of a membership *row* among siblings."""
        start, _ = self._bounds(row["parent"])
        slot = self._order_index.rank((row["parent"], row["order_key"]))
        return slot - start + 1

    def _ordered_child_rows(self, parent_surrogate):
        start, stop = self._bounds(parent_surrogate)
        return self.table.get_many(self._order_index.rowids_slice(start, stop))

    # -- membership rows for query pushdown ------------------------------------
    #
    # The QUEL executor answers ``x under p`` / ``x before y`` conjuncts
    # with one side bound by range-scanning the (parent, order_key)
    # index instead of testing every candidate pair.  These helpers
    # expose membership rows (parent/child/order_key) in sibling order,
    # materialized in one batched pass.

    def member_row_of(self, child):
        """The membership row of *child*, or None."""
        return self._membership_row(child)

    def member_rows_under(self, parent_surrogate):
        """All membership rows under *parent_surrogate*, in order."""
        return self._ordered_child_rows(parent_surrogate)

    def member_rows_before(self, row):
        """Membership rows of siblings strictly before *row*, in order."""
        start, _stop = self._bounds(row["parent"])
        slot = self._order_index.rank((row["parent"], row["order_key"]))
        return self.table.get_many(self._order_index.rowids_slice(start, slot))

    def member_rows_after(self, row):
        """Membership rows of siblings strictly after *row*, in order."""
        _start, stop = self._bounds(row["parent"])
        slot = self._order_index.rank((row["parent"], row["order_key"]))
        return self.table.get_many(self._order_index.rowids_slice(slot + 1, stop))

    def _rebalance(self, parent_surrogate):
        """Rewrite one parent's sibling keys to evenly spaced multiples.

        This is the only O(n)-write operation left, and it runs only when
        midpoint insertion exhausts a gap (or keys approach the exact-
        float limit) -- amortized over the ~log2(_GAP) single-row inserts
        each gap admits.
        """
        rows = self._ordered_child_rows(parent_surrogate)
        for index, row in enumerate(rows):
            key = (index + 1) * _GAP
            if row["order_key"] != key:
                self.table.update(row.rowid, {"order_key": key})

    def _allocate_key(self, parent_surrogate, position):
        """An order key placing a new child at 1-based *position*.

        *position* must already be validated against the sibling count.
        May rebalance the parent's siblings once when gaps are exhausted.
        """
        for _ in range(2):
            start, stop = self._bounds(parent_surrogate)
            count = stop - start
            if count == 0:
                return 0
            if position == 1:
                key = self._key_at_slot(start) - _GAP
                if key > -_KEY_LIMIT:
                    return key
            elif position == count + 1:
                key = self._key_at_slot(stop - 1) + _GAP
                if key < _KEY_LIMIT:
                    return key
            else:
                low = self._key_at_slot(start + position - 2)
                high = self._key_at_slot(start + position - 1)
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
        parent_surrogate = row["parent"]
        count = self._sibling_count(parent_surrogate)
        if new_position < 1 or new_position > count:
            raise OrderingMembershipError(
                "position %d out of range 1..%d in ordering %r"
                % (new_position, count, self.name)
            )
        for _ in range(2):
            start, _stop = self._bounds(parent_surrogate)
            rank = self._rank(row)
            if new_position == rank:
                return
            # Slots of the would-be neighbors in the full sibling list;
            # the child's own slot (rank - 1) never appears among them.
            if new_position < rank:
                left_slot = new_position - 2
                right_slot = new_position - 1
            else:
                left_slot = new_position - 1
                right_slot = new_position
            if new_position == 1:
                key = self._key_at_slot(start + right_slot) - _GAP
                if key > -_KEY_LIMIT:
                    self.table.update(row.rowid, {"order_key": key})
                    return
            elif new_position == count:
                key = self._key_at_slot(start + left_slot) + _GAP
                if key < _KEY_LIMIT:
                    self.table.update(row.rowid, {"order_key": key})
                    return
            else:
                low = self._key_at_slot(start + left_slot)
                high = self._key_at_slot(start + right_slot)
                if high - low >= 2:
                    self.table.update(row.rowid, {"order_key": (low + high) // 2})
                    return
            self._rebalance(parent_surrogate)
            row = self.table.get(row.rowid)
        raise IntegrityError(
            "ordering %r: could not allocate an order key under parent #%d"
            % (self.name, parent_surrogate)
        )

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
            for row in self._ordered_child_rows(parent.surrogate)
        ]

    def child_at(self, parent, position):
        """The child at ordinal *position* (1-based), or None.

        Supports queries like "the third note in chord x" (section 5.4).
        """
        self._check_parent(parent)
        start, stop = self._bounds(parent.surrogate)
        if position < 1 or position > stop - start:
            return None
        row = self._row_at_slot(start + position - 1)
        return self.schema.instance(row["child"])

    def parent_of(self, child):
        """The parent of *child* in this ordering, or None."""
        self._check_child(child)
        row = self._membership_row(child)
        if row is None:
            return None
        return self.schema.instance(row["parent"])

    def position_of(self, child):
        """The 1-based ordinal of *child* under its parent, or None.

        Memoized per table version: repeated ordinal queries between
        mutations are O(1), and any mutation (including transaction undo
        and recovery, which bypass this class) invalidates the cache.

        Under a pinned MVCC snapshot both the memo cache and the
        (parent, order_key) index mirror the *live* table, so the rank
        is computed instead by counting the visible siblings (two
        ``select_eq`` look-ups, which run pinned) that sort earlier --
        O(siblings) per call, but lock-free and consistent.
        """
        self._check_child(child)
        if self.table.snapshot_active():
            row = self._membership_row(child)
            if row is None:
                return None
            siblings = self.table.select_eq("parent", row["parent"])
            return 1 + sum(
                1 for sibling in siblings
                if sibling["order_key"] < row["order_key"]
            )
        if self._positions_version != self.table.version:
            self._positions.clear()
            self._positions_version = self.table.version
        try:
            return self._positions[child.surrogate]
        except KeyError:
            pass
        row = self._membership_row(child)
        position = None if row is None else self._rank(row)
        self._positions[child.surrogate] = position
        return position

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
        if row is None:
            return None
        _start, stop = self._bounds(row["parent"])
        slot = self._order_index.rank((row["parent"], row["order_key"]))
        if slot + 1 >= stop:
            return None
        return self.schema.instance(self._row_at_slot(slot + 1)["child"])

    def previous_sibling(self, child):
        row = self._membership_row(child)
        if row is None:
            return None
        start, _stop = self._bounds(row["parent"])
        slot = self._order_index.rank((row["parent"], row["order_key"]))
        if slot <= start:
            return None
        return self.schema.instance(self._row_at_slot(slot - 1)["child"])

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
        depth = 0
        current = self.parent_of(child)
        guard = 0
        while current is not None:
            depth += 1
            guard += 1
            if guard > self.table_size() + 1:
                raise OrderingCycleError(
                    "P-edge cycle detected while computing depth in %r" % self.name
                )
            if current.type.name in self.child_types:
                current = self.parent_of(current)
            else:
                current = None
        return depth

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
