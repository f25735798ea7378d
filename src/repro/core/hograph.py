"""Hierarchical ordering graphs: the schema-level formalism (section 5.5).

An HO graph has one node per entity type (grouped when an ordering is
inhomogeneous) and one edge per ``define ordering`` statement, from the
child types to the parent type.  The module also classifies each
ordering into the paper's five structural forms and renders the graph
as ASCII and DOT.
"""

import enum

from repro.core.catalog import META_NAMES


class OrderingForm(enum.Enum):
    """The structural forms of hierarchical ordering named in section 5.5."""

    SIMPLE = "simple"
    MULTI_LEVEL = "multiple levels of hierarchy"
    MULTIPLE_ORDERINGS_UNDER_PARENT = "multiple orderings under a parent"
    INHOMOGENEOUS = "inhomogeneous ordering"
    MULTIPLE_PARENTS = "multiple parents"
    RECURSIVE = "recursive ordering"


class HOGraph:
    """The HO graph of a schema's orderings -- the meta-schema's own
    (section 6) left out unless named -- or of a subset of them."""

    def __init__(self, schema, ordering_names=None):
        self.schema = schema
        if ordering_names is None:
            ordering_names = sorted(set(schema.orderings) - META_NAMES)
        self.orderings = [schema.ordering(name) for name in ordering_names]

    # -- structure ---------------------------------------------------------------

    def entity_types(self):
        """Every entity type mentioned by the included orderings (sorted)."""
        names = set()
        for ordering in self.orderings:
            names.add(ordering.parent_type)
            names.update(ordering.child_types)
        return sorted(names)

    def edges(self):
        """(ordering_name, child_types, parent_type) per ordering."""
        return [
            (o.name, tuple(o.child_types), o.parent_type) for o in self.orderings
        ]

    def classify(self, ordering):
        """The set of section-5.5 forms the given ordering exhibits."""
        forms = set()
        if ordering.is_recursive:
            forms.add(OrderingForm.RECURSIVE)
        if ordering.is_inhomogeneous:
            forms.add(OrderingForm.INHOMOGENEOUS)
        parent_orderings = [
            o for o in self.orderings if o.parent_type == ordering.parent_type
        ]
        if len(parent_orderings) > 1:
            forms.add(OrderingForm.MULTIPLE_ORDERINGS_UNDER_PARENT)
        for child in ordering.child_types:
            child_orderings = [
                o for o in self.orderings if child in o.child_types
            ]
            if len(child_orderings) > 1:
                forms.add(OrderingForm.MULTIPLE_PARENTS)
            # A child that is a parent elsewhere => multiple levels.
            if any(
                o is not ordering and o.parent_type == child for o in self.orderings
            ):
                forms.add(OrderingForm.MULTI_LEVEL)
        if ordering.parent_type not in ordering.child_types and any(
            ordering.parent_type in o.child_types for o in self.orderings
        ):
            forms.add(OrderingForm.MULTI_LEVEL)
        if not forms:
            forms.add(OrderingForm.SIMPLE)
        return forms

    def classification(self):
        """ordering name -> sorted list of form values."""
        return {
            o.name: sorted(form.value for form in self.classify(o))
            for o in self.orderings
        }

    def validate(self):
        """Reject type-level P-cycles among *non-recursive* orderings.

        Recursive orderings legitimately point a type at itself; a cycle
        through two or more distinct types with no recursion declared is
        a modeling error worth flagging.
        """
        adjacency = {}
        for ordering in self.orderings:
            if ordering.is_recursive:
                continue
            for child in ordering.child_types:
                adjacency.setdefault(child, set()).add(ordering.parent_type)
        state = {}

        def visit(node, stack):
            state[node] = "grey"
            stack.append(node)
            for parent in sorted(adjacency.get(node, ())):
                if state.get(parent) == "grey":
                    cycle = stack[stack.index(parent):] + [parent]
                    return cycle
                if parent not in state:
                    found = visit(parent, stack)
                    if found:
                        return found
            stack.pop()
            state[node] = "black"
            return None

        for node in sorted(adjacency):
            if node not in state:
                cycle = visit(node, [])
                if cycle:
                    return cycle
        return None

    def topological_levels(self):
        """Entity types grouped by depth: roots (never children) first."""
        child_of = {}
        for ordering in self.orderings:
            for child in ordering.child_types:
                if child != ordering.parent_type:
                    child_of.setdefault(child, set()).add(ordering.parent_type)
        depth = {}

        def depth_of(name, trail):
            if name in depth:
                return depth[name]
            if name in trail:
                return 0  # cycle guard; validate() reports real errors
            parents = child_of.get(name)
            if not parents:
                depth[name] = 0
                return 0
            value = 1 + max(depth_of(p, trail | {name}) for p in parents)
            depth[name] = value
            return value

        for name in self.entity_types():
            depth_of(name, frozenset())
        levels = {}
        for name, level in depth.items():
            levels.setdefault(level, []).append(name)
        return [sorted(levels[level]) for level in sorted(levels)]

    # -- renderings -----------------------------------------------------------------

    def to_ascii(self):
        """Deterministic text form: one line per HO-graph edge."""
        lines = ["HO graph (%d orderings)" % len(self.orderings)]
        for name, children, parent in self.edges():
            child_box = " | ".join(children) if len(children) > 1 else children[0]
            marker = " (recursive)" if parent in children else ""
            lines.append("  [%s] ==%s==> [%s]%s" % (child_box, name, parent, marker))
        return "\n".join(lines)

    def to_dot(self, graph_name="ho_graph"):
        lines = ["digraph %s {" % graph_name, "  rankdir=BT;", "  node [shape=box];"]
        for name in self.entity_types():
            lines.append('  "%s";' % name)
        for name, children, parent in self.edges():
            for child in children:
                lines.append('  "%s" -> "%s" [label="%s"];' % (child, parent, name))
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return "HOGraph(%d types, %d orderings)" % (
            len(self.entity_types()),
            len(self.orderings),
        )
