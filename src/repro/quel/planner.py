"""Query planning: conjunct extraction, the restrictions an index can
answer, variable ordering for the backtracking join, and the plan the
executor publishes (:mod:`repro.quel.sources` picks the access paths).

The "planner" is deliberately simple -- this is a design-paper
reproduction, not a query-optimization paper -- but it does implement
the section 5.2 observation: an equality restriction on an indexed
attribute is answered from the index instead of a heap scan.
"""

from repro.quel import ast


def split_conjuncts(qualification):
    """Flatten top-level ``and`` nodes into a conjunct list."""
    if qualification is None:
        return []
    if isinstance(qualification, ast.And):
        return split_conjuncts(qualification.left) + split_conjuncts(
            qualification.right
        )
    return [qualification]


def variables_in(node):
    """The set of range-variable names an AST node references (every
    node class declares its fields in ``__slots__``)."""
    if isinstance(node, (ast.VariableRef, ast.AttributeRef, ast.MatchClause)):
        return {node.variable}
    out = set()
    for field in getattr(node, "__slots__", ()):
        child = getattr(node, field)
        for item in child if isinstance(child, list) else (child,):
            out |= variables_in(item)
    return out


def equality_restriction(conjunct, variable):
    """If *conjunct* is ``variable.attr = literal`` (either side),
    return ``(attr, literal node)``; else None.

    These restrictions are pushed into index lookups when generating a
    variable's candidate set; the node rather than its value, because
    the value of a bound literal is the executing statement's.
    """
    if not isinstance(conjunct, ast.Comparison) or conjunct.operator != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(right, ast.AttributeRef) and isinstance(left, ast.Literal):
        left, right = right, left
    if (
        isinstance(left, ast.AttributeRef)
        and left.variable == variable
        and isinstance(right, ast.Literal)
    ):
        return (left.attribute, right)
    return None


def text_restriction(conjunct, variable):
    """If *conjunct* is a text gate over *variable*, return
    ``(attribute, operator, query, threshold)``; else None.

    These prune through the trigram index ("index text" access) and,
    unlike equality restrictions, are never marked as answered: index
    candidates are a superset the exact predicate re-verifies.
    """
    if isinstance(conjunct, ast.MatchClause) and conjunct.variable == variable:
        return (
            conjunct.attribute, conjunct.operator,
            conjunct.query, conjunct.threshold,
        )
    return None


def order_variables(variables, sources, conjuncts):
    """Choose a binding order: smallest candidate sets (``sources[v].
    count``) first, breaking ties toward variables connected to
    already-ordered ones (so join predicates apply as early as
    possible).  *conjuncts* are compiled: each knows its ``variables``."""
    if len(variables) < 2:
        return list(variables)  # nothing to order
    remaining = set(variables)
    ordered = []
    bound = set()
    while remaining:
        def connectivity(variable):
            return sum(
                1 for conjunct in conjuncts
                if variable in conjunct.variables and conjunct.variables & bound
            )

        best = min(
            sorted(remaining),
            key=lambda v: (-connectivity(v), sources[v].count, v),
        )
        ordered.append(best)
        remaining.discard(best)
        bound.add(best)
    return ordered


class PlanStep:
    """One binding step of a query plan: bind *variable* using
    *access*, its source's label (:mod:`repro.quel.sources` says what
    each is), over *candidates* rows -- the source's count, which for
    "index text stream" is the posting-length estimate and for "order
    range" the membership table's size."""

    __slots__ = ("variable", "access", "candidates")

    def __init__(self, variable, access, candidates):
        self.variable = variable
        self.access = access
        self.candidates = candidates

    def describe(self):
        return "bind %s via %s (%d candidates)" % (
            self.variable, self.access, self.candidates
        )

    def __repr__(self):
        return "PlanStep(%s)" % self.describe()


class QueryPlan:
    """The chosen plan for one statement: an ordered list of PlanSteps.

    ``render()`` produces the ``last_plan`` text (memoized -- the
    executor builds a QueryPlan per statement but the string only when
    someone reads it); ``rows()`` the result-set shape ``explain``
    returns; ``label`` the compact access-path summary the planner test
    sweep asserts on.  ``snapshot`` is None for a locked statement and
    ``(pinned LSN, stale rowids the index reads took in)`` for a pinned
    one -- what ``explain analyze`` adds a line for.
    """

    __slots__ = ("steps", "snapshot", "_text")

    def __init__(self, steps):
        self.steps = list(steps)
        self.snapshot = None
        self._text = None

    @property
    def label(self):
        """Access paths in binding order, e.g. ``index+scan``
        (``constant`` for a plan with no range variables)."""
        if not self.steps:
            return "constant"
        return "+".join(step.access for step in self.steps)

    def render(self):
        if self._text is None:
            lines = ["plan:"]
            for step in self.steps:
                lines.append("  " + step.describe())
            self._text = "\n".join(lines)
        return self._text

    def rows(self):
        """The plan as a list of single-column result dicts."""
        if not self.steps:
            return [{"plan": "constant (no range variables)"}]
        return [{"plan": step.describe()} for step in self.steps]

    def __repr__(self):
        return "QueryPlan(%s)" % self.label


def build_plan(binding_order, sources):
    """The QueryPlan of *binding_order* over its chosen *sources*
    (:mod:`repro.quel.sources`): each step reads its source's ``access``
    and ``count``."""
    return QueryPlan(
        PlanStep(variable, sources[variable].access, sources[variable].count)
        for variable in binding_order
    )
