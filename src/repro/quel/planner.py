"""Query planning: conjunct extraction, candidate generation, and
variable ordering for the backtracking join.

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
    """The set of range-variable names an AST node references."""
    if node is None:
        return set()
    if isinstance(node, ast.VariableRef):
        return {node.variable}
    if isinstance(node, ast.AttributeRef):
        return {node.variable}
    if isinstance(node, ast.Literal):
        return set()
    if isinstance(node, ast.BinaryOp):
        return variables_in(node.left) | variables_in(node.right)
    if isinstance(node, ast.FunctionCall):
        out = set()
        for argument in node.arguments:
            out |= variables_in(argument)
        return out
    if isinstance(node, ast.Comparison):
        return variables_in(node.left) | variables_in(node.right)
    if isinstance(node, ast.IsClause):
        return variables_in(node.left) | variables_in(node.right)
    if isinstance(node, ast.OrderClause):
        return variables_in(node.left) | variables_in(node.right)
    if isinstance(node, ast.UnderClause):
        return variables_in(node.child) | variables_in(node.parent)
    if isinstance(node, ast.MatchClause):
        return {node.variable}
    if isinstance(node, (ast.And, ast.Or)):
        return variables_in(node.left) | variables_in(node.right)
    if isinstance(node, ast.Not):
        return variables_in(node.operand)
    if isinstance(node, ast.Target):
        return variables_in(node.expression)
    return set()


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

    These are pushed into trigram-index candidate retrieval ("index
    text" access).  Unlike equality restrictions they are *never*
    marked as consumed: index candidates are a superset, and the exact
    predicate re-verifies every materialized row.
    """
    if isinstance(conjunct, ast.MatchClause) and conjunct.variable == variable:
        return (
            conjunct.attribute, conjunct.operator,
            conjunct.query, conjunct.threshold,
        )
    return None


def order_variables(variables, candidate_counts, conjuncts):
    """Choose a binding order: smallest candidate sets first, breaking
    ties toward variables connected to already-ordered ones (so join
    predicates apply as early as possible)."""
    if len(variables) < 2:
        return list(variables)  # nothing to order: skip the conjunct walk
    remaining = set(variables)
    ordered = []
    bound = set()
    while remaining:
        def connectivity(variable):
            score = 0
            for conjunct in conjuncts:
                used = variables_in(conjunct)
                if variable in used and (used - {variable}) & bound:
                    score += 1
            return score

        best = min(
            sorted(remaining),
            key=lambda v: (-connectivity(v), candidate_counts.get(v, 0), v),
        )
        ordered.append(best)
        remaining.discard(best)
        bound.add(best)
    return ordered


class PlanStep:
    """One binding step of a query plan: bind *variable* using *access*
    ("index", "index text", "index text topk", "index text stream",
    "filtered scan", "scan", or "order range" -- "index text" when a
    trigram index pruned the candidates, "index text topk" when a
    ranked ``limit N`` retrieve additionally streams gate candidates
    best-overlap-first and stops fetching once the Nth score beats the
    remaining upper bound, "index text stream" when an unsorted ``limit
    N`` retrieve consumes the posting intersection lazily and stops
    after N verified rows (*candidates* is then the posting-length
    estimate, not an exact count), "order range" when an order-operator
    conjunct enumerates the variable by (parent, order_key) index range
    scan) over *candidates* rows."""

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

    ``render()`` produces the legacy ``last_plan`` text (memoized -- the
    executor builds a QueryPlan per statement but the string only when
    someone reads it); ``rows()`` produces the result-set shape the
    ``explain`` statement returns; ``label`` is the compact access-path
    summary the planner test sweep asserts on.  ``snapshot`` is None
    for a locked statement and ``(pinned LSN, stale rowids the index
    reads took in)`` for a pinned one -- what ``explain analyze`` adds a
    line for.
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


def build_plan(binding_order, candidate_counts, accesses):
    """Assemble a QueryPlan from the executor's planning artifacts.

    *accesses* maps each variable to the access path its candidate set
    was generated with; a plain set of index-backed variables is also
    accepted for compatibility.
    """
    steps = []
    for variable in binding_order:
        if isinstance(accesses, dict):
            access = accesses.get(variable, "scan")
        else:
            access = "index" if variable in accesses else "scan"
        steps.append(PlanStep(variable, access, candidate_counts.get(variable, 0)))
    return QueryPlan(steps)
