"""AST nodes for QUEL statements, expressions, and qualifications."""


class RangeStatement:
    """``range of v1, v2 is TYPE``"""

    __slots__ = ("variables", "entity_type")

    def __init__(self, variables, entity_type):
        self.variables = list(variables)
        self.entity_type = entity_type

    def __repr__(self):
        return "range of %s is %s" % (", ".join(self.variables), self.entity_type)


class RetrieveStatement:
    """``retrieve [unique] (targets) [where qual]
    [sort by expr [descending]] [limit N]``"""

    __slots__ = ("targets", "where", "unique", "sort_by", "descending", "limit")

    def __init__(self, targets, where=None, unique=False, sort_by=None,
                 descending=False, limit=None):
        self.targets = list(targets)
        self.where = where
        self.unique = unique
        self.sort_by = sort_by
        self.descending = descending
        self.limit = limit

    def __repr__(self):
        return "retrieve (%d targets)" % len(self.targets)


class AppendStatement:
    """``append to TYPE (attr = expr, ...) [where qual]``"""

    __slots__ = ("entity_type", "assignments", "where")

    def __init__(self, entity_type, assignments, where=None):
        self.entity_type = entity_type
        self.assignments = list(assignments)
        self.where = where


class ReplaceStatement:
    """``replace var (attr = expr, ...) [where qual]``"""

    __slots__ = ("variable", "assignments", "where")

    def __init__(self, variable, assignments, where=None):
        self.variable = variable
        self.assignments = list(assignments)
        self.where = where


class DeleteStatement:
    """``delete var [where qual]``"""

    __slots__ = ("variable", "where")

    def __init__(self, variable, where=None):
        self.variable = variable
        self.where = where


class ExplainStatement:
    """``explain [analyze] <statement>`` -- show the plan; with
    ``analyze``, also execute and report actual rows/visits/timing."""

    __slots__ = ("statement", "analyze")

    def __init__(self, statement, analyze=False):
        self.statement = statement
        self.analyze = analyze

    def __repr__(self):
        return "explain%s %r" % (" analyze" if self.analyze else "", self.statement)


class Target:
    """One retrieve target: an expression with an optional result name."""

    __slots__ = ("name", "expression")

    def __init__(self, name, expression):
        self.name = name
        self.expression = expression


# -- expressions ------------------------------------------------------------


class Literal:
    """A constant value (number or string).

    *slot* is the index of the source token it was read from among the
    source's literals (``Token.slot``), None for a literal no token
    stands behind.  A parse shared by every statement of one shape says
    where a value goes, not what it is: for the slots a plan leaves
    *bound* (:func:`repro.quel.compile.bound_slots`) the value is read
    from the executing statement's literal vector, and *value* -- the
    first such statement's -- only from a bare AST run on its own.
    """

    __slots__ = ("value", "slot")

    def __init__(self, value, slot=None):
        self.value = value
        self.slot = slot

    def __repr__(self):
        return "Literal(%r)" % (self.value,)


class AttributeRef:
    """``variable.attribute``"""

    __slots__ = ("variable", "attribute")

    def __init__(self, variable, attribute):
        self.variable = variable
        self.attribute = attribute

    def __repr__(self):
        return "%s.%s" % (self.variable, self.attribute)


class VariableRef:
    """A bare range variable used as an entity operand."""

    __slots__ = ("variable",)

    def __init__(self, variable):
        self.variable = variable

    def __repr__(self):
        return "VariableRef(%s)" % self.variable


class BinaryOp:
    """Arithmetic: ``left (+|-|*|/|%) right``"""

    __slots__ = ("operator", "left", "right")

    def __init__(self, operator, left, right):
        self.operator = operator
        self.left = left
        self.right = right


class FunctionCall:
    """Scalar or aggregate function application."""

    __slots__ = ("name", "arguments")

    def __init__(self, name, arguments):
        self.name = name
        self.arguments = list(arguments)

    def __repr__(self):
        return "%s(%d args)" % (self.name, len(self.arguments))


# -- qualifications ------------------------------------------------------------


class Comparison:
    """``left (=|!=|<|<=|>|>=) right`` over value expressions."""

    __slots__ = ("operator", "left", "right")

    def __init__(self, operator, left, right):
        self.operator = operator
        self.left = left
        self.right = right


class IsClause:
    """``a is b`` -- entity equivalence (GEM's operator)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class OrderClause:
    """``a before|after b [in order_name]`` (section 5.6)."""

    __slots__ = ("operator", "left", "right", "order_name")

    def __init__(self, operator, left, right, order_name=None):
        self.operator = operator  # "before" or "after"
        self.left = left
        self.right = right
        self.order_name = order_name


class UnderClause:
    """``child under parent [in order_name]`` (section 5.6)."""

    __slots__ = ("child", "parent", "order_name")

    def __init__(self, child, parent, order_name=None):
        self.child = child
        self.parent = parent
        self.order_name = order_name


class MatchClause:
    """Text-search gate: ``matches(v.attr, "q")`` or
    ``similar_to(v.attr, "q", threshold)`` used as a qualification.

    *operator* is ``"matches"`` (normalized substring containment) or
    ``"similar_to"`` (trigram Jaccard >= *threshold*; threshold is
    None for ``matches``).  The query and threshold are literals, so
    the planner can lower the gate onto a trigram index at compile
    time.
    """

    __slots__ = ("operator", "variable", "attribute", "query", "threshold")

    def __init__(self, operator, variable, attribute, query, threshold=None):
        self.operator = operator
        self.variable = variable
        self.attribute = attribute
        self.query = query
        self.threshold = threshold

    def __repr__(self):
        if self.operator == "matches":
            return "matches(%s.%s, %r)" % (
                self.variable, self.attribute, self.query
            )
        return "similar_to(%s.%s, %r, %r)" % (
            self.variable, self.attribute, self.query, self.threshold
        )


class And:
    """Conjunction of two qualifications."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Or:
    """Disjunction of two qualifications."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Not:
    """Negation of a qualification."""

    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand
