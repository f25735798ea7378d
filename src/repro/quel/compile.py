"""Compilation of QUEL statements to Python closures.

Walking the qualification AST for every candidate binding is what makes
a query slow, so this module lowers a statement once into a
:class:`CompiledStatement`: every expression and conjunct becomes
a closure of signature ``fn(rt, bindings)`` (*rt* is the executing
:class:`~repro.quel.executor.QuelSession`), constant subexpressions are
folded at compile time, equality restrictions and order-operator
pushdown opportunities are annotated, and retrieve targets / mutation
assignments are pre-split and pre-compiled.

Compiled artifacts are session-independent: closures reach all runtime
state (schema, function registry, orderings) through *rt*, so a plan
compiled by one session can be executed by any session whose range
bindings match -- which is what the shape cache in
:mod:`repro.quel.cache` keys a plan on, together with the database
schema epoch.  They are statement-independent too: a *bound* literal
(see below) compiles to a read of the executing statement's literal
vector, which travels on *rt*'s thread-local beside the execution
limits, never on the plan, so every statement of one shape -- on any
session or thread -- runs the same plan with its own values.
"""

import operator as _operator

from repro.core.entity import EntityInstance
from repro.errors import QueryError
from repro.quel import ast
from repro.quel import planner
from repro.quel.functions import SCALARS

_COMPARISONS = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


# -- bound and pinned literals -----------------------------------------------
#
# A parse is shared by every statement of one shape, so it can leave a
# literal *bound* -- a slot the closure reads from the executing
# statement's literal vector -- or *pinned*: its value is part of what
# is cached, and a statement with another value there is another cache
# entry.  Pinned is the default, and the safe one.  A literal is bound
# only where it survives parsing as an ``ast.Literal`` node that the
# table below does not name: comparison and arithmetic operands,
# assignment values, targets.  Everything else is pinned -- the literals
# the grammar itself consumes (``limit N``, the query and threshold of
# a ``matches`` / ``similar_to`` gate, which planning lowers onto the
# trigram index) and the function arguments named here, whose values
# compile folds.

#: function name -> positions of the literal arguments compile folds:
#: ``similarity(x, "q")`` to a prebuilt scorer (and, as a sort key, to
#: the top-k source's overlap bound), ``ordinal(v, "name")`` to its
#: ordering.
PINNED_ARGUMENTS = {"similarity": (1,), "ordinal": (1,)}


def bound_slots(node, into=None):
    """The slots of the literals under *node* (an AST node, or a list
    or tuple of them) that are bound, by the rule above."""
    if into is None:
        into = set()
    if isinstance(node, ast.Literal):
        if node.slot is not None:
            into.add(node.slot)
    elif isinstance(node, (list, tuple)):
        for item in node:
            bound_slots(item, into)
    elif isinstance(node, ast.FunctionCall):
        pinned = PINNED_ARGUMENTS.get(node.name, ())
        for position, argument in enumerate(node.arguments):
            if position in pinned and isinstance(argument, ast.Literal):
                continue
            bound_slots(argument, into)
    else:
        # Every node class declares its fields in ``__slots__``.
        for field in getattr(node, "__slots__", ()):
            bound_slots(getattr(node, field), into)
    return into


# -- compiled artifacts ----------------------------------------------------------


class CompiledConjunct:
    """One top-level conjunct: its AST node, referenced variables, and a
    compiled truth closure ``truth(rt, bindings) -> bool``."""

    __slots__ = ("node", "variables", "truth")

    def __init__(self, node, variables, truth):
        self.node = node
        self.variables = variables
        self.truth = truth


class PushdownOption:
    """One way to answer an order-operator conjunct by index range scan:
    with *driver_var* bound, enumerate *enum_var* from the ordering's
    ``(parent, order_key)`` index.  *mode* is the enumerated side's
    relation to the driver: ``under`` (children of the driver), or
    ``before`` / ``after`` (siblings strictly before/after it)."""

    __slots__ = ("conjunct_index", "enum_var", "driver_var", "mode", "order_name")

    def __init__(self, conjunct_index, enum_var, driver_var, mode, order_name):
        self.conjunct_index = conjunct_index
        self.enum_var = enum_var
        self.driver_var = driver_var
        self.mode = mode
        self.order_name = order_name


class CompiledAggregate:
    """An aggregate retrieve target: *arg_fn* evaluates the call's one
    argument per binding."""

    __slots__ = ("name", "function_name", "arg_fn")

    def __init__(self, name, function_name, arg_fn):
        self.name = name
        self.function_name = function_name
        self.arg_fn = arg_fn


class CompiledStatement:
    """Everything the executor needs to run one statement without
    touching its AST again (except through prebuilt closures)."""

    __slots__ = (
        "statement", "kind", "used", "conjuncts", "restrictions",
        "restriction_conjuncts", "text_restrictions", "pushdown_options",
        "targets", "aggregates", "sort_fn", "sort_target", "assignments",
    )

    def __init__(self, statement, kind, used, conjuncts, restrictions,
                 restriction_conjuncts, pushdown_options, targets=None,
                 aggregates=None, sort_fn=None, assignments=None,
                 text_restrictions=None, sort_target=None):
        self.statement = statement
        self.kind = kind
        self.used = used
        self.conjuncts = conjuncts
        # variable -> [(attribute, fn), ...] for ``variable.attr =
        # literal`` conjuncts; planning calls ``fn(rt, None)`` for the
        # value to probe the index with.
        self.restrictions = restrictions
        self.restriction_conjuncts = restriction_conjuncts
        # variable -> [(attribute, operator, query, threshold), ...]
        # for matches/similar_to gates.  Never added to any skip set:
        # trigram candidates are a superset, so the gate's conjunct
        # still re-verifies every materialized row.
        self.text_restrictions = text_restrictions or {}
        self.pushdown_options = pushdown_options
        self.targets = targets
        self.aggregates = aggregates
        self.sort_fn = sort_fn
        # The name of the plain target whose expression *is* the sort
        # key (None: there is none): the tail reads the key off the
        # record instead of evaluating it a second time per row.
        self.sort_target = sort_target
        self.assignments = assignments


# -- the compiler ----------------------------------------------------------------


def _apply_binary(op, left, right):
    """QUEL arithmetic over two values: nulls propagate, exact integer
    division stays integral."""
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise QueryError("division by zero")
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return left // right
        return left / right
    if op == "%":
        if right == 0:
            raise QueryError("modulo by zero")
        return left % right
    raise QueryError("unknown operator %r" % op)


class Compiler:
    """Compiles one statement against a session's compile-time context
    (range-variable bindings, function registry, known orderings).
    *bound* is the set of literal slots read from the literal vector at
    run time; every other literal is the constant its node holds."""

    def __init__(self, session, bound=frozenset()):
        self.session = session
        self.bound = bound

    # -- value expressions -------------------------------------------------------

    def expression(self, node):
        """Public entry: compile *node* to ``fn(rt, bindings) -> value``."""
        fn, _, _ = self._expression(node)
        return fn

    def _expression(self, node):
        """Compile to ``(fn, is_constant, constant_value)``."""
        if isinstance(node, ast.Literal):
            slot = node.slot
            if slot in self.bound:
                return (
                    (lambda rt, bindings: rt._local.literals[slot]),
                    False, None,
                )
            value = node.value
            return (lambda rt, bindings: value), True, value
        if isinstance(node, ast.AttributeRef):
            variable, attribute = node.variable, node.attribute

            def attr_fn(rt, bindings):
                bound = bindings.get(variable)
                if bound is None:
                    raise QueryError("unbound range variable %r" % variable)
                return bound[attribute]

            return attr_fn, False, None
        if isinstance(node, ast.VariableRef):
            variable = node.variable

            def var_fn(rt, bindings):
                bound = bindings.get(variable)
                if bound is None:
                    raise QueryError("unbound range variable %r" % variable)
                if isinstance(bound, EntityInstance):
                    return bound.surrogate
                raise QueryError(
                    "relationship variable %r used as a value" % variable
                )

            return var_fn, False, None
        if isinstance(node, ast.BinaryOp):
            return self._binary_op(node)
        if isinstance(node, ast.FunctionCall):
            return self._function_call(node), False, None
        raise QueryError("cannot evaluate %r" % (node,))

    def _binary_op(self, node):
        op = node.operator
        left_fn, left_const, left_value = self._expression(node.left)
        right_fn, right_const, right_value = self._expression(node.right)
        if left_const and right_const:
            # Constant folding.  A folding error (division by zero) must
            # surface at evaluation time, not compile time: explain and
            # empty joins never evaluate the expression, so never raise.
            try:
                value = _apply_binary(op, left_value, right_value)
            except QueryError as error:
                message = str(error)

                def raising(rt, bindings, _message=message):
                    raise QueryError(_message)

                return raising, False, None
            return (lambda rt, bindings: value), True, value

        def binary_fn(rt, bindings):
            return _apply_binary(op, left_fn(rt, bindings), right_fn(rt, bindings))

        return binary_fn, False, None

    def _function_call(self, node):
        if node.name == "ordinal":
            return self._ordinal(node)
        folded = self._folded_similarity(node)
        if folded is not None:
            return folded
        name = node.name
        argument_fns = [self.expression(a) for a in node.arguments]
        # A builtin's arity is known here; a registered function's is its
        # own affair (the registry version is part of the plan key).
        builtin = SCALARS.get(name.lower())
        registered = self.session.functions.scalars.get(name.lower())
        if builtin is not None and registered is builtin:
            arity = builtin.__code__.co_argcount
            if len(argument_fns) != arity:
                raise QueryError(
                    "%s() takes %d argument(s), got %d"
                    % (name, arity, len(argument_fns))
                )

        def call_fn(rt, bindings):
            function = rt.functions.scalar(name)
            arguments = [fn(rt, bindings) for fn in argument_fns]
            try:
                return function(*arguments)
            except (TypeError, AttributeError, ZeroDivisionError) as error:
                if function is not builtin:
                    raise
                raise QueryError("%s(): %s" % (name, error)) from None

        return call_fn

    def _folded_similarity(self, node):
        """Constant-fold ``similarity(expr, "literal")`` to a prebuilt
        :class:`~repro.text.similarity.SimilarityScorer` call.

        The scorer derives the query's normalized form, trigram set,
        and token-sorted form once at compile time instead of per row —
        the difference between a ranked retrieve that scores 10 rows
        and one that re-folds its query string 120k times.  The literal
        is pinned (:data:`PINNED_ARGUMENTS`), so the fold is keyed on
        its value.  Only safe while the session resolves ``similarity``
        to the builtin; a re-registered function bumps the registry
        version, which is part of the plan key, so a stale fold can
        never be replayed against an overriding registry.
        """
        from repro.quel.functions import scalar_similarity
        from repro.text import SimilarityScorer

        if node.name != "similarity" or len(node.arguments) != 2:
            return None
        literal = node.arguments[1]
        if not isinstance(literal, ast.Literal) or not isinstance(
            literal.value, str
        ):
            return None
        try:
            builtin = self.session.functions.scalar("similarity")
        except QueryError:
            return None
        if builtin is not scalar_similarity:
            return None
        value_fn = self.expression(node.arguments[0])
        scorer = SimilarityScorer(literal.value)

        def scorer_fn(rt, bindings):
            value = value_fn(rt, bindings)
            if value is None:
                return 0.0
            if not isinstance(value, str):
                raise QueryError("similarity() expects strings")
            return scorer(value)

        return scorer_fn

    def _ordinal(self, node):
        if not 1 <= len(node.arguments) <= 2:
            raise QueryError("ordinal() takes a range variable and an "
                             "optional ordering name")
        operand_fn = self.entity_operand(node.arguments[0])
        order_name = None
        if len(node.arguments) == 2:
            name_node = node.arguments[1]
            if not isinstance(name_node, ast.Literal) or not isinstance(
                name_node.value, str
            ):
                raise QueryError("ordinal()'s second argument is an "
                                 "ordering name string")
            order_name = name_node.value

        def ordinal_fn(rt, bindings):
            instance = operand_fn(rt, bindings)
            if instance is None:
                return None
            if order_name is not None:
                ordering = rt.schema.ordering(order_name)
            else:
                ordering = rt._resolve_ordering(None, [instance])
            return ordering.position_of(instance)

        return ordinal_fn

    # -- entity operands ---------------------------------------------------------

    def entity_operand(self, node):
        """Compile an entity operand to ``fn(rt, bindings) -> instance``."""
        if isinstance(node, ast.VariableRef):
            variable = node.variable

            def var_operand(rt, bindings):
                bound = bindings.get(variable)
                if isinstance(bound, EntityInstance):
                    return bound
                raise QueryError(
                    "%r is not an entity range variable" % variable
                )

            return var_operand
        if isinstance(node, ast.AttributeRef):
            value_fn = self.expression(node)
            variable, attribute = node.variable, node.attribute

            def attr_operand(rt, bindings):
                value = value_fn(rt, bindings)
                if value is None:
                    return None
                if isinstance(value, int):
                    return rt.schema.instance(value)
                raise QueryError(
                    "%s.%s is not an entity reference" % (variable, attribute)
                )

            return attr_operand
        raise QueryError("bad entity operand %r" % (node,))

    # -- qualifications ----------------------------------------------------------

    def truth(self, node):
        """Compile a qualification to ``fn(rt, bindings) -> bool``."""
        if isinstance(node, ast.And):
            left, right = self.truth(node.left), self.truth(node.right)
            return lambda rt, bindings: (
                left(rt, bindings) and right(rt, bindings)
            )
        if isinstance(node, ast.Or):
            left, right = self.truth(node.left), self.truth(node.right)
            return lambda rt, bindings: (
                left(rt, bindings) or right(rt, bindings)
            )
        if isinstance(node, ast.Not):
            operand = self.truth(node.operand)
            return lambda rt, bindings: not operand(rt, bindings)
        if isinstance(node, ast.Comparison):
            compare = _COMPARISONS.get(node.operator)
            if compare is None:
                raise QueryError("unknown comparison %r" % node.operator)
            left_fn = self.expression(node.left)
            right_fn = self.expression(node.right)

            def comparison_fn(rt, bindings):
                left = left_fn(rt, bindings)
                if left is None:
                    return False
                right = right_fn(rt, bindings)
                if right is None:
                    return False
                return compare(left, right)

            return comparison_fn
        if isinstance(node, ast.IsClause):
            left_fn = self.entity_operand(node.left)
            right_fn = self.entity_operand(node.right)

            def is_fn(rt, bindings):
                left = left_fn(rt, bindings)
                if left is None:
                    return False
                right = right_fn(rt, bindings)
                if right is None:
                    return False
                return left.surrogate == right.surrogate

            return is_fn
        if isinstance(node, ast.OrderClause):
            left_fn = self.entity_operand(node.left)
            right_fn = self.entity_operand(node.right)
            order_name = node.order_name
            is_before = node.operator == "before"

            def order_fn(rt, bindings):
                left = left_fn(rt, bindings)
                if left is None:
                    return False
                right = right_fn(rt, bindings)
                if right is None:
                    return False
                ordering = rt._resolve_ordering(order_name, [left, right])
                if is_before:
                    return ordering.before(left, right)
                return ordering.after(left, right)

            return order_fn
        if isinstance(node, ast.UnderClause):
            child_fn = self.entity_operand(node.child)
            parent_fn = self.entity_operand(node.parent)
            order_name = node.order_name

            def under_fn(rt, bindings):
                child = child_fn(rt, bindings)
                if child is None:
                    return False
                parent = parent_fn(rt, bindings)
                if parent is None:
                    return False
                ordering = rt._resolve_ordering(
                    order_name, [child], parent=parent
                )
                return ordering.under(child, parent)

            return under_fn
        if isinstance(node, ast.MatchClause):
            from repro.text import match_predicate, similar_predicate

            variable, attribute = node.variable, node.attribute
            # The query side is a parser-enforced literal, so its
            # normalized form / gram set folds at compile time; the
            # per-row verification pass over index candidates then
            # only normalizes the row value.
            if node.operator == "matches":
                predicate = match_predicate(node.query)
            else:
                predicate = similar_predicate(node.query, node.threshold)

            def match_fn(rt, bindings):
                bound = bindings.get(variable)
                if bound is None:
                    raise QueryError("unbound range variable %r" % variable)
                return predicate(bound[attribute])

            return match_fn
        raise QueryError("cannot evaluate qualification %r" % (node,))

    # -- order-operator pushdown -------------------------------------------------

    def _resolved_order_name(self, clause_name, child_types, parent_type=None):
        """The unique ordering name a clause resolves to at compile time,
        or None when pushdown must be skipped (unknown explicit name, or
        zero/ambiguous implicit candidates -- the per-row check then
        raises the resolution error, or an empty join never asks)."""
        orderings = self.session.schema.orderings
        if clause_name is not None:
            return clause_name if clause_name in orderings else None
        candidates = [
            o for o in orderings.values()
            if all(t in o.child_types for t in child_types)
            and (parent_type is None or o.parent_type == parent_type)
        ]
        if len(candidates) == 1:
            return candidates[0].name
        return None

    def _entity_variable(self, node):
        """The range variable name when *node* is a VariableRef over an
        entity range, else None."""
        if not isinstance(node, ast.VariableRef):
            return None
        declared = self.session._range_for(node.variable)
        if declared.kind != "entity":
            return None
        return node.variable

    def pushdown_options(self, index, node):
        """Pushdown options for conjunct *node* (may be empty)."""
        if isinstance(node, ast.UnderClause):
            child = self._entity_variable(node.child)
            parent = self._entity_variable(node.parent)
            if child is None or parent is None or child == parent:
                return []
            name = self._resolved_order_name(
                node.order_name,
                [self.session._range_for(child).type_name],
                parent_type=self.session._range_for(parent).type_name,
            )
            if name is None:
                return []
            return [PushdownOption(index, child, parent, "under", name)]
        if isinstance(node, ast.OrderClause):
            left = self._entity_variable(node.left)
            right = self._entity_variable(node.right)
            if left is None or right is None or left == right:
                return []
            name = self._resolved_order_name(
                node.order_name,
                [
                    self.session._range_for(left).type_name,
                    self.session._range_for(right).type_name,
                ],
            )
            if name is None:
                return []
            if node.operator == "before":
                # ``left before right``: with right bound, left ranges
                # over siblings before it; with left bound, right ranges
                # over siblings after it.
                return [
                    PushdownOption(index, left, right, "before", name),
                    PushdownOption(index, right, left, "after", name),
                ]
            return [
                PushdownOption(index, left, right, "after", name),
                PushdownOption(index, right, left, "before", name),
            ]
        return []


def _same_expression(left, right, bound):
    """True when two value expressions are one expression: equal node
    for node.  A bound literal equals only itself -- two slots hold the
    same value in one statement and not in the next of its shape."""
    if left is right:
        return True
    if type(left) is not type(right):
        return False
    if isinstance(left, ast.Literal):
        return (
            left.slot not in bound and right.slot not in bound
            and type(left.value) is type(right.value)
            and left.value == right.value
        )
    if isinstance(left, list):
        return len(left) == len(right) and all(
            _same_expression(a, b, bound) for a, b in zip(left, right)
        )
    fields = getattr(left, "__slots__", None)
    if fields is None:
        return left == right  # a name, an operator
    return all(
        _same_expression(getattr(left, field), getattr(right, field), bound)
        for field in fields
    )


def compile_statement(statement, session, bound=frozenset()):
    """Lower *statement* to a :class:`CompiledStatement` for *session*'s
    current range bindings (the plan key pins those, plus the schema
    epoch and function-registry version).  *bound* is the set of
    literal slots the plan leaves to the executing statement's literal
    vector (:func:`bound_slots`); without one, every literal is the
    constant its node holds -- a bare AST run on its own."""
    compiler = Compiler(session, bound)
    used, where = session._plan_parts(statement)
    conjunct_nodes = planner.split_conjuncts(where)
    conjuncts = []
    restrictions = {}
    restriction_conjuncts = {}
    text_restrictions = {}
    pushdown_options = []
    for index, node in enumerate(conjunct_nodes):
        conjuncts.append(
            CompiledConjunct(
                node, frozenset(planner.variables_in(node)), compiler.truth(node)
            )
        )
        for variable in used:
            restriction = planner.equality_restriction(node, variable)
            if restriction is not None:
                attribute, literal = restriction
                restrictions.setdefault(variable, []).append(
                    (attribute, compiler.expression(literal))
                )
                restriction_conjuncts.setdefault(variable, []).append(index)
            text = planner.text_restriction(node, variable)
            if text is not None:
                text_restrictions.setdefault(variable, []).append(text)
        pushdown_options.extend(compiler.pushdown_options(index, node))

    kind = type(statement).__name__
    targets = aggregates = sort_fn = sort_target = assignments = None
    if isinstance(statement, ast.RetrieveStatement):
        targets = []
        aggregates = []
        for target in statement.targets:
            expression = target.expression
            if isinstance(expression, ast.FunctionCall) and (
                session.functions.is_aggregate(expression.name)
            ):
                if len(expression.arguments) != 1:
                    raise QueryError(
                        "aggregate %s takes exactly one argument"
                        % expression.name
                    )
                aggregates.append(
                    CompiledAggregate(
                        target.name, expression.name,
                        compiler.expression(expression.arguments[0]),
                    )
                )
            else:
                targets.append((target.name, compiler.expression(expression)))
        if statement.sort_by is not None:
            sort_fn = compiler.expression(statement.sort_by)
            # A later target of the same name overwrites an earlier one
            # in the record, so only the last of a name can stand in.
            last = {t.name: t.expression for t in statement.targets}
            sort_target = next(
                (
                    name for name, _ in targets
                    if _same_expression(last[name], statement.sort_by, bound)
                ),
                None,
            )
    elif isinstance(statement, (ast.AppendStatement, ast.ReplaceStatement)):
        assignments = [
            (name, compiler.expression(expression))
            for name, expression in statement.assignments
        ]
    elif not isinstance(statement, ast.DeleteStatement):
        raise QueryError("cannot compile statement %r" % (statement,))

    return CompiledStatement(
        statement, kind, list(used), conjuncts, restrictions,
        restriction_conjuncts, pushdown_options, targets=targets,
        aggregates=aggregates, sort_fn=sort_fn, assignments=assignments,
        text_restrictions=text_restrictions, sort_target=sort_target,
    )
