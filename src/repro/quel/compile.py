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
from operator import itemgetter

from repro.core.entity import SURROGATE_COLUMN
from repro.errors import QueryError, UnknownAttributeError
from repro.quel import ast
from repro.quel import planner, sources
from repro.quel.functions import SCALARS, scalar_similarity
from repro.text import (
    SimilarityScorer, match_predicate, normalize, similar_predicate,
)

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
    touching its AST again (except through prebuilt closures), and the
    planning that depends only on the plan's cache key, done once: each
    variable's :class:`~repro.quel.sources.IndexAccess`, the order
    pushdowns, the early-exit source, the checks each join level runs."""

    __slots__ = (
        "statement", "kind", "used", "conjuncts", "restrictions",
        "restriction_conjuncts", "text_restrictions", "pushdown_options",
        "targets", "aggregates", "sort_fn", "sort_at", "assignments",
        "columns", "project", "accesses", "pushdowns", "early_exit",
        "constants", "_levels",
    )

    def __init__(self, statement, kind, used, conjuncts, restrictions,
                 restriction_conjuncts, pushdown_options, targets=None,
                 aggregates=None, sort_fn=None, assignments=None,
                 text_restrictions=None, sort_at=None, columns=None,
                 project=None):
        self.statement = statement
        self.kind = kind
        self.used = used
        self.conjuncts = conjuncts
        # variable -> [(attribute, fn), ...] for ``variable.attr =
        # literal`` conjuncts; planning calls ``fn(rt, None)`` for the
        # value to probe the index with.
        self.restrictions = restrictions
        self.restriction_conjuncts = restriction_conjuncts
        # variable -> [(attribute, operator, query, threshold,
        # conjunct index), ...] for matches/similar_to gates: the index
        # is what a source that decided a gate adds to its answers.
        self.text_restrictions = text_restrictions or {}
        self.pushdown_options = pushdown_options
        self.targets = targets
        self.aggregates = aggregates
        self.sort_fn = sort_fn
        # The column of the plain target whose expression *is* the sort
        # key (None: there is none): the tail reads the key off the
        # row's values instead of evaluating it a second time per row.
        self.sort_at = sort_at
        self.assignments = assignments
        # A retrieve's plain targets: the column names, and one
        # ``fn(rt, bindings) -> values`` (see Compiler.projection).
        self.columns = columns
        self.project = project
        self.accesses = self.pushdowns = self.early_exit = None
        # The conjuncts no variable reaches: checked once a run.
        self.constants = tuple(c for c in conjuncts if not c.variables)
        self._levels = {}

    def checks(self, order, skip):
        """Per join level of *order*, the truth closures of the
        conjuncts it completes, but those in *skip* (the ones the
        sources answer, a tuple or a frozenset): a level runs a
        conjunct once it binds the last of its variables.  Memoized:
        the answer is a function of its arguments, which a plan's runs
        share."""
        key = (*order, skip)
        levels = self._levels.get(key)
        if levels is None:
            levels = []
            bound = set()
            for variable in order:
                bound.add(variable)
                levels.append(tuple(
                    conjunct.truth
                    for index, conjunct in enumerate(self.conjuncts)
                    if index not in skip
                    and variable in conjunct.variables
                    and conjunct.variables <= bound
                ))
            self._levels[key] = levels
        return levels


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


def plan_parts(statement):
    """The (used variables, qualification) a statement would join over."""
    variables_in = planner.variables_in
    used = variables_in(statement.where)
    if isinstance(statement, ast.RetrieveStatement):
        for target in statement.targets:
            used |= variables_in(target)
        used |= variables_in(statement.sort_by)
    elif isinstance(statement, ast.DeleteStatement):
        used.add(statement.variable)
    else:
        if isinstance(statement, ast.ReplaceStatement):
            used.add(statement.variable)
        for _, expression in statement.assignments:
            used |= variables_in(expression)
    return sorted(used), statement.where


def resolve_ordering(schema, clause_name, instances, parent=None):
    """Find the ordering for before/after/under given the operands."""
    if clause_name is not None:
        return schema.ordering(clause_name)
    candidates = []
    for ordering in schema.orderings.values():
        if any(
            instance.type.name not in ordering.child_types
            for instance in instances
        ):
            continue
        if parent is not None and ordering.parent_type != parent.type.name:
            continue
        candidates.append(ordering)
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise QueryError(
            "no ordering admits operand types %s"
            % ", ".join(sorted({i.type.name for i in instances}))
        )
    raise QueryError(
        "ambiguous ordering; specify 'in <order_name>' (candidates: %s)"
        % ", ".join(sorted(o.name for o in candidates))
    )


def _getter(positions):
    """``values -> tuple`` of the *values* at *positions*."""
    if len(positions) == 1:
        (at,) = positions
        return lambda values: (values[at],)
    return itemgetter(*positions) if positions else (lambda values: ())


class Compiler:
    """Compiles one statement against a session's compile-time context
    (range-variable bindings, function registry, known orderings).
    *bound* is the set of literal slots read from the literal vector at
    run time; every other literal is the constant its node holds.
    *ranked* is the ``(variable, attribute, query)`` of a ``similarity()``
    sort key, if there is one: a text check on its value leaves the fold
    in the variable's :class:`~repro.quel.sources.RowHint`, and a
    ``similarity()`` of the same three takes the Jaccard half there."""

    def __init__(self, session, bound, ranked):
        self.session = session
        self.bound = bound
        self.ranked = ranked

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
            return self.attribute_read(node.variable, node.attribute), False, None
        if isinstance(node, ast.VariableRef):
            variable = node.variable
            declared = self.session._range_for(variable)
            position = (
                declared.table.schema.layout[SURROGATE_COLUMN]
                if declared.kind == "entity" else None
            )

            def var_fn(rt, bindings):
                row = bindings.get(variable)
                if row is None:
                    raise QueryError("unbound range variable %r" % variable)
                if position is None:
                    raise QueryError(
                        "relationship variable %r used as a value" % variable
                    )
                return row.values[position]

            return var_fn, False, None
        if isinstance(node, ast.BinaryOp):
            return self._binary_op(node)
        if isinstance(node, ast.FunctionCall):
            return self._function_call(node), False, None
        raise QueryError("cannot evaluate %r" % (node,))

    def attribute_read(self, variable, attribute):
        """``fn(rt, bindings)`` reading *attribute* off the row
        *variable* is bound to: the attribute's slot in the row's values
        tuple is found here, once a plan, and a row made before its
        table widened reads a later slot as null.  An attribute the
        range lacks raises ``UnknownAttributeError`` when read, not
        here: a statement that reads no row (an empty join, ``explain``)
        does not raise."""
        try:
            position = self.session._range_for(variable).position(attribute)
        except UnknownAttributeError as error:
            position, unknown = None, str(error)

        def attr_fn(rt, bindings):
            bound = bindings.get(variable)
            if bound is None:
                raise QueryError("unbound range variable %r" % variable)
            if position is None:
                raise UnknownAttributeError(unknown)
            values = bound.values
            return values[position] if position < len(values) else None

        return attr_fn

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
        target = node.arguments[0]
        value_fn = self.expression(target)
        scorer = SimilarityScorer(literal.value)
        slot = ranked = None
        if isinstance(target, ast.AttributeRef):
            slot = (sources.RowHint, target.variable)
            ranked = self.ranked == (
                target.variable, target.attribute, literal.value
            )

        def scorer_fn(rt, bindings):
            value = value_fn(rt, bindings)
            if value is None:
                return 0.0
            if not isinstance(value, str):
                raise QueryError("similarity() expects strings")
            hint = bindings.get(slot)
            if hint is None:
                return scorer.score(normalize(value))
            folded = hint.folded if hint.value is value else normalize(value)
            return scorer.score(folded, hint.jaccard if ranked else None)

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
                ordering = resolve_ordering(rt.schema, None, [instance])
            return ordering.position_of(instance)

        return ordinal_fn

    def projection(self, targets, fns):
        """A retrieve's plain *targets*, ``[(name, AST node), ...]``
        compiled to *fns*, as ``(columns, fn(rt, bindings) -> values)``:
        the result's column names, and the tuple of one row's values in
        their order -- the one shape a row is made in.  A name given
        twice is one column, at its first place, holding its last
        target's value (what a dict built target by target would hold).
        Attributes of one variable are one ``itemgetter`` over its row's
        values tuple (a row made before its table widened reads the
        later slots as null); any other target list runs *fns* in turn."""
        last = {}
        for at, (name, node) in enumerate(targets):
            last[name] = at
        columns = list(last)
        kept = list(last.values())
        nodes = [targets[at][1] for at in kept]
        variables = {
            node.variable for node in nodes if isinstance(node, ast.AttributeRef)
        }
        positions = []
        if len(variables) == 1 and all(
            isinstance(node, ast.AttributeRef) for node in nodes
        ):
            (variable,) = variables
            declared = self.session._range_for(variable)
            try:
                positions = [declared.position(node.attribute) for node in nodes]
            except UnknownAttributeError:
                positions = []
        if not positions:
            # Every target is evaluated, in order, as a dict built
            # target by target would be; a shadowed one's value is
            # dropped.
            keep = _getter(kept)
            return columns, lambda rt, bindings: keep(
                [fn(rt, bindings) for fn in fns]
            )
        width = max(positions) + 1
        pick = _getter(positions)

        def project(rt, bindings):
            row = bindings.get(variable)
            if row is None:
                raise QueryError("unbound range variable %r" % variable)
            values = row.values
            if len(values) < width:
                values += (None,) * (width - len(values))
            return pick(values)

        return columns, project

    # -- entity operands ---------------------------------------------------------

    def entity_operand(self, node):
        """Compile an entity operand to ``fn(rt, bindings) -> instance``."""
        if isinstance(node, ast.VariableRef):
            variable = node.variable
            entity = self.session._range_for(variable).kind == "entity"

            def var_operand(rt, bindings):
                row = bindings.get(variable)
                if row is None or not entity:
                    raise QueryError(
                        "%r is not an entity range variable" % variable
                    )
                return rt._range_for(variable).wrap(row)

            return var_operand
        if isinstance(node, ast.AttributeRef):
            value_fn = self.expression(node)
            variable, attribute = node.variable, node.attribute
            target_types = self._target_types(variable, attribute)

            def attr_operand(rt, bindings):
                value = value_fn(rt, bindings)
                if value is None:
                    return None
                if isinstance(value, int) and target_types:
                    return rt.schema.instance(value, target_types)
                raise QueryError(
                    "%s.%s is not an entity reference" % (variable, attribute)
                )

            return attr_operand
        raise QueryError("bad entity operand %r" % (node,))

    def _target_types(self, variable, attribute):
        """The entity types *variable.attribute* refers to: an
        entity-valued attribute's target, a relationship role's type;
        none for anything else."""
        declared = self.session._range_for(variable)
        schema = self.session.schema
        if declared.kind == "relationship":
            targets = dict(schema.relationship(declared.type_name).roles)
        else:
            targets = {
                a.name: a.target_type
                for a in schema.entity_type(declared.type_name).attributes
                if a.is_entity_valued
            }
        return [targets[attribute]] if attribute in targets else []

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
                ordering = resolve_ordering(rt.schema, order_name, [left, right])
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
                ordering = resolve_ordering(
                    rt.schema, order_name, [child], parent=parent
                )
                return ordering.under(child, parent)

            return under_fn
        if isinstance(node, ast.MatchClause):
            # The query side is a parser-enforced literal, so its
            # normalized form / gram set folds at compile time; the
            # per-row verification pass over index candidates then
            # only folds the row value -- and leaves the fold for the
            # scorer when a similarity() sort key reads the same value.
            if node.operator == "matches":
                predicate = match_predicate(node.query)
            else:
                predicate = similar_predicate(node.query, node.threshold)

            read = self.attribute_read(node.variable, node.attribute)
            slot = None
            if self.ranked and self.ranked[:2] == (node.variable, node.attribute):
                slot = (sources.RowHint, node.variable)

            def match_fn(rt, bindings):
                value = read(rt, bindings)
                if value is None:
                    return False
                folded = normalize(value)
                if slot is not None:
                    hint = bindings.get(slot)
                    if hint is None:
                        hint = bindings[slot] = sources.RowHint()
                    hint.value, hint.folded = value, folded
                return predicate(folded)

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


# -- plan-time choices of the sources ------------------------------------------


def _pushdowns(compiled):
    """At most one pushdown option per order conjunct, as ``{enumerated
    variable: option}``.  The enumerated variable must not carry
    equality restrictions (an index lookup would already make it cheap)
    and may be enumerated for only one conjunct.  Among a conjunct's
    options, the first whose driver is restricted wins: the driver
    binds early and small."""
    restricted = compiled.restrictions.get
    chosen = {}
    by_conjunct = {}
    for option in compiled.pushdown_options:
        by_conjunct.setdefault(option.conjunct_index, []).append(option)
    for index in sorted(by_conjunct):
        options = [
            option for option in by_conjunct[index]
            if option.enum_var not in chosen and not restricted(option.enum_var)
        ]
        if options:
            best = next(
                (o for o in options if restricted(o.driver_var)), options[0]
            )
            chosen[best.enum_var] = best
    return chosen


def _similarity_sort_key(sort_by):
    """Match a sort key of ``similarity(v.attr, "literal")``: returns
    ``(variable, attribute, query)``, or None for any other shape."""
    if (
        isinstance(sort_by, ast.FunctionCall)
        and sort_by.name == "similarity"
        and len(sort_by.arguments) == 2
    ):
        target, literal = sort_by.arguments
        if (
            isinstance(target, ast.AttributeRef)
            and isinstance(literal, ast.Literal)
            and isinstance(literal.value, str)
        ):
            return target.variable, target.attribute, literal.value
    return None


def _early_exit(compiled, session):
    """The early-exit source a plan takes, decided when it is compiled:
    ``("stream", variable)``, ``("topk", variable, attribute, scorer)``
    (the similarity query's scorer, built once a plan), or None.  It is
    for a non-unique, non-aggregate ``limit N`` retrieve over one entity
    variable with a pushable text gate and no equality restriction
    (which would change the candidate set).
    Neither materializes the gate's full candidate set, which grows
    with the table: unsorted, :class:`~repro.quel.sources.TextStream`; sorted by the builtin
    ``similarity`` descending, :class:`~repro.quel.sources.TextTopK` (its bound replicates
    the builtin: a session that rebound the name gets neither, and the
    registry's version is part of the plan key)."""
    if len(compiled.used) != 1:
        return None
    statement, (variable,) = compiled.statement, compiled.used
    text_restrictions = compiled.text_restrictions.get(variable)
    if (
        compiled.kind != "RetrieveStatement" or statement.limit is None
        or statement.unique or compiled.aggregates
        or session._range_for(variable).kind != "entity"
        or not text_restrictions or compiled.restrictions.get(variable)
    ):
        return None
    if statement.sort_by is None:
        return ("stream", variable)
    spec = _similarity_sort_key(statement.sort_by)
    if (
        not statement.descending or spec is None or spec[0] != variable
        or session.functions.scalar("similarity") is not scalar_similarity
    ):
        return None
    scorer = SimilarityScorer(spec[2])
    # A sub-trigram query has no overlap bound.
    return ("topk", variable, spec[1], scorer) if scorer.grams else None


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


def compile_statement(statement, session, bound):
    """Lower *statement* to a :class:`CompiledStatement` for *session*'s
    current range bindings (the plan key pins those, plus the schema
    epoch and function-registry version).  *bound* is the set of
    literal slots the plan leaves to the executing statement's literal
    vector (:func:`bound_slots`); every other literal is the constant
    its node holds."""
    ranked = _similarity_sort_key(getattr(statement, "sort_by", None))
    compiler = Compiler(session, bound, ranked)
    used, where = plan_parts(statement)
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
                text_restrictions.setdefault(variable, []).append(text + (index,))
        pushdown_options.extend(compiler.pushdown_options(index, node))

    kind = type(statement).__name__
    targets = aggregates = sort_fn = sort_at = assignments = None
    columns = project = None
    if isinstance(statement, ast.RetrieveStatement):
        targets = []
        plain = []
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
                plain.append((target.name, expression))
        columns, project = compiler.projection(
            plain, [fn for _, fn in targets]
        )
        if statement.sort_by is not None:
            sort_fn = compiler.expression(statement.sort_by)
            # A column holds the last plain target of its name, so only
            # that one can stand in for the sort key.
            last = dict(plain)
            sort_at = next(
                (
                    at for at, name in enumerate(columns)
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

    compiled = CompiledStatement(
        statement, kind, list(used), conjuncts, restrictions,
        restriction_conjuncts, pushdown_options, targets=targets,
        aggregates=aggregates, sort_fn=sort_fn, assignments=assignments,
        text_restrictions=text_restrictions, sort_at=sort_at,
        columns=columns, project=project,
    )
    compiled.accesses = {
        variable: sources.IndexAccess(
            session._range_for(variable), restrictions.get(variable, ()),
            text_restrictions.get(variable, ()),
            restriction_conjuncts.get(variable, ()),
        )
        for variable in used
    }
    compiled.pushdowns = _pushdowns(compiled) if pushdown_options else {}
    compiled.early_exit = _early_exit(compiled, session)
    return compiled
