"""An independent reference implementation of QUEL ``retrieve``.

The batteries compare the engine against this, so it shares only the
parser, the AST and the function registry with it: every range variable
is a full scan (entities in surrogate order, relationships in table
order), the join is naive nested loops over the variables in name
order, and truth/evaluate walk the AST per binding.  No indexes, plans,
locks, caches, spans or limits, and -- it runs valid statements only --
none of the engine's error checks.  Over one range variable the row
*order* is the engine's too (a stable sort over scan order); over
several only the multiset is, because the planner picks a binding order.
"""

import functools
import operator

from repro.core.entity import SURROGATE_COLUMN, EntityInstance
from repro.errors import QueryError
from repro.quel import ast
from repro.quel.functions import FunctionRegistry
from repro.quel.parser import parse_quel
from repro.storage.values import value_sort_key
from repro.text import contains_match, is_similar

_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
}


#: Batteries re-run a handful of sources thousands of times; the AST is
#: never mutated, so parsing each once is safe.
_parse = functools.lru_cache(maxsize=512)(parse_quel)


def reference_execute(schema, source, functions=None):
    """The rows of the last retrieve in *source* (ranges + retrieves),
    under *functions* (default: a pristine registry)."""
    run = _Reference(schema, functions or FunctionRegistry())
    result = None
    for statement in _parse(source):
        if isinstance(statement, ast.RangeStatement):
            for variable in statement.variables:
                run.ranges[variable] = statement.entity_type
        elif isinstance(statement, ast.RetrieveStatement):
            result = run.retrieve(statement)
        else:
            raise QueryError("the reference runs retrieves only")
    return result


def _variables(node, out):
    """Collect the range variables the AST under *node* mentions into
    *out* (every node class declares its fields in ``__slots__``)."""
    for field in getattr(node, "__slots__", ()):
        value = getattr(node, field)
        if field == "variable":
            out.add(value)
        for child in value if isinstance(value, list) else [value]:
            _variables(child, out)
    return out


class _Reference:
    def __init__(self, schema, functions):
        self.schema = schema
        self.ranges = {}
        self.functions = functions

    def scan(self, variable):
        name = self.ranges.get(variable, variable)
        if name in self.schema.relationships:
            return list(self.schema.relationship(name).table)
        entity = self.schema.entity_type(name)
        rows = sorted(entity.table, key=lambda r: r[SURROGATE_COLUMN])
        return [EntityInstance(entity, r[SURROGATE_COLUMN], r.rowid) for r in rows]

    def bindings(self, variables, where):
        """Every binding of *variables* that satisfies *where*."""
        out = [{}]
        for variable in sorted(variables):
            out = [
                dict(partial, **{variable: candidate})
                for partial in out
                for candidate in self.scan(variable)
            ]
        return [b for b in out if where is None or self.truth(where, b)]

    # -- AST walking ---------------------------------------------------------

    def evaluate(self, node, bindings):
        if isinstance(node, ast.Literal):
            return node.value
        if isinstance(node, ast.AttributeRef):
            return bindings[node.variable][node.attribute]
        if isinstance(node, ast.VariableRef):
            return bindings[node.variable].surrogate
        if isinstance(node, ast.BinaryOp):
            left = self.evaluate(node.left, bindings)
            right = self.evaluate(node.right, bindings)
            if left is None or right is None:
                return None
            if node.operator in ("+", "-", "*"):
                return _OPERATORS[node.operator](left, right)
            if right == 0:
                raise QueryError("division or modulo by zero")
            if node.operator == "%":
                return left % right
            exact = isinstance(left, int) and isinstance(right, int)
            return left // right if exact and left % right == 0 else left / right
        if node.name == "ordinal":  # the only other expression is a call
            instance = self.entity(node.arguments[0], bindings)
            if instance is None:
                return None
            name = node.arguments[1].value if node.arguments[1:] else None
            return self.ordering(name, [instance]).position_of(instance)
        arguments = [self.evaluate(a, bindings) for a in node.arguments]
        return self.functions.scalar(node.name)(*arguments)

    def entity(self, node, bindings):
        """A range variable's instance, or the one an attribute names."""
        if isinstance(node, ast.VariableRef):
            return bindings[node.variable]
        value = self.evaluate(node, bindings)
        return None if value is None else self.schema.instance(value)

    def ordering(self, name, children, parent=None):
        if name is not None:
            return self.schema.ordering(name)
        (only,) = [
            o for o in self.schema.orderings.values()
            if all(c.type.name in o.child_types for c in children)
            and (parent is None or o.parent_type == parent.type.name)
        ]
        return only

    def truth(self, node, bindings):
        if isinstance(node, ast.And):
            return self.truth(node.left, bindings) and self.truth(node.right, bindings)
        if isinstance(node, ast.Or):
            return self.truth(node.left, bindings) or self.truth(node.right, bindings)
        if isinstance(node, ast.Not):
            return not self.truth(node.operand, bindings)
        if isinstance(node, ast.Comparison):
            left = self.evaluate(node.left, bindings)
            right = self.evaluate(node.right, bindings)
            if left is None or right is None:
                return False
            return _OPERATORS[node.operator](left, right)
        if isinstance(node, ast.MatchClause):
            value = bindings[node.variable][node.attribute]
            if node.operator == "matches":
                return contains_match(value, node.query)
            return is_similar(value, node.query, node.threshold)
        if isinstance(node, ast.UnderClause):
            left, right = node.child, node.parent
        else:  # IsClause / OrderClause
            left, right = node.left, node.right
        left = self.entity(left, bindings)
        right = self.entity(right, bindings)
        if left is None or right is None:
            return False
        if isinstance(node, ast.IsClause):
            return left.surrogate == right.surrogate
        if isinstance(node, ast.UnderClause):
            return self.ordering(node.order_name, [left], right).under(left, right)
        ordering = self.ordering(node.order_name, [left, right])
        return getattr(ordering, node.operator)(left, right)  # before / after

    # -- retrieve --------------------------------------------------------------

    def is_aggregate(self, target):
        call = target.expression
        return isinstance(call, ast.FunctionCall) and self.functions.is_aggregate(
            call.name
        )

    def retrieve(self, statement):
        aggregates = [t for t in statement.targets if self.is_aggregate(t)]
        plain = [t for t in statement.targets if not self.is_aggregate(t)]
        rows = self.bindings(_variables(statement, set()), statement.where)
        if statement.sort_by is not None:
            rows.sort(
                key=lambda b: value_sort_key(self.evaluate(statement.sort_by, b)),
                reverse=statement.descending,
            )
        # One [record, its bindings] group per row -- or per distinct
        # record when the statement aggregates or says `unique`.
        merge = bool(aggregates) or statement.unique
        groups = []
        by_record = {}
        for bindings in rows:
            record = {t.name: self.evaluate(t.expression, bindings) for t in plain}
            key = tuple(sorted(record.items()))
            if not merge or key not in by_record:
                by_record[key] = [record, []]
                groups.append(by_record[key])
            by_record[key][1].append(bindings)
        if aggregates and not plain and not groups:
            groups = [[{}, []]]  # aggregates over nothing still give one row
        for record, members in groups:
            for target in aggregates:
                call = target.expression
                values = [self.evaluate(call.arguments[0], b) for b in members]
                record[target.name] = self.functions.aggregate(call.name)(values)
        return [record for record, _ in groups][: statement.limit]  # None: all
