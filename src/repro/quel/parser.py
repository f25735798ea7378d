"""Recursive-descent parser for QUEL with the ordering extensions."""

from repro.errors import ParseError
from repro.lang.lexer import Lexer, TokenStream, TokenType
from repro.quel import ast

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}
_KEYWORDS = {
    "range", "of", "is", "retrieve", "unique", "where", "append", "to",
    "replace", "delete", "and", "or", "not", "before", "after", "under",
    "in", "sort", "by", "descending", "limit", "explain", "analyze",
}


def parse_quel(source):
    """Parse a QUEL program; returns a list of statement AST nodes."""
    stream = TokenStream(Lexer(source).tokens())
    statements = []
    while not stream.at_end():
        while stream.accept_symbol(";"):
            pass
        if stream.at_end():
            break
        statements.append(_statement(stream))
    return statements


def _statement(stream):
    token = stream.peek()
    if token.matches_keyword("explain"):
        return _explain_statement(stream)
    if token.matches_keyword("range"):
        return _range_statement(stream)
    if token.matches_keyword("retrieve"):
        return _retrieve_statement(stream)
    if token.matches_keyword("append"):
        return _append_statement(stream)
    if token.matches_keyword("replace"):
        return _replace_statement(stream)
    if token.matches_keyword("delete"):
        return _delete_statement(stream)
    raise ParseError(
        "expected a QUEL statement, found %r" % token.value, token.line, token.column
    )


def _explain_statement(stream):
    token = stream.expect_keyword("explain")
    analyze = stream.accept_keyword("analyze") is not None
    if stream.peek().matches_keyword("explain"):
        raise ParseError(
            "explain cannot be nested", token.line, token.column
        )
    return ast.ExplainStatement(_statement(stream), analyze)


def _range_statement(stream):
    stream.expect_keyword("range")
    stream.expect_keyword("of")
    variables = [stream.expect_identifier("range variable").value]
    while stream.accept_symbol(","):
        variables.append(stream.expect_identifier("range variable").value)
    stream.expect_keyword("is")
    entity_type = stream.expect_identifier("entity type").value
    return ast.RangeStatement(variables, entity_type)


def _retrieve_statement(stream):
    stream.expect_keyword("retrieve")
    unique = stream.accept_keyword("unique") is not None
    stream.expect_symbol("(")
    targets = [_target(stream)]
    while stream.accept_symbol(","):
        targets.append(_target(stream))
    stream.expect_symbol(")")
    where = None
    if stream.accept_keyword("where"):
        where = _qualification(stream)
    sort_by = None
    descending = False
    if stream.accept_keyword("sort"):
        stream.expect_keyword("by")
        sort_by = _expression(stream)
        descending = stream.accept_keyword("descending") is not None
    limit = None
    if stream.accept_keyword("limit"):
        limit = _limit_count(stream)
    return ast.RetrieveStatement(
        targets, where, unique, sort_by, descending, limit
    )


def _limit_count(stream):
    """The ``limit`` operand: a positive integer literal, nothing else."""
    token = stream.peek()
    if token.type is TokenType.NUMBER and isinstance(token.value, int):
        if token.value > 0:
            stream.next()
            return token.value
    raise ParseError(
        "limit takes a positive integer, found %r" % (token.value,),
        token.line, token.column,
    )


def _target(stream):
    # Either  name = expression  or a bare expression.
    token = stream.peek()
    if (
        token.type is TokenType.IDENT
        and token.value.lower() not in _KEYWORDS
        and stream.peek(1).type is TokenType.SYMBOL
        and stream.peek(1).value == "="
    ):
        name = stream.next().value
        stream.next()  # "="
        return ast.Target(name, _expression(stream))
    expression = _expression(stream)
    return ast.Target(_default_target_name(expression), expression)


def _default_target_name(expression):
    if isinstance(expression, ast.AttributeRef):
        return "%s.%s" % (expression.variable, expression.attribute)
    if isinstance(expression, ast.VariableRef):
        return expression.variable
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    return "expr"


def _assignment_list(stream):
    stream.expect_symbol("(")
    assignments = []
    while True:
        name = stream.expect_identifier("attribute name").value
        stream.expect_symbol("=")
        assignments.append((name, _expression(stream)))
        if stream.accept_symbol(","):
            continue
        stream.expect_symbol(")")
        return assignments


def _append_statement(stream):
    stream.expect_keyword("append")
    stream.expect_keyword("to")
    entity_type = stream.expect_identifier("entity type").value
    assignments = _assignment_list(stream)
    where = None
    if stream.accept_keyword("where"):
        where = _qualification(stream)
    return ast.AppendStatement(entity_type, assignments, where)


def _replace_statement(stream):
    stream.expect_keyword("replace")
    variable = stream.expect_identifier("range variable").value
    assignments = _assignment_list(stream)
    where = None
    if stream.accept_keyword("where"):
        where = _qualification(stream)
    return ast.ReplaceStatement(variable, assignments, where)


def _delete_statement(stream):
    stream.expect_keyword("delete")
    variable = stream.expect_identifier("range variable").value
    where = None
    if stream.accept_keyword("where"):
        where = _qualification(stream)
    return ast.DeleteStatement(variable, where)


# -- qualifications ---------------------------------------------------------


def _qualification(stream):
    return _or_expression(stream)


def _or_expression(stream):
    left = _and_expression(stream)
    while stream.accept_keyword("or"):
        left = ast.Or(left, _and_expression(stream))
    return left


def _and_expression(stream):
    left = _not_expression(stream)
    while stream.accept_keyword("and"):
        left = ast.And(left, _not_expression(stream))
    return left


def _not_expression(stream):
    if stream.accept_keyword("not"):
        return ast.Not(_not_expression(stream))
    return _condition(stream)


def _condition(stream):
    # Parenthesized sub-qualification vs parenthesized value expression:
    # try the qualification reading first; a value expression alone is
    # not a valid condition anyway.
    if stream.accept_symbol("("):
        inner = _qualification(stream)
        stream.expect_symbol(")")
        return inner
    left = _expression(stream)
    token = stream.peek()
    if token.matches_keyword("is"):
        stream.next()
        right = _expression(stream)
        return ast.IsClause(_as_entity_operand(left, token), _as_entity_operand(right, token))
    if token.matches_keyword("before") or token.matches_keyword("after"):
        operator = stream.next().value.lower()
        right = _expression(stream)
        order_name = _optional_order_name(stream)
        return ast.OrderClause(
            operator,
            _as_entity_operand(left, token),
            _as_entity_operand(right, token),
            order_name,
        )
    if token.matches_keyword("under"):
        stream.next()
        right = _expression(stream)
        order_name = _optional_order_name(stream)
        return ast.UnderClause(
            _as_entity_operand(left, token), _as_entity_operand(right, token), order_name
        )
    if token.type is TokenType.SYMBOL and token.value in _COMPARISON_OPS:
        operator = stream.next().value
        right = _expression(stream)
        return ast.Comparison(operator, left, right)
    if (
        isinstance(left, ast.FunctionCall)
        and left.name in ("matches", "similar_to")
    ):
        return _match_clause(left, token)
    raise ParseError(
        "expected a comparison or entity operator, found %r" % token.value,
        token.line,
        token.column,
    )


def _match_clause(call, token):
    """Validate a bare ``matches``/``similar_to`` call as a gate.

    The strict literal shape — ``matches(v.attr, "q")`` /
    ``similar_to(v.attr, "q", t)`` — is what lets the compiler lower
    the gate onto a trigram index; anything looser parses as an error
    here rather than silently becoming an unlowerable predicate.
    """
    expected = 2 if call.name == "matches" else 3
    if len(call.arguments) != expected:
        raise ParseError(
            "%s takes %d arguments, got %d"
            % (call.name, expected, len(call.arguments)),
            token.line, token.column,
        )
    target = call.arguments[0]
    if not isinstance(target, ast.AttributeRef):
        raise ParseError(
            "%s needs a variable.attribute first argument" % call.name,
            token.line, token.column,
        )
    query = call.arguments[1]
    if not isinstance(query, ast.Literal) or not isinstance(query.value, str):
        raise ParseError(
            "%s needs a string-literal query" % call.name,
            token.line, token.column,
        )
    threshold = None
    if call.name == "similar_to":
        arg = call.arguments[2]
        if not isinstance(arg, ast.Literal) or isinstance(arg.value, str):
            raise ParseError(
                "similar_to needs a numeric-literal threshold",
                token.line, token.column,
            )
        threshold = float(arg.value)
    return ast.MatchClause(
        call.name, target.variable, target.attribute, query.value, threshold
    )


def _optional_order_name(stream):
    if stream.accept_keyword("in"):
        return stream.expect_identifier("ordering name").value
    return None


def _as_entity_operand(expression, token):
    """Entity operators take range variables (or role references).

    ``COMPOSER.composition is COMPOSITION`` uses a relationship range
    variable's role as an entity operand, so AttributeRef is admitted
    alongside bare range variables; literals and arithmetic are not.
    """
    if isinstance(expression, (ast.VariableRef, ast.AttributeRef)):
        return expression
    raise ParseError(
        "entity operators take range variables, not %r" % (expression,),
        token.line,
        token.column,
    )


# -- value expressions ------------------------------------------------------------


def _expression(stream):
    return _additive(stream)


def _additive(stream):
    left = _multiplicative(stream)
    while True:
        token = stream.peek()
        if token.type is TokenType.SYMBOL and token.value in ("+", "-"):
            stream.next()
            left = ast.BinaryOp(token.value, left, _multiplicative(stream))
        else:
            return left


def _multiplicative(stream):
    left = _unary(stream)
    while True:
        token = stream.peek()
        if token.type is TokenType.SYMBOL and token.value in ("*", "/", "%"):
            stream.next()
            left = ast.BinaryOp(token.value, left, _unary(stream))
        else:
            return left


def _unary(stream):
    token = stream.peek()
    if token.type is TokenType.SYMBOL and token.value == "-":
        stream.next()
        return ast.BinaryOp("-", ast.Literal(0), _unary(stream))
    return _primary(stream)


def _primary(stream):
    token = stream.peek()
    if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
        stream.next()
        return ast.Literal(token.value, token.slot)
    if token.type is TokenType.SYMBOL and token.value == "(":
        stream.next()
        inner = _expression(stream)
        stream.expect_symbol(")")
        return inner
    if token.type is TokenType.IDENT:
        name = stream.next().value
        if stream.accept_symbol("("):
            arguments = []
            if not stream.accept_symbol(")"):
                arguments.append(_expression(stream))
                while stream.accept_symbol(","):
                    arguments.append(_expression(stream))
                stream.expect_symbol(")")
            return ast.FunctionCall(name.lower(), arguments)
        if stream.accept_symbol("."):
            attribute = stream.expect_identifier("attribute name").value
            return ast.AttributeRef(name, attribute)
        return ast.VariableRef(name)
    raise ParseError(
        "expected an expression, found %r" % token.value, token.line, token.column
    )
