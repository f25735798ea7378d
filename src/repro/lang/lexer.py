"""The lexer shared by the DDL and QUEL parsers: one compiled-regex pass.

Produces identifiers, numbers, quoted strings, and punctuation, with
line/column positions for error reporting.  Keywords are recognized
case-insensitively by the parsers, not the lexer, so entity names like
``ORDER`` remain usable as identifiers where the grammar allows.

The same lexical rules serve two readers.  :meth:`Lexer.tokens` builds
the token list a parser walks.  :func:`lift` builds no tokens: it cuts
the literals (and comments) out of a statement and returns what is left
-- the statement's *shape*, the key QUEL caches parses and plans under
-- beside the literal values in source order, so a statement that
differs from an earlier one only in its literals costs one pass here
and no parse (see :mod:`repro.quel.cache`).
"""

import enum
import re

from repro.errors import ParseError


class TokenType(enum.Enum):
    """Lexical categories produced by the Lexer."""

    IDENT = "identifier"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    END = "end of input"


class Token:
    """One lexeme with its source position.  *slot* numbers the number
    and string tokens of a source from 0, in order -- the index of the
    token's value in :func:`lift`'s literal vector; None for the rest."""

    __slots__ = ("type", "value", "line", "column", "slot")

    def __init__(self, token_type, value, line, column, slot=None):
        self.type = token_type
        self.value = value
        self.line = line
        self.column = column
        self.slot = slot

    def matches_keyword(self, keyword):
        return self.type is TokenType.IDENT and self.value.lower() == keyword

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (
            self.type.name,
            self.value,
            self.line,
            self.column,
        )


# -- the lexical rules, stated once ------------------------------------------

#: Either quote; a backslash takes the next character with it, newlines
#: included; no closing quote, no match.  Unrolled (a run of plain
#: characters, then escape-and-run pairs) so a scan takes a character
#: class at a time, not one alternation a character.
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"|\'[^\'\\]*(?:\\.[^\'\\]*)*\''
#: ASCII digits only: ``\d`` and ``str.isdigit`` also accept characters
#: (``²``, ``٣``) that ``int()`` refuses or the grammar never meant.
_NUMBER = r"[0-9]+(?:\.[0-9]+)?"
_COMMENT = r"(?:\#|--)[^\n]*"

#: One token, or one run of whitespace and comments, at a position.
#: ``--`` must be tried before the ``-`` symbol; the alternatives are
#: otherwise disjoint on their first character.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|" + _COMMENT + r")+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<number>" + _NUMBER + r")"
    r"|(?P<string>" + _STRING + r")"
    r"|(?P<symbol><=|>=|!=|\*\*|[()=,.*<>+\-/%;:\[\]])",
    re.DOTALL,
)

#: What :func:`lift` cuts out: (string) | (number) | comment | (a quote
#: no string starts at) and everything after it -- the scan for its
#: closing quote ran to the end of the input, and cutting the rest is
#: what keeps a source of a million such quotes one pass instead of a
#: million.  A digit run that continues a word (``t1``, ``x²5``) is that
#: identifier's, not a number.  The lookahead lets the scan skip, a
#: character class at a time, every position none of these can start at.
_LITERAL = re.compile(
    r"(?=[\"'0-9#-])(?:(" + _STRING + r")|(?<!\w)(" + _NUMBER + r")|"
    + _COMMENT + r"|([\"']).*)",
    re.DOTALL,
)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"n": "\n", "t": "\t"}


def _unescape(found):
    char = found.group(1)
    return _ESCAPED.get(char, char)


def _string_value(text):
    """The value of the quoted string token *text*."""
    body = text[1:-1]
    if "\\" in body:
        body = _ESCAPE.sub(_unescape, body)
    return body


def _number_value(text):
    return float(text) if "." in text else int(text)


def lift(source):
    """Split *source* into ``(shape, literals)`` without building tokens.

    *literals* is the tuple of number and string values in source order
    (``Token.slot`` indexes it).  *shape* is the tuple of the text
    between the literals and comments, closed by one character per cut:
    ``s``/``i``/``f`` for a string, integer or float literal -- a slot
    is typed, so ``1``, ``1.0`` and ``"1"`` are three shapes -- ``c``
    for a comment and ``!`` for an unterminated string.  Two sources
    with equal shapes lex to the same tokens but for the literal
    values, or both fail to lex: a cut starts where a token would and
    takes what the token would.  Never raises; time linear in *source*.
    """
    parts = _LITERAL.split(source)
    if len(parts) == 1:
        return (source, ""), ()
    literals = []
    kinds = []
    for index in range(1, len(parts), 4):
        string, number, unterminated = parts[index:index + 3]
        if string is not None:
            literals.append(_string_value(string))
            kinds.append("s")
        elif number is not None:
            literals.append(_number_value(number))
            kinds.append("f" if "." in number else "i")
        else:
            kinds.append("c" if unterminated is None else "!")
    return tuple(parts[0::4]) + ("".join(kinds),), tuple(literals)


def shape_text(shape):
    """A shape as a statement with ``?`` where a literal stood."""
    pieces = [shape[0]]
    for kind, piece in zip(shape[-1], shape[1:-1]):
        pieces.append("" if kind == "c" else "?")
        pieces.append(piece)
    return " ".join("".join(pieces).split())


def leading_keywords(source, count):
    """The lower-cased identifiers *source* opens with, at most *count*
    of them, whitespace and comments skipped: how callers that route a
    statement by its verb (``define``, ``range of``) read it.  Stops at
    the first thing that is not an identifier; never raises."""
    words = []
    position = 0
    while len(words) < count:
        found = _TOKEN.match(source, position)
        if found is None:
            break
        if found.lastgroup == "ident":
            words.append(found.group().lower())
        elif found.lastgroup != "skip":
            break
        position = found.end()
    return tuple(words)


class Lexer:
    """Tokenize *source*: call :meth:`tokens`."""

    def __init__(self, source):
        self.source = source

    def tokens(self):
        """Return the full token list, ending with an END token."""
        source = self.source
        out = []
        match = _TOKEN.match
        line = 1
        line_start = 0  # offset of the current line's first character
        position = 0
        slot = 0
        end = len(source)
        while position < end:
            found = match(source, position)
            column = position - line_start + 1
            if found is None:
                char = source[position]
                if char == '"' or char == "'":
                    raise ParseError("unterminated string", line, column)
                raise ParseError("unexpected character %r" % char, line, column)
            kind = found.lastgroup
            text = found.group()
            if kind == "ident":
                first = text[0]
                # The pattern's first-character class also lets through
                # the numeric non-letters (superscripts, fractions).
                if first > "\x7f" and not first.isalpha():
                    raise ParseError(
                        "unexpected character %r" % first, line, column
                    )
                out.append(Token(TokenType.IDENT, text, line, column))
            elif kind == "symbol":
                out.append(Token(TokenType.SYMBOL, text, line, column))
            elif kind == "number":
                out.append(Token(
                    TokenType.NUMBER, _number_value(text), line, column, slot
                ))
                slot += 1
            elif kind == "string":
                out.append(Token(
                    TokenType.STRING, _string_value(text), line, column, slot
                ))
                slot += 1
            position = found.end()
            if kind == "skip" or kind == "string":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = position - len(text) + text.rfind("\n") + 1
        out.append(Token(TokenType.END, "", line, end - line_start + 1))
        return out


class TokenStream:
    """Cursor over a token list with the usual parser helpers."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead=0):
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self):
        token = self.peek()
        if token.type is not TokenType.END:
            self._index += 1
        return token

    def at_end(self):
        return self.peek().type is TokenType.END

    def accept_keyword(self, keyword):
        if self.peek().matches_keyword(keyword):
            return self.next()
        return None

    def expect_keyword(self, keyword):
        token = self.accept_keyword(keyword)
        if token is None:
            actual = self.peek()
            raise ParseError(
                "expected %r, found %r" % (keyword, actual.value),
                actual.line,
                actual.column,
            )
        return token

    def accept_symbol(self, symbol):
        token = self.peek()
        if token.type is TokenType.SYMBOL and token.value == symbol:
            return self.next()
        return None

    def expect_symbol(self, symbol):
        token = self.accept_symbol(symbol)
        if token is None:
            actual = self.peek()
            raise ParseError(
                "expected %r, found %r" % (symbol, actual.value),
                actual.line,
                actual.column,
            )
        return token

    def expect_identifier(self, description="identifier"):
        token = self.peek()
        if token.type is not TokenType.IDENT:
            raise ParseError(
                "expected %s, found %r" % (description, token.value),
                token.line,
                token.column,
            )
        return self.next()
