"""The character-at-a-time lexer the parsers used until the regex pass
in ``repro.lang.lexer`` replaced it, kept as that pass's oracle:
``test_lexer_differential.py`` requires the same tokens, positions and
``ParseError``s from both.  One thing differs from the code as it was:
a number is ASCII digits only (``str.isdigit`` accepts ``²``, which
``int()`` then refuses with a ``ValueError``).
"""

from repro.errors import ParseError
from repro.lang.lexer import Token, TokenType


#: Multi-character symbols recognized before single characters.
_MULTI_SYMBOLS = ("<=", ">=", "!=", "**")
_SINGLE_SYMBOLS = set("()=,.*<>+-/%;:[]")


def _is_digit(char):
    return char != "" and char in "0123456789"


class Lexer:
    """Tokenize *source*: call :meth:`tokens`."""

    def __init__(self, source):
        self.source = source
        self._position = 0
        self._line = 1
        self._column = 1

    def tokens(self):
        """Return the full token list, ending with an END token."""
        out = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.type is TokenType.END:
                return out

    def _peek(self, ahead=0):
        position = self._position + ahead
        if position >= len(self.source):
            return ""
        return self.source[position]

    def _advance(self, count=1):
        for _ in range(count):
            if self._position < len(self.source):
                if self.source[self._position] == "\n":
                    self._line += 1
                    self._column = 1
                else:
                    self._column += 1
                self._position += 1

    def _skip_whitespace_and_comments(self):
        while True:
            char = self._peek()
            if char and char in " \t\r\n":
                self._advance()
            elif char == "#" or (char == "-" and self._peek(1) == "-"):
                while self._peek() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self):
        self._skip_whitespace_and_comments()
        line, column = self._line, self._column
        char = self._peek()
        if not char:
            return Token(TokenType.END, "", line, column)
        if char == '"' or char == "'":
            return self._string(char, line, column)
        if _is_digit(char):
            return self._number(line, column)
        if char.isalpha() or char == "_":
            return self._identifier(line, column)
        for symbol in _MULTI_SYMBOLS:
            if self.source.startswith(symbol, self._position):
                self._advance(len(symbol))
                return Token(TokenType.SYMBOL, symbol, line, column)
        if char in _SINGLE_SYMBOLS:
            self._advance()
            return Token(TokenType.SYMBOL, char, line, column)
        raise ParseError("unexpected character %r" % char, line, column)

    def _string(self, quote, line, column):
        self._advance()
        chars = []
        while True:
            char = self._peek()
            if not char:
                raise ParseError("unterminated string", line, column)
            if char == "\\":
                self._advance()
                escaped = self._peek()
                mapping = {"n": "\n", "t": "\t", "\\": "\\", quote: quote}
                chars.append(mapping.get(escaped, escaped))
                self._advance()
                continue
            if char == quote:
                self._advance()
                return Token(TokenType.STRING, "".join(chars), line, column)
            chars.append(char)
            self._advance()

    def _number(self, line, column):
        digits = []
        seen_dot = False
        while True:
            char = self._peek()
            if _is_digit(char):
                digits.append(char)
                self._advance()
            elif char == "." and not seen_dot and _is_digit(self._peek(1)):
                seen_dot = True
                digits.append(char)
                self._advance()
            else:
                break
        text = "".join(digits)
        value = float(text) if seen_dot else int(text)
        return Token(TokenType.NUMBER, value, line, column)

    def _identifier(self, line, column):
        chars = []
        while True:
            char = self._peek()
            if char.isalnum() or char == "_":
                chars.append(char)
                self._advance()
            else:
                break
        return Token(TokenType.IDENT, "".join(chars), line, column)
