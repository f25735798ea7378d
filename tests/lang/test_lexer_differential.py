"""The regex lexer against its oracle, and against garbage.

*Differential*: ``repro.lang.lexer.Lexer`` and the character-at-a-time
lexer it replaced (``reference_lexer.py``) must produce the same
``(type, value, line, column)`` streams and the same ``ParseError``
``(message, line, column)`` over every QUEL/DDL string literal in
``tests/`` and over seeded token soups.  ``lift`` -- the pass that
yields a statement's shape and literal vector without building tokens
-- is held to the token stream the same way: its literals are the
number and string tokens' values, in order, and two sources that differ
only in their literals have one shape.

*Fuzz* (ROADMAP 5(c), first instalment): over seeded Unicode soup the
lexer returns tokens or raises ``ParseError`` -- never anything else --
and on inputs built to make a backtracking scanner rescan, both passes
stay linear.
"""

import ast
import random
import time
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.lang.lexer import Lexer, TokenType, lift
from repro.quel.parser import parse_quel
from tests.lang.reference_lexer import Lexer as ReferenceLexer

TESTS = Path(__file__).resolve().parent.parent
_VERBS = ("retrieve", "append", "replace", "delete", "range of", "define")
_LITERALS = (TokenType.NUMBER, TokenType.STRING)

#: What the soups are made of: every token class, the characters that
#: open and close strings and comments, and the non-ASCII digits,
#: letters and spaces the two lexers could disagree on.
PIECES = [
    "a", "Z", "_", "x9", "retrieve", "0", "1", "9", "42", "1.5", "1.5.2",
    "10x", "5.", ".5", ".", " ", "  ", "\n", "\t", "\r", "\r\n", '"', "'",
    "\\", "\\n", "\\t", '\\"', "\\'", "#", "-", "--", "-- it's\n",
    '# say "hi"\n', '"a -- b"', "'c # d'", '"multi\nline"', "<", "=", "<=",
    ">=", "!=", "!", "**", "*", "(", ")", "[", "]", ",", ";", ":", "/",
    "%", "+", "~", "@", "$", "²", "٣", "½", "Ⅷ", "三", "é", "x²", "\x0b",
    "\x0c", " ", " ", "﻿", "\x00",
]


def _stream(lexer, source):
    try:
        return [
            (token.type, token.value, type(token.value), token.line,
             token.column)
            for token in lexer(source).tokens()
        ]
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)


def _statement_literals():
    """Every string constant under ``tests/`` that mentions a statement
    verb, ``%`` templates and deliberately broken ones included."""
    found = set()
    for path in sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(verb in node.value.lower() for verb in _VERBS):
                    found.add(node.value)
    return sorted(found)


def _soup(rng, length=14):
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(1, length)))


def _agree(source):
    new, old = _stream(Lexer, source), _stream(ReferenceLexer, source)
    assert new == old, "the lexers disagree on %r" % source
    shape, literals = lift(source)  # never raises
    if new[0] != "ParseError":
        tokens = [entry for entry in new if entry[0] in _LITERALS]
        assert [(v, t) for _, v, t, _, _ in tokens] == [
            (value, type(value)) for value in literals
        ], "lift and the tokens disagree on the literals of %r" % source
    return new


def test_the_statements_of_the_test_suite():
    sources = _statement_literals()
    assert len(sources) > 300  # the walk found the suite
    lexed = sum(_agree(source)[0] != "ParseError" for source in sources)
    assert lexed > 250


@pytest.mark.parametrize("seed", range(4))
def test_token_soups(seed):
    rng = random.Random(seed)
    outcomes = {True: 0, False: 0}
    for _ in range(4000):
        outcomes[_agree(_soup(rng))[0] == "ParseError"] += 1
    assert min(outcomes.values()) > 400  # both sides are exercised


def test_slots_number_the_literal_tokens():
    tokens = Lexer("a = 'x' and b < 2.5 -- 7\n or c = 3").tokens()
    assert [(t.value, t.slot) for t in tokens if t.slot is not None] == [
        ("x", 0), (2.5, 1), (3, 2),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_sources_that_differ_in_their_literals_have_one_shape(seed):
    """...and lex to the same tokens but for the literal values, or
    fail alike: what makes a parse cached under the shape sound."""
    rng = random.Random(seed)
    strings = ['"a"', "'it\\'s'", '"-- # 1"', '"multi\nline"', "''", '"é²"']
    kinds = {"s": strings, "i": ["0", "7", "1234"], "f": ["0.5", "12.25"]}
    fixed = [p for p in PIECES if not p[0].isdigit() and p[0] not in "\"'"]

    def skeleton(entries):
        if entries[0] == "ParseError":  # the message, less its position
            return entries[1].rsplit(" at line ", 1)[0]
        return [
            (kind, None if kind in _LITERALS else value)
            for kind, value, _, _, _ in entries
        ]

    shared = 0
    for _ in range(1500):
        template = [
            rng.choice("sif") if rng.random() < 0.3 else rng.choice(fixed)
            for _ in range(rng.randrange(1, 12))
        ]
        one, two = (
            "".join(
                rng.choice(kinds[piece]) if piece in kinds else piece
                for piece in template
            )
            for _ in range(2)
        )
        # (Digits that run together, or a quote inside a comment, can
        # still part the two shapes; most pairs share one.)
        if lift(one)[0] == lift(two)[0]:
            shared += 1
            assert skeleton(_stream(Lexer, one)) == skeleton(
                _stream(Lexer, two)
            ), "one shape, two token streams: %r and %r" % (one, two)
    assert shared > 1000


class TestNumbersAreAsciiDigits:
    def test_a_superscript_is_an_unexpected_character(self):
        # str.isdigit() accepts it and int() does not: it used to
        # escape as a ValueError (an untyped MDMError over the wire).
        with pytest.raises(ParseError, match="unexpected character '²'") as info:
            parse_quel("retrieve (t.x) where t.x = ²")
        assert (info.value.line, info.value.column) == (1, 28)

    @pytest.mark.parametrize("source", ["٣", "1²", "x = 1.٣", "½", "Ⅷ"])
    def test_no_other_digit_is_a_number(self, source):
        with pytest.raises(ParseError, match="unexpected character"):
            Lexer(source).tokens()

    def test_inside_an_identifier_they_are_letters_still(self):
        (ident, _end) = Lexer("x²٣").tokens()
        assert (ident.type, ident.value) == (TokenType.IDENT, "x²٣")


def _unicode_soup(rng):
    def char():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(PIECES)
        if roll < 0.7:
            return chr(rng.randrange(0x20, 0x3000))
        if roll < 0.9:
            return chr(rng.randrange(0, 0x110000))  # lone surrogates too
        return rng.choice(["\ud800", "\udfff", "\U0001d7d8", "٠", "①"])

    return "".join(char() for _ in range(rng.randrange(1, 40)))


@pytest.mark.parametrize("seed", range(4))
def test_unicode_soup_yields_tokens_or_a_parse_error(seed):
    rng = random.Random(1000 + seed)
    for _ in range(3000):
        source = _unicode_soup(rng)
        try:
            tokens = Lexer(source).tokens()
        except ParseError as error:
            assert error.line >= 1 and error.column >= 1
        else:
            assert tokens[-1].type is TokenType.END
        _agree(source)
        try:
            parse_quel(source)  # the parser over soup: statements or...
        except ParseError:
            pass


def test_inputs_built_to_make_a_scanner_rescan_stay_linear():
    size = 200_000
    hostile = [
        '"' + '\\"' * size,  # every \" could open a string of its own
        "'" + "\\'" * size,
        '"a' * size,
        "-" * (2 * size),
        "- " * size,
        " " * (2 * size) + "~",
        "# c\n" * size,
        "1." * size,
        "x²" * size,
        '"' + "\\" * (2 * size + 1),
    ]
    started = time.monotonic()
    for source in hostile:
        lift(source)
        try:
            Lexer(source).tokens()
        except ParseError:
            pass
    # ~1 s on the reference host; a quadratic pass would need hours.
    assert time.monotonic() - started < 30
