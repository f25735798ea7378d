"""Property battery: compiled plans agree with the AST interpreter.

Random retrieve statements (restrictions, arithmetic, joins, order
operators, sort, unique) run through the engine -- compiled closures,
index lookups, order-range pushdown -- and through the reference
interpreter in ``tests/quel/reference.py``, which scans every range
variable and walks the AST per binding.  Both must produce the same
multiset of rows, and when the statement sorts, each must emit the sort
column in non-decreasing order.  Every statement runs again under a
random ``limit N``: the engine's rows must be the first N of its own
unlimited answer and, over one range variable (where the reference
shares the engine's row order), the reference's first N too.  Failures
report the seed and the generated source so a reproducer is one paste
away.

*Shape soundness* (``test_statements_of_one_shape_agree``): the engine
caches one parse and one plan per statement *shape* and binds the
literals at execute, so the second generator emits runs of consecutive
statements that share a shape and differ only in their literals -- a
type change in one slot (``1``, ``1.0``, ``"1"``), varying ``limit`` /
``matches`` / ``similar_to`` / ``similarity`` / ``ordinal`` literals
(the pinned ones), the same text under different range declarations,
DDL epoch bumps in between, a session that re-registered
``similarity`` -- and requires one long-lived session, a fresh session
per statement and the reference to agree, locked and pinned.
"""

import random

import pytest

from repro.core.schema import Schema
from repro.quel.executor import QuelSession
from repro.quel.functions import FunctionRegistry
from tests.quel.reference import reference_execute

pytestmark = pytest.mark.props

SEEDS = range(15)
QUERIES_PER_SEED = 8
CHORDS = 3
NOTES = 24


def _populated(seed):
    rng = random.Random(seed)
    schema = Schema("compileprops")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity(
        "NOTE", [("n", "integer"), ("pitch", "integer"), ("label", "string")]
    )
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    chords = [schema.entity_type("CHORD").create(n=i) for i in range(CHORDS)]
    for index in range(NOTES):
        note = schema.entity_type("NOTE").create(
            n=index,
            pitch=40 + rng.randrange(30),
            label="L%d" % rng.randrange(4),
        )
        # Leave a few notes out of the ordering entirely.
        if rng.random() < 0.85:
            ordering.append(chords[rng.randrange(CHORDS)], note)
    return schema, rng


def _random_retrieve(rng):
    """One random (always valid) retrieve over n / m / c."""
    conjuncts = []
    used = {"n"}
    shape = rng.randrange(4)
    if shape == 1:  # parent-child order operator
        conjuncts.append("n under c in o")
        used.add("c")
        if rng.random() < 0.7:
            conjuncts.append("c.n = %d" % rng.randrange(CHORDS))
    elif shape == 2:  # sibling order operator, either direction
        conjuncts.append(
            "n %s m in o" % rng.choice(["before", "after"])
        )
        used.add("m")
        if rng.random() < 0.7:
            conjuncts.append("m.n = %d" % rng.randrange(NOTES))
    elif shape == 3:  # plain two-variable join
        conjuncts.append("n.pitch = m.pitch + %d" % rng.randrange(3))
        used.add("m")
        conjuncts.append("m.n %% 4 = %d" % rng.randrange(4))
    for _ in range(rng.randrange(3)):
        conjuncts.append(
            rng.choice(
                [
                    "n.pitch > %d" % (40 + rng.randrange(30)),
                    "n.pitch < %d" % (40 + rng.randrange(30)),
                    "n.n %% 3 = %d" % rng.randrange(3),
                    "n.n = %d" % rng.randrange(NOTES),
                    "n.label = \"L%d\"" % rng.randrange(4),
                    "n.pitch * 2 - n.n > %d" % rng.randrange(120),
                ]
            )
        )
    targets = ["n.n"]
    if rng.random() < 0.6:
        targets.append(rng.choice(["n.pitch", "n.label", "v = n.pitch - n.n"]))
    if "m" in used and rng.random() < 0.5:
        targets.append("m.n")
    if "c" in used and rng.random() < 0.5:
        targets.append("c.n")
    source = "retrieve %s(%s)" % (
        "unique " if rng.random() < 0.2 else "",
        ", ".join(targets),
    )
    if conjuncts:
        source += " where " + " and ".join(conjuncts)
    sorted_by = None
    if rng.random() < 0.4:
        sorted_by = targets[0]
        source += " sort by %s" % sorted_by
    return source, sorted_by, used


def _canonical(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def _sort_column(rows, column):
    return [row[column] for row in rows]


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_matches_interpreter(seed):
    schema, rng = _populated(seed)
    ranges = "range of n, m is NOTE\nrange of c is CHORD\n"
    session = QuelSession(schema)
    session.execute(ranges)
    for _ in range(QUERIES_PER_SEED):
        source, sorted_by, used = _random_retrieve(rng)
        results = {
            "compiled": session.execute(source),
            "interpreted": reference_execute(schema, ranges + source),
        }
        reference = _canonical(results["interpreted"])
        for name, rows in results.items():
            assert _canonical(rows) == reference, (
                "seed=%d source=%r: %s disagrees with the interpreter\n"
                "%s=%r\ninterpreted=%r"
                % (seed, source, name, name, rows, results["interpreted"])
            )
            if sorted_by is not None:
                column = _sort_column(rows, sorted_by)
                assert column == sorted(column), (
                    "seed=%d source=%r: %s broke the sort order"
                    % (seed, source, name)
                )
        limit = 1 + rng.randrange(6)
        limited = "%s limit %d" % (source, limit)
        rows = session.execute(limited)
        assert rows == results["compiled"][:limit], (
            "seed=%d source=%r: not a prefix of the unlimited answer"
            % (seed, limited)
        )
        if used == {"n"}:
            assert rows == reference_execute(schema, ranges + limited), (
                "seed=%d source=%r: disagrees with the interpreter"
                % (seed, limited)
            )


# -- shape soundness -----------------------------------------------------------

SHAPE_SEEDS = range(6)
RUNS_PER_SEED = 14
TITLES = [
    "Prelude in C", "Prélude in D", "Fugue in C minor", "Fugue in G",
    "Nocturne", "Notturno", "Sonata no 3", "Sonata no 13", "Air", "Aria",
]
RANGES = "range of n, m is NOTE\nrange of c is CHORD\n"


def _titled(seed):
    """``_populated`` plus what the pinned literals need: a text
    attribute (indexed on odd seeds, scanned on even ones) and a second
    ordering for ``ordinal``'s name to choose between."""
    rng = random.Random(seed)
    schema = Schema("shapeprops")
    schema.define_entity("CHORD", [("n", "integer"), ("pitch", "integer")])
    schema.define_entity(
        "NOTE",
        [("n", "integer"), ("pitch", "integer"), ("label", "string"),
         ("title", "string")],
    )
    first = schema.define_ordering("o", ["NOTE"], under="CHORD")
    second = schema.define_ordering("p", ["NOTE"], under="CHORD")
    chords = [
        schema.entity_type("CHORD").create(n=i, pitch=50 + i)
        for i in range(CHORDS)
    ]
    for index in range(NOTES):
        note = schema.entity_type("NOTE").create(
            n=index,
            pitch=40 + rng.randrange(30),
            label="L%d" % rng.randrange(4),
            title=rng.choice(TITLES),
        )
        if rng.random() < 0.85:
            first.append(chords[rng.randrange(CHORDS)], note)
        if rng.random() < 0.5:
            second.insert(chords[rng.randrange(CHORDS)], note, 1)
    if seed % 2:
        schema.entity_type("NOTE").table.create_text_index("title")
    return schema, rng


def _number(rng, low, high):
    """An integer literal, sometimes written as the float it equals."""
    value = low + rng.randrange(high - low)
    return rng.choice(["%d", "%d", "%d.0", "%d.5"]) % value


def _retyped(rng, high):
    """One slot, three types: ``1``, ``1.0``, ``"1"`` (for ``=`` and
    ``!=`` only -- an order comparison across types has no answer)."""
    return rng.choice(["%d", "%d.0", '"%d"']) % rng.randrange(high)


def _label(rng):
    return rng.choice(['"L%d"', "'L%d'"]) % rng.randrange(5)


def _query(rng):
    word = rng.choice(TITLES + ["prelude", "fugue in", "sonata no", "no 3"])
    return '"%s"' % rng.choice([word, word.lower(), word.upper()])


#: (template, its slots' generators, range variables, sort column,
#: whether the reference shares the engine's row order).  Every run of a
#: template is one shape; the slots are what varies.
TEMPLATES = [
    ("retrieve (n.n, n.pitch) where n.n = %s",
     [lambda r: _retyped(r, NOTES)]),
    ("retrieve (n.n) where %s = n.n or n.label != %s",
     [lambda r: _retyped(r, NOTES), _label]),
    ("retrieve (n.n) where n.pitch > %s and not (n.pitch >= %s)",
     [lambda r: _number(r, 40, 60), lambda r: _number(r, 50, 70)]),
    ("retrieve (n.n, v = n.pitch * %s + %s, w = %s) where n.label = %s",
     [lambda r: _number(r, 0, 4), lambda r: _number(r, 0, 9), _label,
      _label]),
    ("retrieve unique (n.label, k = %s) where n.pitch - %s < 60",
     [lambda r: _number(r, 0, 3), lambda r: _number(r, 0, 20)]),
    ("retrieve (x = %s + %s, y = %s) where %s != %s",
     [lambda r: _number(r, 0, 9), lambda r: _number(r, 0, 9), _label,
      lambda r: _number(r, 0, 2), lambda r: _number(r, 0, 2)]),
    ("retrieve (c = count(n.n), s = sum(n.pitch + %s)) where n.pitch > %s",
     [lambda r: _number(r, 0, 9), lambda r: _number(r, 40, 70)]),
    # A target that may or may not be the sort key, slot for slot.
    ("retrieve (n.n, v = (n.n - %s) * (n.n - 2)) "
     "sort by (n.n - %s) * (n.n - 2)",
     [lambda r: r.choice(["3", "9"]), lambda r: r.choice(["3", "9"])]),
    ("retrieve (n.n) where n.label != %s limit %s",
     [_label, lambda r: str(1 + r.randrange(6))]),
    ("retrieve (n.n, m.n) where n.pitch = m.pitch + %s and m.n %% %s = %s",
     [lambda r: _number(r, 0, 3), lambda r: str(2 + r.randrange(3)),
      lambda r: str(r.randrange(2))]),
    ("retrieve (n.n, c.n) where n under c in o and c.n = %s and n.pitch > %s",
     [lambda r: _retyped(r, CHORDS), lambda r: _number(r, 40, 60)]),
    ("retrieve (n.n, at = ordinal(n, %s)) where n.n < %s",
     [lambda r: r.choice(['"o"', '"p"']), lambda r: _number(r, 4, NOTES)]),
    ("retrieve (n.n) where matches(n.title, %s) and n.pitch > %s",
     [_query, lambda r: _number(r, 40, 60)]),
    ("retrieve (n.n) where matches(n.title, %s) limit %s",
     [_query, lambda r: str(1 + r.randrange(4))]),
    ("retrieve (n.n) where similar_to(n.title, %s, %s)",
     [_query, lambda r: r.choice(["0.3", "0.5", "0.9", "1"])]),
    ("retrieve (n.n, s = similarity(n.title, %s)) where n.pitch > %s "
     "sort by similarity(n.title, %s) descending limit %s",
     [_query, lambda r: _number(r, 40, 50), _query,
      lambda r: str(1 + r.randrange(5))]),
    ("retrieve (n.n, s = similarity(n.title, %s)) "
     "where matches(n.title, %s) "
     "sort by similarity(n.title, %s) descending limit %s",
     [_query, lambda r: r.choice(['"in"', '"no"', '"a"']), _query,
      lambda r: str(1 + r.randrange(5))]),
]


def _multiset(rows):
    """Order-free and type-strict (``_canonical`` cannot sort a None
    beside an integer, and holds ``1 == 1.0``)."""
    return sorted(repr(sorted(row.items())) for row in rows)


def _other_similarity(left, right):
    """What one session registers over the builtin."""
    return len(left or "") - len(right or "")


@pytest.mark.parametrize("mode", ["locked", "pinned"])
@pytest.mark.parametrize("seed", SHAPE_SEEDS)
def test_statements_of_one_shape_agree(seed, mode):
    schema, rng = _titled(seed)
    transactions = schema.database.transactions

    def session_with(ranges, similarity=None):
        session = QuelSession(schema)
        session.execute(ranges)
        if similarity is not None:
            session.register_function("similarity", similarity)
        return session

    def engine(session, source):
        if mode == "pinned":
            transactions.pin_snapshot()
        try:
            return session.execute(source)
        finally:
            if mode == "pinned":
                transactions.unpin_snapshot()

    # The same texts under other declarations: n and m range over CHORD
    # (every template that names only n.n / n.pitch is valid there too).
    chord_ranges = "range of n, m is CHORD\n"
    rebound = FunctionRegistry()
    rebound.register_scalar("similarity", _other_similarity)
    views = [
        ("notes", RANGES, session_with(RANGES), None),
        ("rebound similarity", RANGES,
         session_with(RANGES, _other_similarity), rebound),
        ("chords", chord_ranges, session_with(chord_ranges), None),
    ]
    bumps = 0
    for _ in range(RUNS_PER_SEED):
        template, slots = rng.choice(TEMPLATES)
        on_chords = not any(
            word in template
            for word in ("label", "title", "under", "ordinal")
        )
        for _ in range(2 + rng.randrange(3)):  # one shape, new literals
            source = template % tuple(slot(rng) for slot in slots)
            if rng.random() < 0.15:
                # A DDL epoch bump between two statements of a shape.
                bumps += 1
                schema.define_entity("BUMP%d" % bumps, [("n", "integer")])
            for name, ranges, session, functions in views:
                if name == "chords" and not on_chords:
                    continue
                if name == "rebound similarity" and "similarity" not in source:
                    continue
                expected = reference_execute(
                    schema, ranges + source, functions
                )
                fresh = session_with(
                    ranges, _other_similarity if functions else None
                )
                for who, rows in (
                    ("long-lived", engine(session, source)),
                    ("fresh", engine(fresh, source)),
                ):
                    context = "seed=%d mode=%s view=%s %s session: %r" % (
                        seed, mode, name, who, source
                    )
                    ordered = "sort by" in source or "limit" in source
                    if ordered and " m." not in source:
                        assert rows == expected, context
                    else:
                        assert _multiset(rows) == _multiset(expected), context
