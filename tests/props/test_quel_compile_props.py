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
"""

import random

import pytest

from repro.core.schema import Schema
from repro.quel.executor import QuelSession
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
