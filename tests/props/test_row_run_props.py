"""The row run decoder against runs of every domain, whole, cut and flipped.

A run (``repro.storage.row``) reaches the decoder from outside the
process -- a log or image a crash may have cut, a peer's frame -- so:

* encode -> decode is the identity, for runs of 0, 1, 3 and 3,000 rows
  holding nulls, empty, non-ASCII and random strings, blobs of up to 50
  bytes, fractions with denominators up to 10**6, the 64-bit and float
  extremes and a column added to the table part-way through its rows;
* a run cut short anywhere raises ``RecoveryError`` and nothing else;
* a run with one bit flipped raises ``RecoveryError`` or decodes.

The same values, mixed across domains, sort by ``value_sort_key``
without raising and in order (the edge values first, then 99 seeds).

Never ``struct.error``, ``IndexError``, ``UnicodeDecodeError``,
``MemoryError`` or a hang: every count is checked against the bytes
present before anything is made for it.  The small runs are cut and
flipped at every byte, the 3,000-row run at every byte of its head and
at a stride after it.  A failure names the byte.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.errors import RecoveryError
from repro.storage.row import Row, decode_row_run, encode_row_run
from repro.storage.table import Column, TableSchema
from repro.storage.values import value_sort_key

pytestmark = pytest.mark.props

DOMAINS = ["integer", "float", "string", "boolean", "rational", "blob", "entity"]
INT64 = (-(2 ** 63), 2 ** 63 - 1)
STRINGS = ["", "a", "Prélude", "♯ and ♭", "\U0001d11e clef", "Étude op. 10", "x" * 40]


def _value(rng, domain, nulls):
    if rng.random() < nulls:
        return None
    if domain == "integer":
        return rng.choice([
            0, -1, *INT64, rng.randrange(-1000, 1000), rng.randrange(2 ** 40),
            rng.randint(-(2 ** 62), 2 ** 62),
        ])
    if domain == "entity":
        return rng.choice([rng.randrange(1, 10 ** 6), INT64[1]])
    if domain == "float":
        return rng.choice([
            0.0, -0.0, 2.5, rng.uniform(-1e12, 1e12), float("-inf"), 1e308, -1e308, 5e-324,
            math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1024)),
        ])
    if domain == "string":
        # Up to 50 code points from anywhere outside the surrogates.
        text = "".join(
            chr(rng.choice([rng.randrange(0xD800), rng.randrange(0xE000, 0x110000)]))
            for _ in range(rng.randrange(51))
        )
        return rng.choice(STRINGS + ["%s %d" % (rng.choice(STRINGS), rng.randrange(50)), text])
    if domain == "boolean":
        return rng.random() < 0.5
    if domain == "rational":
        denominator = rng.randint(1, 10 ** 6)
        return rng.choice([
            Fraction(rng.randrange(-100, 100), rng.randrange(1, 100)),
            Fraction(rng.randint(-1000 * denominator, 1000 * denominator), denominator),
            Fraction(INT64[0], INT64[1]), Fraction(INT64[1]),
        ])
    return bytes(rng.randrange(256) for _ in range(rng.randrange(rng.choice([6, 51]))))


def _table(rng, count, added_at=None, nulls=0.15):
    """A schema over every domain and *count* Rows of it; past the
    first *added_at* rows a string column is added, so the rows before
    it hold shorter tuples."""
    schema = TableSchema("t", [Column(domain, domain) for domain in DOMAINS])
    rows = []
    for rowid in range(1, count + 1):
        if rowid - 1 == added_at:
            schema.set_columns(schema.columns + [Column("added", "string")])
        values = {column.name: _value(rng, column.domain.value, nulls)
                  for column in schema.columns}
        rows.append(Row(rowid * 7, schema.coerce(values), schema.layout))
    return schema, rows


def _encode(schema, rows):
    run = bytearray()
    encode_row_run(rows, schema, run)
    return bytes(run)


def _cases():
    rng = random.Random(38)
    yield "empty", _table(rng, 0)
    yield "one-row", _table(rng, 1)
    yield "one-null-row", _table(rng, 1, nulls=1.0)
    yield "three-rows", _table(rng, 3)
    yield "added-mid-table", _table(rng, 5, added_at=2)
    yield "3000-rows", _table(rng, 3000, added_at=1500)


CASES = dict(_cases())


def _offsets(run):
    """Every byte of a small run; the head and a stride of a big one."""
    if len(run) <= 2048:
        return range(len(run))
    return sorted(set(range(64)) | set(range(64, len(run), len(run) // 100)) | {
        len(run) - 1,
    })


def _decode_or_refuse(run, schema, at):
    """The rows of *run*, or None for a ``RecoveryError``; any other
    error fails the test naming byte *at*."""
    try:
        return decode_row_run(run, schema)
    except RecoveryError:
        return None
    except Exception as error:  # noqa: BLE001 -- anything else is the defect
        pytest.fail("byte %d: %s: %s" % (at, type(error).__name__, error))


@pytest.mark.parametrize("case", CASES)
def test_a_run_decodes_to_the_rows_it_was_made_of(case):
    schema, rows = CASES[case]
    back = decode_row_run(_encode(schema, rows), schema)
    assert back == rows
    assert [row.as_dict() for row in back] == [row.as_dict() for row in rows]
    for before, after in zip(rows, back):
        assert [type(before.get(c)) for c in schema.layout] == [
            type(after.get(c)) for c in schema.layout
        ]


@pytest.mark.parametrize("case", CASES)
def test_a_cut_run_raises_recovery_error_only(case):
    schema, rows = CASES[case]
    run = _encode(schema, rows)
    for cut in _offsets(run):
        assert _decode_or_refuse(run[:cut], schema, cut) is None, cut
    with pytest.raises(RecoveryError, match="past its last column"):
        decode_row_run(run + b"\x00", schema)


@pytest.mark.parametrize("case", CASES)
def test_a_flipped_bit_raises_recovery_error_or_decodes(case):
    schema, rows = CASES[case]
    run = bytearray(_encode(schema, rows))
    for at in _offsets(run):
        run[at] ^= 1 << at % 8
        back = _decode_or_refuse(bytes(run), schema, at)
        assert back is None or all(isinstance(row, Row) for row in back), at
        run[at] ^= 1 << at % 8


def test_a_forged_count_is_refused_before_it_is_allocated():
    schema, rows = CASES["one-row"]
    run = bytearray(_encode(schema, rows))
    # A row count of 2**62, in nine bytes.
    forged = b"\x80" * 8 + b"\x40" + bytes(run[1:])
    with pytest.raises(RecoveryError, match="truncated"):
        decode_row_run(forged, schema)


# Every domain's edge values, sorted together by the first seed.
EDGE_VALUES = [
    None, False, True, 0, -(2 ** 62), 2 ** 62, -32768, 32767, 0.0, -0.0,
    1e308, -1e308, "", "Étude ♯ \U0001d11e", b"", Fraction(1, 999999),
    Fraction(-999999, 10 ** 6),
]


@pytest.mark.parametrize("seed", range(100))
def test_value_sort_key_total_order(seed):
    """Mixed-domain lists sort without raising, in order."""
    if seed == 0:
        values = EDGE_VALUES
    else:
        rng = random.Random(seed)
        values = [_value(rng, rng.choice(DOMAINS), 0.1) for _ in range(rng.randint(2, 6))]
    keys = sorted(value_sort_key(v) for v in values)
    for a, b in zip(keys, keys[1:]):
        assert a <= b
