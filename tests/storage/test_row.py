"""Row semantics over a layout, and the row run."""

from fractions import Fraction

import pytest

from repro.errors import RecoveryError, StorageError
from repro.storage.row import Layout, Row, decode_row_run, encode_row_run
from repro.storage.table import Column, TableSchema


def _schema(*domains):
    """A table whose columns a, b, c, ... have *domains*."""
    return TableSchema("t", [
        Column(chr(ord("a") + at), domain) for at, domain in enumerate(domains)
    ])


ABC = _schema("integer", "string", "integer")


def _row(rowid, values, schema=ABC):
    return Row(rowid, schema.coerce(values), schema.layout)


def _round_trip(rows, schema=ABC):
    run = bytearray()
    encode_row_run(rows, schema, run)
    return decode_row_run(bytes(run), schema)


def test_access():
    row = _row(1, {"a": 1, "b": "x", "c": None})
    assert row["a"] == 1
    assert row.get("c") is None
    assert row.get("missing", 7) == 7
    assert "b" in row
    assert row.columns() == ["a", "b", "c"]
    assert row.as_dict() == {"a": 1, "b": "x", "c": None}
    with pytest.raises(KeyError):
        row["missing"]


def test_replaced_preserves_rowid():
    row = _row(5, {"a": 1, "b": "2", "c": 3})
    updated = row.replaced({"b": "9"})
    assert updated.rowid == 5
    assert updated["b"] == "9"
    assert row["b"] == "2"  # original untouched


def test_equality_and_hash():
    row1 = _row(1, {"a": 1})
    row2 = _row(1, {"a": 1})
    assert row1 == row2
    assert hash(row1) == hash(row2)
    assert row1 != _row(1, {"a": 2})
    assert row1 != _row(2, {"a": 1})


def test_a_row_made_before_a_column_reads_it_as_null():
    """A layout only grows: the rows made before a column answer None
    for it, by every accessor, and equal a row that holds it null."""
    schema = _schema("integer")
    old = Row(1, schema.coerce({"a": 1}), schema.layout)
    schema.set_columns(schema.columns + [Column("b", "string")])
    assert old["b"] is None and old.get("b", 7) is None
    assert old.as_dict() == {"a": 1, "b": None}
    assert old.replaced({"b": "x"}).as_dict() == {"a": 1, "b": "x"}
    assert old == Row(1, schema.coerce({"a": 1}), schema.layout)
    other = Layout(a=0, b=1)
    assert old == Row(1, (1, None), other)
    assert old != Row(1, (1, "x"), other)
    with pytest.raises(KeyError):
        old["never"]


@pytest.mark.parametrize(
    "values",
    [
        {"a": 1, "b": 2, "c": 3},
        {"a": -(2 ** 40), "b": 0.5, "c": "unicode éü"},
        {"a": None, "b": True, "c": False},
        {"a": Fraction(3, 7), "b": b"\x00\xff", "c": ""},
    ],
)
def test_a_one_row_run_round_trips(values):
    schema = _schema(*(
        {int: "integer", float: "float", str: "string", bool: "boolean",
         Fraction: "rational", bytes: "blob", type(None): "entity"}[type(value)]
        for value in values.values()
    ))
    row = _row(99, values, schema)
    (back,) = _round_trip([row], schema)
    assert back == row
    assert back.as_dict() == values


def test_a_run_of_rows_round_trips():
    rows = [_row(i, {"a": i, "b": str(i % 2), "c": None}) for i in range(5)]
    assert _round_trip(rows) == rows


def test_a_run_of_another_width_is_refused():
    run = bytearray()
    encode_row_run([_row(1, {"a": 1, "b": "2", "c": 3})], ABC, run)
    with pytest.raises(RecoveryError, match="3 columns"):
        decode_row_run(bytes(run), _schema("integer", "string"))


def test_a_row_of_another_layout_is_not_encoded():
    with pytest.raises(StorageError, match="another layout"):
        encode_row_run([_row(1, {"a": 1}, _schema("integer", "string", "integer"))],
                       ABC, bytearray())
