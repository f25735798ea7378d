"""Property tests: storage-layer round trips and the value order.

Index reads against the rows they index -- ``select_eq`` and
``select_range``, locked and pinned, under insert / update / delete --
are the MVCC battery's (``tests/props/test_mvcc_props.py``)."""

from hypothesis import given, settings, strategies as st

from repro.storage.row import Row
from repro.storage.values import value_sort_key

storable_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=50),
    st.binary(max_size=50),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(storable_values, min_size=3, max_size=3))
def test_row_serialization_round_trip(values):
    row = Row(7, dict(zip("abc", values)))
    blob = row.serialize(["a", "b", "c"])
    back, offset = Row.deserialize(blob, ["a", "b", "c"])
    assert back == row
    assert offset == len(blob)


@settings(max_examples=100, deadline=None)
@given(st.lists(storable_values, min_size=2, max_size=6))
def test_value_sort_key_total_order(values):
    keys = [value_sort_key(v) for v in values]
    keys.sort()  # must not raise: total order over mixed types
    for a, b in zip(keys, keys[1:]):
        assert a <= b
