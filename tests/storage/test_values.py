"""Domain coercion and the total value sort order."""

import math
from fractions import Fraction

import pytest

from repro.errors import TypeMismatchError
from repro.storage.values import Domain, coerce_value, value_sort_key


class TestDomains:
    def test_from_name(self):
        assert Domain.from_name("integer") is Domain.INTEGER
        assert Domain.from_name("STRING") is Domain.STRING

    def test_from_name_unknown(self):
        with pytest.raises(TypeMismatchError):
            Domain.from_name("decimal")


class TestCoercion:
    def test_integer(self):
        assert coerce_value(Domain.INTEGER, 5) == 5

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(Domain.INTEGER, True)

    def test_integer_rejects_float(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(Domain.INTEGER, 1.5)

    def test_float_accepts_int(self):
        assert coerce_value(Domain.FLOAT, 3) == 3.0
        assert isinstance(coerce_value(Domain.FLOAT, 3), float)

    def test_string(self):
        assert coerce_value(Domain.STRING, "abc") == "abc"

    def test_string_rejects_bytes(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(Domain.STRING, b"abc")

    def test_boolean(self):
        assert coerce_value(Domain.BOOLEAN, True) is True
        with pytest.raises(TypeMismatchError):
            coerce_value(Domain.BOOLEAN, 1)

    def test_rational_from_int(self):
        value = coerce_value(Domain.RATIONAL, 3)
        assert value == Fraction(3)

    def test_rational_rejects_float(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(Domain.RATIONAL, 0.5)

    def test_entity_accepts_int_surrogate(self):
        assert coerce_value(Domain.ENTITY, 42) == 42

    def test_blob(self):
        assert coerce_value(Domain.BLOB, bytearray(b"xy")) == b"xy"

    @pytest.mark.parametrize("domain, value", [
        (Domain.INTEGER, 2 ** 63),
        (Domain.INTEGER, -(2 ** 63) - 1),
        (Domain.ENTITY, 2 ** 64),
        (Domain.RATIONAL, Fraction(1, 3 ** 50)),
        (Domain.RATIONAL, 2 ** 63),
        (Domain.STRING, "\ud800"),
        (Domain.STRING, "a lone \udfff in a title"),
    ])
    def test_a_value_no_store_can_hold_is_refused(self, domain, value):
        with pytest.raises(TypeMismatchError):
            coerce_value(domain, value)

    @pytest.mark.parametrize("domain, value", [
        (Domain.INTEGER, 2 ** 63 - 1),
        (Domain.INTEGER, -(2 ** 63)),
        (Domain.ENTITY, 2 ** 63 - 1),
        (Domain.RATIONAL, Fraction(-(2 ** 63), 2 ** 63 - 1)),
        (Domain.STRING, "\U0001d11e clef"),
    ])
    def test_the_widest_value_every_store_holds_is_accepted(self, domain, value):
        assert coerce_value(domain, value) == value

    def test_null_everywhere(self):
        for domain in Domain:
            assert coerce_value(domain, None) is None


class TestSortKey:
    def test_nulls_first(self):
        assert value_sort_key(None) < value_sort_key(-10)

    def test_numerics_mix(self):
        assert value_sort_key(1) < value_sort_key(1.5) < value_sort_key(Fraction(7, 4))

    def test_numeric_equality_across_types(self):
        assert value_sort_key(2) == value_sort_key(2.0)

    def test_strings_after_numbers(self):
        assert value_sort_key(10 ** 9) < value_sort_key("a")

    def test_string_order(self):
        assert value_sort_key("abc") < value_sort_key("abd")

    def test_bytes_after_strings(self):
        assert value_sort_key("zz") < value_sort_key(b"aa")

    def test_unsortable(self):
        import pytest

        with pytest.raises(TypeMismatchError):
            value_sort_key(object())

    # The exact key of every kind, so a fast path for one type cannot
    # change what an index stores for another.
    @pytest.mark.parametrize("value, key", [
        (None, (0, 0)),
        (True, (2, True)),
        (False, (2, False)),
        (7, (2, 7)),
        (2 ** 53 + 1, (2, 2 ** 53 + 1)),
        (-(2 ** 60), (2, -(2 ** 60))),
        (2.5, (2, 2.5)),
        (Fraction(1, 3), (2, Fraction(1, 3))),
        ("", (3, "")),
        ("abc", (3, "abc")),
        (b"ab", (4, b"ab")),
    ])
    def test_exact_keys(self, value, key):
        got = value_sort_key(value)
        assert got == key
        assert [type(part) for part in got] == [type(part) for part in key]

    def test_ints_past_2_53_keep_their_own_key(self):
        assert value_sort_key(2 ** 53) < value_sort_key(2 ** 53 + 1)
        assert value_sort_key(2 ** 53 + 1) != value_sort_key(float(2 ** 53))
        assert value_sort_key(float(2 ** 53)) == value_sort_key(2 ** 53)
        assert value_sort_key(2 ** 53 + 1) < value_sort_key(Fraction(2 ** 55 + 5, 4))

    def test_negative_zero_keeps_its_sign(self):
        key = value_sort_key(-0.0)
        assert key == value_sort_key(0) and math.copysign(1.0, key[1]) == -1.0

    def test_a_str_subclass_is_refused(self):
        class Title(str):
            pass

        with pytest.raises(TypeMismatchError):
            value_sort_key(Title("abc"))
