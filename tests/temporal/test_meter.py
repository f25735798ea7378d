"""Meter signatures."""

from fractions import Fraction

import pytest

from repro.errors import NotationError
from repro.temporal.meter import COMMON_TIME, MeterSignature


class TestConstruction:
    def test_parse(self):
        meter = MeterSignature.parse("6/8")
        assert (meter.numerator, meter.denominator) == (6, 8)

    @pytest.mark.parametrize("bad", ["", "3", "3:4", "0/4", "3/5", "x/y"])
    def test_parse_bad(self, bad):
        with pytest.raises(NotationError):
            MeterSignature.parse(bad)

    def test_denominator_power_of_two(self):
        with pytest.raises(NotationError):
            MeterSignature(4, 6)

    def test_str_round_trip(self):
        meter = MeterSignature(3, 4)
        assert MeterSignature.parse(str(meter)) == meter


class TestDurations:
    @pytest.mark.parametrize(
        "num,den,beats",
        [(4, 4, 4), (3, 4, 3), (6, 8, 3), (2, 2, 4), (12, 8, 6), (5, 4, 5),
         (7, 8, Fraction(7, 2))],
    )
    def test_measure_duration(self, num, den, beats):
        assert MeterSignature(num, den).measure_duration().beats == beats

    def test_beat_offsets(self):
        assert MeterSignature(3, 4).beat_offsets() == [0, 1, 2]
        assert MeterSignature(6, 8).beat_offsets() == [
            0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2),
        ]

    def test_offsets_fill_measure(self):
        """Every meter of up to 16 beats: the offsets step by the pulse
        from 0, and the measure lasts one pulse past the last."""
        for numerator in range(1, 17):
            for denominator in (1, 2, 4, 8, 16, 32):
                meter = MeterSignature(numerator, denominator)
                offsets = meter.beat_offsets()
                assert len(offsets) == numerator, meter
                assert offsets[0] == 0, meter
                pulse = Fraction(4, denominator)
                assert all(b - a == pulse for a, b in zip(offsets, offsets[1:])), meter
                assert offsets[-1] + pulse == meter.measure_duration().beats, meter

    def test_contains_offset(self):
        meter = COMMON_TIME
        assert meter.contains_offset(Fraction(0))
        assert meter.contains_offset(Fraction(7, 2))
        assert not meter.contains_offset(Fraction(4))
        assert not meter.contains_offset(Fraction(-1))

    def test_beat_unit(self):
        assert MeterSignature(6, 8).beat_unit == Fraction(1, 8)
