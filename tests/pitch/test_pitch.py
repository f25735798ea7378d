"""Pitches, MIDI keys, frequencies, spelling arithmetic."""

import pytest

from repro.errors import NotationError
from repro.pitch.clef import ALTO, BASS, TENOR, TREBLE
from repro.pitch.pitch import Pitch, PitchClass


class TestPitchClass:
    def test_semitones(self):
        assert PitchClass("C").semitone == 0
        assert PitchClass("B").semitone == 11
        assert PitchClass("C", -1).semitone == 11  # Cb wraps
        assert PitchClass("F", 1).semitone == 6

    def test_names(self):
        assert PitchClass("E", -1).name() == "Eb"
        assert PitchClass("F", 2).name() == "F##"

    def test_bad_step(self):
        with pytest.raises(NotationError):
            PitchClass("H")

    def test_bad_alter(self):
        with pytest.raises(NotationError):
            PitchClass("C", 3)


class TestPitch:
    @pytest.mark.parametrize(
        "name,midi",
        [("C4", 60), ("A4", 69), ("C-1", 0), ("G9", 127), ("Bb3", 58),
         ("F#4", 66), ("Cb4", 59), ("B#3", 60), ("G##2", 45)],
    )
    def test_parse_and_midi(self, name, midi):
        assert Pitch.parse(name).midi_key == midi

    def test_parse_errors(self):
        for bad in ("", "X4", "C", "C#x"):
            with pytest.raises(NotationError):
                Pitch.parse(bad)

    def test_midi_out_of_range(self):
        with pytest.raises(NotationError):
            Pitch("C", 0, 10).midi_key
        with pytest.raises(NotationError):
            Pitch.from_midi(128)

    def test_from_midi_spellings(self):
        assert Pitch.from_midi(61).name() == "C#4"
        assert Pitch.from_midi(61, prefer_flats=True).name() == "Db4"
        assert Pitch.from_midi(60).name() == "C4"

    def test_from_midi_round_trip(self):
        for key in range(0, 128):
            for prefer_flats in (False, True):
                assert Pitch.from_midi(key, prefer_flats).midi_key == key, (
                    key, prefer_flats
                )

    def test_clef_degree_round_trip(self):
        for clef in (TREBLE, BASS, ALTO, TENOR):
            for degree in range(-10, 21):
                for alter in range(-2, 3):
                    pitch = clef.degree_to_pitch(degree, alter)
                    case = (clef, degree, alter)
                    assert clef.pitch_to_degree(pitch) == degree, case
                    assert pitch.alter == alter, case

    def test_frequency(self):
        assert abs(Pitch.parse("A4").frequency() - 440.0) < 1e-9
        assert abs(Pitch.parse("A5").frequency() - 880.0) < 1e-9
        assert abs(Pitch.parse("A4").frequency(a4=415.0) - 415.0) < 1e-9

    def test_transposed(self):
        assert Pitch.parse("C4").transposed(7).name() == "G4"
        assert Pitch.parse("B3").transposed(1).name() == "C4"

    def test_transposition_additive(self):
        for key in range(12, 116):
            pitch = Pitch.from_midi(key)
            for interval in range(-12, 13):
                assert pitch.transposed(interval).midi_key == key + interval, (
                    key, interval
                )

    def test_diatonic_index_round_trip(self):
        for name in ("C0", "D3", "B7", "F4"):
            pitch = Pitch.parse(name)
            assert Pitch.from_diatonic_index(pitch.diatonic_index()) == pitch

    def test_enharmonics_not_equal_as_spellings(self):
        assert Pitch.parse("C#4") != Pitch.parse("Db4")
        assert Pitch.parse("C#4").midi_key == Pitch.parse("Db4").midi_key

    def test_ordering_by_sounding_pitch(self):
        assert Pitch.parse("C4") < Pitch.parse("D4")
