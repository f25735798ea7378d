"""DARMS parsing, canonization, encode/decode round trips."""

from fractions import Fraction

import pytest

from repro.darms.canonical import canonize, normalize, to_canonical
from repro.darms.decode import darms_to_score
from repro.darms.encode import score_to_darms
from repro.darms.parser import parse_darms
from repro.darms.tokens import (
    Annotation,
    Barline,
    BeamGroup,
    ClefCode,
    InstrumentDef,
    KeyCode,
    MeterCode,
    NoteCode,
    RestCode,
    degree_to_position,
    duration_code,
    duration_value,
    position_to_degree,
)
from repro.errors import DarmsError


class TestTokens:
    def test_positions(self):
        assert position_to_degree(21) == 0  # bottom line
        assert position_to_degree(22) == 1  # bottom space
        assert degree_to_position(8) == 29  # top line

    def test_duration_codes(self):
        assert duration_value("W") == 1
        assert duration_value("Q") == Fraction(1, 4)
        assert duration_value("Q", dots=1) == Fraction(3, 8)
        assert duration_value("E", dots=2) == Fraction(7, 32)
        assert duration_code(Fraction(3, 8)) == ("Q", 1)
        with pytest.raises(DarmsError):
            duration_value("Z")
        with pytest.raises(DarmsError):
            duration_code(Fraction(1, 5))

    def test_duration_code_round_trip(self):
        for letter in "WHQES":
            for dots in range(4):
                value = duration_value(letter, dots)
                assert duration_code(value) == (letter, dots), value


class TestParser:
    def test_header_codes(self):
        elements = parse_darms("I4 !G !K2# !M4:4")
        assert elements == [
            InstrumentDef(4), ClefCode("G"), KeyCode(2, "#"), MeterCode(4, 4),
        ]

    def test_apostrophe_clef_spelling(self):
        elements = parse_darms("'G 'K2#")
        assert elements == [ClefCode("G"), KeyCode(2, "#")]

    def test_note_full_form(self):
        (note,) = parse_darms("21#Q.D")
        assert note.position == 21
        assert note.accidental == 1
        assert note.duration == Fraction(3, 8)
        assert note.stem == "D"

    def test_short_position(self):
        (note,) = parse_darms("7E")
        assert note.position == 27

    def test_flat_and_natural(self):
        notes = parse_darms("21-Q 22*Q")
        assert notes[0].accidental == -1
        assert notes[1].accidental == 0

    def test_rest_with_count(self):
        (rest,) = parse_darms("R2W")
        assert rest.count == 2
        assert rest.duration == 1

    def test_beam_nesting(self):
        (group,) = parse_darms("(1E (2S 3S) 4E)")
        assert isinstance(group, BeamGroup)
        assert isinstance(group.members[1], BeamGroup)

    def test_unbalanced_beams(self):
        with pytest.raises(DarmsError):
            parse_darms("(1E 2E")
        with pytest.raises(DarmsError):
            parse_darms("1E 2E)")

    def test_syllable_attaches_to_last_note(self):
        elements = parse_darms("1Q,@glo-$ 2Q")
        assert elements[0].syllable == "glo-"
        assert elements[1].syllable is None

    def test_syllable_into_beam(self):
        (group, note) = parse_darms("(1E 2E),@ri$ 3Q")
        assert group.members[1].syllable == "ri"

    def test_syllable_without_note(self):
        with pytest.raises(DarmsError):
            parse_darms(",@oops$")

    def test_annotation_with_position(self):
        (annotation,) = parse_darms("00@^TENOR$")
        assert annotation == Annotation("TENOR", 0)

    def test_capitalization_marker(self):
        (annotation,) = parse_darms("00@^tenor$")
        assert annotation.text == "Tenor"

    def test_barlines(self):
        elements = parse_darms("1Q / 2Q //")
        assert elements[1] == Barline(False)
        assert elements[3] == Barline(True)

    def test_unterminated_literal(self):
        with pytest.raises(DarmsError):
            parse_darms("1Q,@oops")


class TestCanonizer:
    def test_durations_made_explicit(self):
        canonical = canonize("1Q 2 3 4")
        assert canonical == "21Q 22Q 23Q 24Q"

    def test_duration_carries_into_beams(self):
        canonical = canonize("(1E 2) (3 4)")
        assert canonical == "(21E 22E) (23E 24E)"

    def test_rest_counts_expanded(self):
        canonical = canonize("R2W")
        assert canonical == "RW RW"

    def test_rest_carries_duration(self):
        canonical = canonize("1Q R")
        assert canonical == "21Q RQ"

    def test_missing_first_duration_rejected(self):
        with pytest.raises(DarmsError):
            canonize("1 2 3")

    def test_idempotent(self):
        source = "I4 !G !K2# !M4:4 R2W / (7E,@^GLO-$ 8) 9Q 9 9 //"
        first = canonize(source)
        assert canonize(first) == first

    def test_normalize_preserves_structure(self):
        elements = normalize(parse_darms("(1E (2S 3))"))
        group = elements[0]
        assert group.members[1].members[1].duration == Fraction(1, 16)


class TestDecode:
    def test_header_configuration(self):
        builder, score = darms_to_score("I2 !F !K1- !M3:4 1Q 2 3 //")
        view = builder.view
        voice = builder.voices()[0]
        assert view.clef_of_voice(voice).name == "bass"
        assert view.key_of(view.movements()[0]).fifths == -1
        measure = view.measures(view.movements()[0])[0]
        assert measure["meter"] == "3/4"

    def test_notes_resolve_with_key(self):
        builder, score = darms_to_score("!G !K1# 1Q 2Q 3Q 4Q //")
        voice = builder.voices()[0]
        pitches = builder.view.resolve_pitches(voice)
        names = [
            pitches[n.surrogate].name()
            for item in builder.view.voice_stream(voice)
            if item.type.name == "CHORD"
            for n in builder.view.notes_of(item)
        ]
        assert names == ["E4", "F#4", "G4", "A4"]  # key sharps the F

    def test_beams_become_groups(self):
        builder, _ = darms_to_score("!G (1E 2E) (3S (4S 5S) 6S) 2Q 1Q //")
        voice = builder.voices()[0]
        groups = builder.view.groups_of_voice(voice)
        assert len(groups) == 2
        from repro.cmn.groups import depth

        assert depth(builder.cmn, groups[1]) == 2

    def test_syllables_stored(self):
        builder, _ = darms_to_score("!G 1Q,@glo-$ 2Q,@ri$ 1H //")
        setting = builder.cmn.SETTING
        texts = sorted(
            record["syllable"]["text"] for record in setting.instances()
        )
        assert texts == ["glo", "ri"]
        hyphenated = [
            record["syllable"]["hyphenated"] for record in setting.instances()
        ]
        assert sum(hyphenated) == 1

    def test_barline_pads_underfull_measure(self):
        builder, _ = darms_to_score("!G !M4:4 1Q / 2Q //")
        voice = builder.voices()[0]
        stream = builder.view.voice_stream(voice)
        kinds = [item.type.name for item in stream]
        assert kinds == ["CHORD", "REST", "CHORD", "REST"]


class TestEncodeRoundTrip:
    def test_fixed_point(self):
        source = "I1 !G !K2- !M4:4 23Q 27Q 25Q. 24E / (23E 25E) (24E 23E) (22#E 24E) 21Q //"
        builder, score = darms_to_score(source)
        encoded = score_to_darms(builder.cmn, score)
        builder2, score2 = darms_to_score(encoded)
        assert score_to_darms(builder2.cmn, score2) == encoded

    def test_encode_preserves_content(self):
        source = "I1 !G !K0# !M4:4 21Q,@la$ 22Q 23H //"
        builder, score = darms_to_score(source)
        encoded = score_to_darms(builder.cmn, score)
        assert "21Q,@la$" in encoded
        assert "23H" in encoded
        assert encoded.endswith("//")

    def test_monophonic_restriction(self):
        from repro.cmn.builder import ScoreBuilder

        builder = ScoreBuilder("chords", meter="4/4")
        voice = builder.add_voice("melody")
        builder.note(voice, ["C4", "E4"], Fraction(1, 4))
        builder.pad_with_rests()
        builder.finish(derive=False)
        with pytest.raises(DarmsError):
            score_to_darms(builder.cmn, builder.score)

    def test_gloria_fixture_round_trip(self):
        from repro.fixtures.gloria import GLORIA_USER_DARMS

        builder, score = darms_to_score(GLORIA_USER_DARMS)
        assert builder.view.counts()["notes"] > 10
        encoded = score_to_darms(builder.cmn, score)
        builder2, score2 = darms_to_score(encoded)
        assert builder2.view.counts() == builder.view.counts()
