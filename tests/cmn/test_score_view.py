"""ScoreView traversal and derived temporal attributes."""

from fractions import Fraction

import pytest

from repro.cmn.builder import ScoreBuilder
from repro.pitch.key import KeySignature


class TestTraversal:
    def test_counts(self, bwv578):
        counts = bwv578.view.counts()
        assert counts["movements"] == 1
        assert counts["measures"] == 8
        assert counts["notes"] > 40

    def test_voices_listed(self, bwv578):
        names = [v["name"] for v in bwv578.view.voices()]
        assert names == ["soprano", "alto"]

    def test_instrument_and_staff_of_voice(self, bwv578):
        view = bwv578.view
        voice = bwv578.voice("soprano")
        assert view.instrument_of_voice(voice)["name"] == "Organ"
        staff = view.staff_of_voice(voice)
        assert staff["clef"] == "treble"

    def test_voice_stream_inhomogeneous(self, bwv578):
        view = bwv578.view
        alto = bwv578.voice("alto")
        kinds = [item.type.name for item in view.voice_stream(alto)]
        assert kinds[0] == "REST"  # two measures of rest first
        assert "CHORD" in kinds


class TestTemporalAttributes:
    def test_measure_starts(self, bwv578):
        view = bwv578.view
        movement = view.movements()[0]
        starts = view.measure_starts(movement)
        assert sorted(starts.values()) == [0, 4, 8, 12, 16, 20, 24, 28]

    def test_score_duration_sums_movements(self, bwv578):
        view = bwv578.view
        assert view.score_duration_beats() == 32

    def test_mixed_meters(self):
        builder = ScoreBuilder("mixed", meter="4/4")
        builder.set_meter(2, "3/4")
        voice = builder.add_voice("a")
        for _ in range(4):
            builder.note(voice, "C4", Fraction(1, 4))
        for _ in range(3):
            builder.note(voice, "C4", Fraction(1, 4))
        builder.finish(derive=False)
        view = builder.view
        movement = view.movements()[0]
        assert view.movement_duration_beats(movement) == 7
        starts = view.measure_starts(movement)
        assert sorted(starts.values()) == [0, 4]

    def test_chord_start_inherited_from_sync(self, bwv578):
        view = bwv578.view
        soprano = bwv578.voice("soprano")
        stream = [
            item for item in view.voice_stream(soprano)
            if item.type.name == "CHORD"
        ]
        # Second chord of the subject starts on beat 1.
        assert view.chord_start_beats(stream[1]) == 1
        assert view.chord_duration_beats(stream[0]) == 1
        # Read from the shared syncs, every start is the one walking
        # the stream and summing durations gives (figure 14).
        walked = 0
        for item in view.voice_stream(soprano):
            if item.type.name == "CHORD":
                assert view.chord_start_beats(item) == walked
            walked += item["duration"] * 4

    def test_multi_movement_offsets(self):
        builder = ScoreBuilder("two movements", meter="4/4")
        voice = builder.add_voice("a")
        builder.note(voice, "C4", Fraction(1, 1))
        # Add a second movement manually.
        cmn = builder.cmn
        second = cmn.MOVEMENT.create(number=2, name="II", key_fifths=0,
                                     initial_bpm=120)
        cmn.movement_in_score.append(builder.score, second)
        view = builder.view
        starts = view.movement_starts()
        assert starts[builder.movement.surrogate] == 0
        assert starts[second.surrogate] == 4


class TestStartsFollowTheTables:
    """The start maps are memoised per ``Table.version``; one live view
    must answer from the tables after every kind of change to them."""

    @pytest.fixture
    def three_measures(self):
        builder = ScoreBuilder("starts", meter="4/4")
        voice = builder.add_voice("a")
        chords = [builder.note(voice, "C4", Fraction(1, 1)) for _ in range(3)]
        builder.finish(derive=False)
        view = builder.view
        first, second, _ = view.measures(builder.movement)
        assert view.chord_start_beats(chords[2]) == 8  # fills the memo
        return builder, view, chords[2], first, second

    def _new_measure(self, builder, meter, position):
        measure = builder.cmn.MEASURE.create(number=0, meter=meter)
        builder.cmn.measure_in_movement.insert(
            builder.movement, measure, position
        )
        return measure

    def test_an_earlier_meter_change_moves_the_start(self, three_measures):
        _, view, chord, first, second = three_measures
        first.set(meter="3/4")
        assert view.chord_start_beats(chord) == 7
        second.set(meter="2/4")
        assert view.chord_start_beats(chord) == 5
        assert view.movement_starts() == {view.movements()[0].surrogate: 0}

    def test_a_measure_inserted_before_moves_the_start(self, three_measures):
        builder, view, chord, _, _ = three_measures
        self._new_measure(builder, "2/4", 1)
        assert view.chord_start_beats(chord) == 10
        assert len(view.measure_starts(builder.movement)) == 4

    def test_an_earlier_movement_moves_the_start(self, three_measures):
        builder, view, chord, _, _ = three_measures
        cmn = builder.cmn
        prelude = cmn.MOVEMENT.create(
            number=0, name="0", key_fifths=0, initial_bpm=96
        )
        cmn.movement_in_score.insert(builder.score, prelude, 1)
        assert view.chord_start_beats(chord) == 8  # an empty movement
        measure = cmn.MEASURE.create(number=1, meter="6/8")
        cmn.measure_in_movement.append(prelude, measure)
        assert view.chord_start_beats(chord) == 11

    @pytest.mark.parametrize("edit", ["meter", "insert"])
    def test_an_aborted_change_moves_it_back(self, three_measures, edit):
        """Undo restores the rows behind the view's back."""
        builder, view, chord, first, _ = three_measures
        txn = builder.cmn.schema.database.begin()
        if edit == "meter":
            first.set(meter="3/4")
            assert view.chord_start_beats(chord) == 7
        else:
            self._new_measure(builder, "2/4", 1)
            assert view.chord_start_beats(chord) == 10
        txn.abort()
        assert view.chord_start_beats(chord) == 8

    def test_a_pinned_read_neither_consults_nor_feeds_the_memo(
            self, three_measures):
        import threading

        builder, view, chord, first, _ = three_measures
        database = builder.cmn.schema.database

        live = []

        def retime():
            first.set(meter="3/4")
            live.append(view.chord_start_beats(chord))  # refills the memo

        with database.snapshot():
            writer = threading.Thread(target=retime)
            writer.start()
            writer.join(10.0)
            assert live == [7]
            assert view.chord_start_beats(chord) == 8  # as pinned
        assert view.chord_start_beats(chord) == 7

    def test_a_caller_cannot_edit_the_memo(self, three_measures):
        builder, view, chord, _, _ = three_measures
        view.measure_starts(builder.movement).clear()
        view.movement_starts().clear()
        assert view.chord_start_beats(chord) == 8


class TestPitchResolution:
    def test_key_signature_applied(self):
        builder = ScoreBuilder("keys", key=KeySignature.sharps(2), meter="4/4")
        voice = builder.add_voice("a")
        builder.note(voice, "F#4", Fraction(1, 4))
        builder.note(voice, "C#5", Fraction(1, 4))
        builder.note(voice, "G4", Fraction(1, 2))
        builder.finish(derive=False)
        pitches = builder.view.resolve_pitches(voice)
        names = sorted(p.name() for p in pitches.values())
        assert names == ["C#5", "F#4", "G4"]

    def test_key_of_movement(self, bwv578):
        view = bwv578.view
        key = view.key_of(view.movements()[0])
        assert key.fifths == -2
        assert key.minor_key() == "g"

    def test_default_clef_without_staff(self):
        builder = ScoreBuilder("clefless", meter="4/4")
        voice = builder.add_voice("a", clef="bass")
        assert builder.view.clef_of_voice(voice).name == "bass"
