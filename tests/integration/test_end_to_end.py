"""Cross-module integration: the full pipelines the MDM exists for."""

from fractions import Fraction

import pytest

from repro.cmn.builder import ScoreBuilder
from repro.cmn.validate import errors_only, validate_score
from repro.darms.decode import darms_to_score
from repro.darms.encode import score_to_darms
from repro.midi.extract import extract_midi
from repro.midi.smf import read_smf, write_smf
from repro.pianoroll.render import render_ascii
from repro.pianoroll.roll import PianoRoll
from repro.quel.executor import QuelSession
from repro.sound.compaction import compaction_report
from repro.sound.synthesis import synthesize
from repro.temporal.conductor import Conductor, RubatoWarp
from repro.temporal.tempo import TempoMap


class TestScoreToSoundPipeline:
    """Score entities -> events -> MIDI -> samples -> compaction."""

    def test_full_chain(self, bwv578):
        conductor = Conductor(TempoMap(84).ritardando(28, 32, 60))
        events = extract_midi(bwv578.cmn, bwv578.score, conductor=conductor)
        assert len(events.notes) > 30
        buffer = synthesize(events, sample_rate=8000)
        assert buffer.duration_seconds > 20
        report = compaction_report(buffer)
        assert report["redundancy_ratio"] > 1.0
        # The final ritardando stretches the last measure beyond its
        # steady-tempo length.
        steady = Conductor(TempoMap(84))
        assert (
            conductor.performance_seconds(32) > steady.performance_seconds(32)
        )
        # Rubato on top moves the notes, never adds or drops one.
        rubato = Conductor(
            TempoMap(84).ritardando(28, 32, 60), RubatoWarp(0.03, 4.0)
        )
        warped = extract_midi(bwv578.cmn, bwv578.score, rubato, store=False)
        assert len(warped.notes) == len(events.notes)

    def test_smf_of_full_score(self, bwv578, tmp_path):
        events = extract_midi(bwv578.cmn, bwv578.score, store=False)
        path = str(tmp_path / "bwv578.mid")
        write_smf(events, path)
        back = read_smf(path)
        assert len(back.notes) == len(events.notes)


class TestDarmsPipeline:
    """DARMS text -> score entities -> analysis -> re-encoding."""

    def test_decode_query_encode(self):
        source = "I1 !G !K1# !M4:4 1Q 2Q 3Q 4Q / 5Q 4Q 3Q 2Q //"
        builder, score = darms_to_score(source)
        session = QuelSession(builder.cmn.schema)
        rows = session.execute(
            "range of n is NOTE\nretrieve (total = count(n.degree))"
        )
        assert rows == [{"total": 8}]
        encoded = score_to_darms(builder.cmn, score)
        builder2, _ = darms_to_score(encoded)
        assert builder2.view.counts() == builder.view.counts()

    def test_darms_to_piano_roll(self):
        builder, score = darms_to_score("!G 1Q 3Q 5Q 3Q //")
        roll = PianoRoll.from_score(builder.cmn, score)
        assert len(roll) == 4
        text = render_ascii(roll)
        assert "#" in text


class TestQuelOverCmn:
    """The paper's query patterns against a real score."""

    def test_ordering_queries_on_score(self, bwv578):
        session = QuelSession(bwv578.cmn.schema)
        # Notes under the first chord of the piece.
        rows = session.execute(
            "range of n is NOTE\nrange of c is CHORD\n"
            "retrieve (n.degree) where n under c in note_in_chord"
        )
        assert len(rows) > 40
        # Measures before measure 3 in their movement.
        rows = session.execute(
            "range of m1, m2 is MEASURE\n"
            "retrieve (m1.number) where m1 before m2 in measure_in_movement"
            " and m2.number = 3 sort by m1.number"
        )
        assert [r["m1.number"] for r in rows] == [1, 2]

    def test_census_matches_view(self, bwv578):
        session = QuelSession(bwv578.cmn.schema)
        (row,) = session.execute(
            "range of n is NOTE\nretrieve (total = count(n.degree))"
        )
        assert row["total"] == bwv578.view.counts()["notes"]

    def test_quel_mutation_respects_orderings(self, bwv578):
        session = QuelSession(bwv578.cmn.schema)
        before = bwv578.cmn.note_in_chord.table_size()
        session.execute("range of n is NOTE\ndelete n where n.degree = 2")
        bwv578.cmn.schema.check_invariants()
        assert bwv578.cmn.note_in_chord.table_size() < before


class TestValidationOnRealScores:
    def test_gloria_valid(self):
        from repro.fixtures.gloria import build_gloria_score

        builder, score = build_gloria_score()
        assert errors_only(validate_score(builder.cmn, score)) == []

    def test_scale_scores_valid(self):
        from repro.fixtures.examples import make_scale_score

        builder = make_scale_score(measures=3, voices=3)
        assert errors_only(validate_score(builder.cmn, builder.score)) == []


class TestMultipleScoresOneSchema:
    def test_shared_schema_isolation(self):
        from repro.cmn.schema import CmnSchema

        cmn = CmnSchema()
        first = ScoreBuilder("first", cmn=cmn)
        v1 = first.add_voice("a")
        first.note(v1, "C4", Fraction(1, 1))
        first.finish()
        second = ScoreBuilder("second", cmn=cmn)
        v2 = second.add_voice("a")
        second.note(v2, "G4", Fraction(1, 1))
        second.note(v2, "G4", Fraction(1, 1))
        second.finish()
        assert first.view.counts()["notes"] == 1
        assert second.view.counts()["notes"] == 2
        assert cmn.SCORE.count() == 2
