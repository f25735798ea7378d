"""Differential round-trip properties over randomized CMN fragments.

Fragments are built through :class:`ScoreBuilder` from seeded
``random.Random`` choices (measure rhythm patterns that exactly fill a
4/4 bar, natural pitches inside the treble staff, occasional rests and
two-note chords).  Two fixed points are checked:

* DARMS: ``encode -> decode -> encode`` reproduces the canonical text
  byte for byte (the encoder's output is its own fixed point);
* MIDI: the entities stored by ``extract_midi(store=True)`` rebuild
  exactly the event list the extractor returned.

Beside them, the smaller fixed points: the DARMS canonizer on random
note lists, a tempo map's beat -> seconds -> beat inverse and its
monotony under random directives, and lossless sound compaction.  Each
of these generators returns its edge cases for the first seeds (the
shortest lists, the range ends) and random draws after them.

Failures report the seed (the test ID); rerun that one case to replay.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.cmn.builder import ScoreBuilder
from repro.darms.canonical import canonize
from repro.darms.decode import darms_to_score
from repro.darms.encode import score_to_darms
from repro.midi.extract import extract_midi, stored_midi_of_score
from repro.sound.compaction import compact_redundancy, expand_redundancy
from repro.sound.samples import SampleBuffer
from repro.temporal.tempo import TempoMap

pytestmark = pytest.mark.props

_Q = Fraction(1, 4)
_E = Fraction(1, 8)
_H = Fraction(1, 2)
_W = Fraction(1)

# Rhythms that exactly fill one 4/4 measure (durations are fractions of
# a whole note), so the builder never sees a barline-crossing note.
_MEASURE_PATTERNS = [
    [_Q, _Q, _Q, _Q],
    [_H, _Q, _Q],
    [_Q, _Q, _H],
    [_H, _H],
    [_W],
    [_Q, _E, _E, _Q, _Q],
    [_E, _E, _E, _E, _H],
]

# Naturals well inside the treble staff; the DARMS encoder is
# monophonic per voice, so the DARMS property uses one pitch per slot.
_PITCHES = [
    "c4", "d4", "e4", "f4", "g4", "a4", "b4", "c5", "d5", "e5", "f5", "g5",
]


def _random_fragment(rng, measures, chords=False):
    builder = ScoreBuilder("props fragment", meter="4/4", bpm=96)
    voice = builder.add_voice("melody", instrument="Flute", midi_program=73)
    for _ in range(measures):
        for duration in rng.choice(_MEASURE_PATTERNS):
            roll = rng.random()
            if roll < 0.2:
                builder.rest(voice, duration)
            elif chords and roll < 0.4:
                builder.note(voice, rng.sample(_PITCHES, 2), duration)
            else:
                builder.note(voice, rng.choice(_PITCHES), duration)
    return builder


@pytest.mark.parametrize("seed", range(12))
def test_darms_encode_decode_encode_fixed_point(seed):
    rng = random.Random(seed)
    builder = _random_fragment(rng, measures=rng.randrange(1, 4))
    score = builder.finish(derive=False)
    encoded = score_to_darms(builder.cmn, score)
    builder2, score2 = darms_to_score(encoded)
    again = score_to_darms(builder2.cmn, score2)
    assert again == encoded, (
        "seed %d: DARMS round trip is not a fixed point\nfirst:  %s\nsecond: %s"
        % (seed, encoded, again)
    )


@pytest.mark.parametrize("seed", range(12))
def test_darms_decode_preserves_event_content(seed):
    """Decoding the encoding plays back the same notes (keys + beats)."""
    rng = random.Random(seed + 500)
    builder = _random_fragment(rng, measures=rng.randrange(1, 4))
    score = builder.finish(derive=True)
    encoded = score_to_darms(builder.cmn, score)
    builder2, score2 = darms_to_score(encoded)
    builder2.finish(derive=True)
    original = extract_midi(builder.cmn, score, store=False)
    decoded = extract_midi(builder2.cmn, score2, store=False)
    want = [
        (n.key, n.start_seconds, n.end_seconds) for n in original.sorted_notes()
    ]
    got = [
        (n.key, n.start_seconds, n.end_seconds) for n in decoded.sorted_notes()
    ]
    assert got == want, "seed %d: decoded playback diverged" % seed


@pytest.mark.parametrize("seed", range(12))
def test_midi_extract_rebuild_fixed_point(seed):
    rng = random.Random(seed + 1000)
    builder = _random_fragment(rng, measures=rng.randrange(1, 4), chords=True)
    score = builder.finish(derive=True)
    extracted = extract_midi(builder.cmn, score, store=True)
    stored = stored_midi_of_score(builder.cmn, score)
    want = sorted(
        (n.key, n.velocity, n.channel, n.start_seconds, n.end_seconds)
        for n in extracted.sorted_notes()
    )
    got = sorted(
        (m["key"], m["velocity"], m["channel"], m["start_seconds"], m["end_seconds"])
        for m in stored
    )
    assert got == want, (
        "seed %d: stored MIDI does not rebuild the extracted events" % seed
    )


@pytest.mark.parametrize("seed", range(6))
def test_midi_extraction_is_deterministic(seed):
    rng = random.Random(seed + 2000)
    builder = _random_fragment(rng, measures=2, chords=True)
    score = builder.finish(derive=True)
    first = extract_midi(builder.cmn, score, store=False)
    second = extract_midi(builder.cmn, score, store=False)
    assert first.sorted_notes() == second.sorted_notes()


# (staff position 1..9, duration letter) lists of at most 12 notes.
NOTE_EDGES = [[(1, "W")], [(9, "S")], [(1, "W"), (9, "S")], [(9, "S")] * 12]


def _notes(seed, least):
    edges = [notes for notes in NOTE_EDGES if len(notes) >= least]
    if seed < len(edges):
        return edges[seed]
    rng = random.Random(seed)
    return [
        (rng.randint(1, 9), rng.choice("WHQES"))
        for _ in range(rng.randint(least, 12))
    ]


@pytest.mark.parametrize("seed", range(60))
def test_darms_canonize_is_idempotent(seed):
    notes = _notes(seed, 1)
    source = " ".join("%d%s" % note for note in notes)
    canonical = canonize(source)
    assert canonize(canonical) == canonical


@pytest.mark.parametrize("seed", range(60))
def test_darms_canonize_makes_carried_durations_explicit(seed):
    # Drop all but the first duration: the canonizer must restore them.
    notes = _notes(seed, 2)
    source = "%d%s " % notes[0] + " ".join(str(p) for p, _ in notes[1:])
    tokens = canonize(source).split()
    assert len(tokens) == len(notes)
    first_duration = notes[0][1]
    assert all(token.endswith(first_duration) for token in tokens)


# (directives, beat): up to five (kind, start 0..32, bpm 30..240,
# span 1..8) directives over a beat in [0, 40].
TEMPO_EDGES = [
    ([], 0.0),
    ([], 40.0),
    ([("mark", 0, 30, 1)], -0.0),
    ([("ramp", 32, 240, 8)], 40.0),
    ([("ramp", 0, 30, 1), ("mark", 0, 240, 1)], 0.0),
    ([("ramp", 0, 240, 8)] * 5, 40.0),
]


def _tempo_case(seed):
    if seed < len(TEMPO_EDGES):
        return TEMPO_EDGES[seed]
    rng = random.Random(seed)
    directives = [
        (rng.choice(["mark", "ramp"]), rng.randint(0, 32), rng.randint(30, 240),
         rng.randint(1, 8))
        for _ in range(rng.randint(0, 5))
    ]
    return directives, rng.uniform(0.0, 40.0)


def _tempo_map(directives):
    tempo_map = TempoMap(100)
    for kind, start, bpm, span in directives:
        if kind == "mark":
            tempo_map.set_tempo(start, bpm)
        else:
            tempo_map.linear_change(start, start + span, bpm)
    return tempo_map


@pytest.mark.parametrize("seed", range(60))
def test_tempo_beat_seconds_inverse_round_trip(seed):
    directives, beat = _tempo_case(seed)
    tempo_map = _tempo_map(directives)
    seconds = tempo_map.seconds_at(beat)
    assert abs(tempo_map.beat_at(seconds) - beat) < 1e-6


@pytest.mark.parametrize("seed", range(60))
def test_tempo_seconds_strictly_monotonic(seed):
    directives, _ = _tempo_case(seed)
    tempo_map = _tempo_map(directives)
    samples = [tempo_map.seconds_at(Fraction(b, 4)) for b in range(160)]
    assert all(a < b for a, b in zip(samples, samples[1:]))


# int16 sample lists of at most 2,000: the empty and one-sample lists,
# the extremes, the largest second-order deltas, and runs of zero ones.
SAMPLE_EDGES = [
    [], [0], [-32768], [32767], [-32768, 32767] * 1000, [7] * 2000,
    list(range(-1000, 1000)),
]


@pytest.mark.parametrize("seed", range(40))
def test_redundancy_compaction_lossless(seed):
    if seed < len(SAMPLE_EDGES):
        samples = SAMPLE_EDGES[seed]
    else:
        rng = random.Random(seed)
        samples = [rng.randint(-32768, 32767) for _ in range(rng.randint(0, 2000))]
    buffer = SampleBuffer(np.array(samples, dtype=np.int16), 8000)
    assert expand_redundancy(compact_redundancy(buffer)) == buffer
