"""A cursor-based builder that writes scores into the CMN schema.

The builder creates the full entity web the paper's figure 13
describes: SCORE / MOVEMENT / MEASURE / SYNC / CHORD / NOTE plus the
timbral chain (ORCHESTRA / SECTION / INSTRUMENT / PART / VOICE / STAFF)
and voice streams.  Syncs are shared across voices: two chords sounding
at the same measure offset land on the same SYNC instance -- exactly
figure 14's "dividing a measure into syncs".
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from repro.errors import NotationError
from repro.cmn.schema import CmnSchema
from repro.cmn.score import ScoreView
from repro.pitch.accidental import Accidental, AccidentalState
from repro.pitch.clef import TREBLE, Clef
from repro.pitch.key import KeySignature
from repro.pitch.pitch import Pitch
from repro.temporal.meter import MeterSignature


def _as_duration(value):
    """Notated durations are whole-note fractions (1/4 = quarter)."""
    if isinstance(value, Fraction):
        duration = value
    elif isinstance(value, int) and not isinstance(value, bool):
        duration = Fraction(value)
    elif isinstance(value, str):
        try:
            duration = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise NotationError("bad duration %r" % (value,))
    elif isinstance(value, tuple) and len(value) == 2:
        duration = Fraction(value[0], value[1])
    else:
        raise NotationError("bad duration %r" % (value,))
    if duration <= 0:
        raise NotationError("duration must be positive: %s" % duration)
    return duration


class _VoiceState:
    """Per-voice build cursor."""

    __slots__ = ("voice", "clef", "cursor_beats", "accidental_state",
                 "current_measure_number", "chords")

    def __init__(self, voice, clef, key):
        self.voice = voice
        self.clef = clef
        self.cursor_beats = Fraction(0)  # from movement start
        self.accidental_state = AccidentalState(key)
        self.current_measure_number = 1
        self.chords = []


class ScoreBuilder:
    """Build one score (optionally into an existing CmnSchema)."""

    def __init__(self, title, catalogue_id="", key=None, meter="4/4",
                 bpm=96, cmn=None, movement_name="I"):
        self.cmn = cmn if cmn is not None else CmnSchema()
        self.key = key if key is not None else KeySignature(0)
        self.meter = (
            meter if isinstance(meter, MeterSignature) else MeterSignature.parse(meter)
        )
        self.score = self.cmn.SCORE.create(title=title, catalogue_id=catalogue_id)
        self.movement = self.cmn.MOVEMENT.create(
            number=1,
            name=movement_name,
            key_fifths=self.key.fifths,
            initial_bpm=bpm,
        )
        self.cmn.movement_in_score.append(self.score, self.movement)
        self.orchestra = self.cmn.ORCHESTRA.create(name="%s orchestra" % title)
        self.cmn.PERFORMS.relate(orchestra=self.orchestra, score=self.score)
        self.section = self.cmn.SECTION.create(name="default")
        self.cmn.section_in_orchestra.append(self.orchestra, self.section)
        self._instruments = {}
        self._voices = {}
        self._staff_of = {}  # voice surrogate -> STAFF instance
        self._measures = {}  # number -> (measure instance, MeterSignature)
        self._measure_meters = {}  # explicit per-measure meters
        # Start beat of measure i + 1, then the end of the last one
        # reckoned; restarted whenever the meters change.
        self._measure_starts = [Fraction(0)]
        self._syncs = {}  # (measure number, offset) -> sync instance
        self.view = ScoreView(self.cmn, self.score)

    # -- timbral chain ------------------------------------------------------------

    def add_instrument(self, name, midi_program=0):
        if name in self._instruments:
            return self._instruments[name]
        instrument = self.cmn.INSTRUMENT.create(name=name, midi_program=midi_program)
        self.cmn.instrument_in_section.append(self.section, instrument)
        self._instruments[name] = instrument
        return instrument

    def add_voice(self, name, clef=TREBLE, instrument="Piano", midi_program=0):
        """Create a voice (with its part and staff) and return its handle."""
        if name in self._voices:
            raise NotationError("voice %r already exists" % name)
        if isinstance(clef, str):
            from repro.pitch.clef import clef_by_name

            clef = clef_by_name(clef)
        if not isinstance(clef, Clef):
            raise NotationError("bad clef %r" % (clef,))
        instrument_instance = self.add_instrument(instrument, midi_program)
        part = self.cmn.PART.create(name=name)
        self.cmn.part_in_instrument.append(instrument_instance, part)
        staff_number = len(self.cmn.staff_in_instrument.children(instrument_instance)) + 1
        staff = self.cmn.STAFF.create(number=staff_number, clef=clef.name)
        self.cmn.staff_in_instrument.append(instrument_instance, staff)
        voice = self.cmn.VOICE.create(number=len(self._voices) + 1, name=name)
        self.cmn.voice_in_part.append(part, voice)
        state = _VoiceState(voice, clef, self.key)
        self._voices[name] = state
        self._staff_of[voice.surrogate] = staff
        return voice

    def _state(self, voice):
        for state in self._voices.values():
            if state.voice == voice:
                return state
        raise NotationError("unknown voice %r" % (voice,))

    # -- movements --------------------------------------------------------------

    def new_movement(self, name, meter=None, key=None, bpm=None):
        """Close the current movement and start the next one.

        "A movement is a somewhat arbitrary (though widely used) unit of
        performance" (section 7.2): voices restart at the new movement's
        first measure; meter/key default to the previous movement's.
        """
        self.pad_with_rests()
        if meter is not None:
            self.meter = (
                meter
                if isinstance(meter, MeterSignature)
                else MeterSignature.parse(meter)
            )
        if key is not None:
            self.key = key
        number = len(self.cmn.movement_in_score.children(self.score)) + 1
        movement = self.cmn.MOVEMENT.create(
            number=number,
            name=name,
            key_fifths=self.key.fifths,
            initial_bpm=bpm if bpm is not None else self.movement["initial_bpm"],
        )
        self.cmn.movement_in_score.append(self.score, movement)
        self.movement = movement
        self._measures = {}
        self._measure_meters = {}
        self._measure_starts = [Fraction(0)]
        self._syncs = {}
        for state in self._voices.values():
            state.cursor_beats = Fraction(0)
            state.current_measure_number = 1
            state.accidental_state = AccidentalState(self.key)
        return movement

    # -- measures and syncs --------------------------------------------------------------

    def set_meter(self, measure_number, meter):
        """Override the meter of a (future) measure."""
        meter = (
            meter if isinstance(meter, MeterSignature) else MeterSignature.parse(meter)
        )
        if measure_number in self._measures:
            raise NotationError(
                "measure %d already created; set meters up front" % measure_number
            )
        self._measure_meters[measure_number] = meter
        self._measure_starts = [Fraction(0)]
        return self

    def _meter_for(self, measure_number):
        return self._measure_meters.get(measure_number, self.meter)

    def _measure(self, number):
        if number in self._measures:
            return self._measures[number][0]
        # Create intervening measures so the ordering stays contiguous.
        last = max(self._measures) if self._measures else 0
        for missing in range(last + 1, number + 1):
            meter = self._meter_for(missing)
            measure = self.cmn.MEASURE.create(number=missing, meter=str(meter))
            self.cmn.measure_in_movement.append(self.movement, measure)
            self._measures[missing] = (measure, meter)
        return self._measures[number][0]

    def _measure_bounds(self, beats_from_start):
        """(measure number, offset in measure, its meter) for an
        absolute beat."""
        starts = self._measure_starts
        while starts[-1] <= beats_from_start:
            span = self._meter_for(len(starts)).measure_duration().beats
            starts.append(starts[-1] + span)
        number = bisect_right(starts, beats_from_start)
        return (
            number, beats_from_start - starts[number - 1],
            self._meter_for(number),
        )

    def _sync(self, measure_number, offset_beats):
        key = (measure_number, offset_beats)
        if key in self._syncs:
            return self._syncs[key]
        measure = self._measure(measure_number)
        sync = self.cmn.SYNC.create(offset_beats=offset_beats)
        # Keep syncs ordered by offset within the measure.  Siblings are
        # already offset-sorted, so the slot is a bisect, not a scan.
        ordering = self.cmn.sync_in_measure
        offsets = [s["offset_beats"] for s in ordering.children(measure)]
        position = 1 + bisect_left(offsets, offset_beats)
        ordering.insert(measure, sync, position)
        self._syncs[key] = sync
        return sync

    # -- notes and rests -----------------------------------------------------------------

    def note(self, voice, pitches, duration, tied=False, articulation=None,
             dynamic=None, lyric=None, stem=None):
        """Append a chord of *pitches* (a name, Pitch, or list) at the
        voice cursor.  Returns the CHORD instance."""
        state = self._state(voice)
        duration = _as_duration(duration)
        if isinstance(pitches, (str, Pitch)):
            pitches = [pitches]
        pitches = [Pitch.parse(p) if isinstance(p, str) else p for p in pitches]
        if not pitches:
            raise NotationError("a chord needs at least one pitch")

        measure_number, offset, meter = self._measure_bounds(state.cursor_beats)
        beats = duration * 4
        if offset + beats > meter.measure_duration().beats:
            raise NotationError(
                "duration %s crosses the barline of measure %d (use a tie)"
                % (duration, measure_number)
            )
        if measure_number != state.current_measure_number:
            state.accidental_state.barline()
            state.current_measure_number = measure_number
        sync = self._sync(measure_number, offset)
        chord = self.cmn.CHORD.create(
            duration=duration,
            stem_direction=stem,
            articulation=articulation,
            dynamic=dynamic,
        )
        self.cmn.chord_in_sync.append(sync, chord)
        self.cmn.chord_rest_in_voice.append(state.voice, chord)
        staff = self._staff_of[state.voice.surrogate]
        # Notes ordered high to low within the chord, as in section 5.5.
        notes = []
        for pitch in sorted(pitches, key=lambda p: -p.midi_key):
            degree = state.clef.pitch_to_degree(pitch)
            accidental = self._accidental_needed(state, degree, pitch)
            notes.append(self.cmn.NOTE.create(
                degree=degree,
                accidental=None if accidental is None else accidental.symbol,
                tied_to_next=bool(tied),
            ))
        self.cmn.note_in_chord.extend(chord, notes)
        self.cmn.note_on_staff.extend(staff, notes)
        if lyric is not None:
            self._attach_lyric(state, chord, lyric)
        state.cursor_beats += beats
        state.chords.append(chord)
        return chord

    def _accidental_needed(self, state, degree, pitch):
        """The explicit accidental (if any) that makes *pitch* sound at
        *degree* given the accidental state -- the inverse of the
        section 4.3 derivation."""
        base = state.clef.degree_to_pitch(degree)
        if base.step != pitch.step or base.octave != pitch.octave:
            raise NotationError(
                "pitch %s does not sit on degree %d under the %s clef"
                % (pitch.name(), degree, state.clef.name)
            )
        implied = state.accidental_state.apply(degree, base.step, None)
        if implied == pitch.alter:
            return None
        accidental = Accidental(pitch.alter)
        state.accidental_state.apply(degree, base.step, accidental)
        return accidental

    def rest(self, voice, duration):
        """Append a rest at the voice cursor.  Returns the REST instance."""
        state = self._state(voice)
        duration = _as_duration(duration)
        measure_number, offset, meter = self._measure_bounds(state.cursor_beats)
        beats = duration * 4
        if offset + beats > meter.measure_duration().beats:
            raise NotationError(
                "rest %s crosses the barline of measure %d" % (duration, measure_number)
            )
        self._measure(measure_number)
        rest = self.cmn.REST.create(duration=duration)
        self.cmn.chord_rest_in_voice.append(state.voice, rest)
        state.cursor_beats += beats
        return rest

    def _attach_lyric(self, state, chord, lyric):
        part = self.cmn.voice_in_part.parent_of(state.voice)
        texts = self.cmn.text_in_part.children(part)
        if texts:
            text = texts[0]
        else:
            text = self.cmn.TEXT.create(language="la")
            self.cmn.text_in_part.append(part, text)
        hyphenated = lyric.endswith("-")
        syllable = self.cmn.SYLLABLE.create(
            text=lyric.rstrip("-"), hyphenated=hyphenated
        )
        self.cmn.syllable_in_text.append(text, syllable)
        self.cmn.SETTING.relate(syllable=syllable, chord=chord)

    # -- layout (graphical aspect skeleton) -------------------------------------------------

    def layout(self, systems_per_page=1):
        """Create a single-page layout and attach every staff to it."""
        page = self.cmn.PAGE.create(number=1)
        self.cmn.page_in_score.append(self.score, page)
        system = self.cmn.SYSTEM.create(number=1)
        self.cmn.system_in_page.append(page, system)
        for state in self._voices.values():
            staff = self._staff_of[state.voice.surrogate]
            if self.cmn.staff_in_system.parent_of(staff) is None:
                self.cmn.staff_in_system.append(system, staff)
        return page

    # -- finishing ------------------------------------------------------------------------

    def pad_with_rests(self):
        """Fill every voice to the end of the last measure with rests."""
        if not self._measures:
            return
        total = Fraction(0)
        for number in range(1, max(self._measures) + 1):
            total += self._meter_for(number).measure_duration().beats
        for state in self._voices.values():
            while state.cursor_beats < total:
                number, offset, meter = self._measure_bounds(state.cursor_beats)
                remaining = meter.measure_duration().beats - offset
                self.rest(state.voice, Fraction(remaining, 4))

    def finish(self, derive=True):
        """Complete the build; optionally derive EVENT entities.

        Returns the SCORE instance; use ``builder.view`` for traversal.
        """
        if derive:
            from repro.cmn.events import derive_events

            derive_events(self.cmn, self.score)
        self.cmn.check_invariants()
        return self.score

    def voices(self):
        return [state.voice for state in self._voices.values()]

    def voice(self, name):
        return self._voices[name].voice
