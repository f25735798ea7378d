"""Read-side traversal of a CMN score stored as ordered entities.

The builder writes scores into the schema; :class:`ScoreView` walks the
orderings back out: movements, measures, syncs, chords, notes, voice
streams, and the derived temporal attributes of section 7.2 (measure
start times, chord start times inherited from syncs, performance
pitches resolved through the meta-musical rules).
"""

from fractions import Fraction

from repro.errors import NotationError
from repro.pitch.accidental import Accidental, AccidentalState
from repro.pitch.clef import clef_by_name
from repro.pitch.key import KeySignature
from repro.pitch.spelling import performance_pitch
from repro.temporal.meter import MeterSignature


class ScoreView:
    """Traversal helpers over one SCORE instance."""

    def __init__(self, cmn, score):
        self.cmn = cmn
        self.score = score
        self._start_maps = {}
        self._start_maps_versions = None

    # -- temporal hierarchy -------------------------------------------------

    def movements(self):
        return self.cmn.movement_in_score.children(self.score)

    def measures(self, movement):
        return self.cmn.measure_in_movement.children(movement)

    def syncs(self, measure):
        return self.cmn.sync_in_measure.children(measure)

    def chords_at(self, sync):
        return self.cmn.chord_in_sync.children(sync)

    def notes_of(self, chord):
        return self.cmn.note_in_chord.children(chord)

    def voice_stream(self, voice):
        """The ordered chords and rests of a voice (inhomogeneous)."""
        return self.cmn.chord_rest_in_voice.children(voice)

    def voices(self):
        out = []
        for part in self._parts():
            out.extend(self.cmn.voice_in_part.children(part))
        return out

    def _parts(self):
        out = []
        for orchestra in self._orchestras():
            for section in self.cmn.section_in_orchestra.children(orchestra):
                for instrument in self.cmn.instrument_in_section.children(section):
                    out.extend(self.cmn.part_in_instrument.children(instrument))
        return out

    def _orchestras(self):
        performs = self.cmn.PERFORMS
        return performs.related("score", self.score, fetch_role="orchestra")

    def instruments(self):
        out = []
        for orchestra in self._orchestras():
            for section in self.cmn.section_in_orchestra.children(orchestra):
                out.extend(self.cmn.instrument_in_section.children(section))
        return out

    def instrument_of_voice(self, voice):
        part = self.cmn.voice_in_part.parent_of(voice)
        if part is None:
            return None
        return self.cmn.part_in_instrument.parent_of(part)

    def staff_of_voice(self, voice):
        """The staff a voice is notated on (via its instrument).

        Parts and staves are ordered pairwise under the instrument (one
        staff created per part), so the voice's part ordinal selects the
        matching staff; a lone staff serves every part.
        """
        part = self.cmn.voice_in_part.parent_of(voice)
        if part is None:
            return None
        instrument = self.cmn.part_in_instrument.parent_of(part)
        if instrument is None:
            return None
        staves = self.cmn.staff_in_instrument.children(instrument)
        if not staves:
            return None
        position = self.cmn.part_in_instrument.position_of(part)
        if position is not None and position <= len(staves):
            return staves[position - 1]
        return staves[0]

    # -- temporal attributes (section 7.2) ----------------------------------------

    def meter_of(self, measure):
        return MeterSignature.parse(measure["meter"])

    def key_of(self, movement):
        fifths = movement["key_fifths"]
        return KeySignature(fifths if fifths is not None else 0)

    def _memoized_starts(self, parent_surrogate, compute):
        """The start map of *parent_surrogate*'s children, computed once
        per state of the tables it reads.

        ``chord_start_beats`` wants both maps for every chord, and each
        is a walk of every measure.  The memo follows ``position_of``'s
        rule: it is keyed on the :attr:`Table.version` of the two
        orderings and of MEASURE (``meter``), which every mutation bumps
        -- undo and redo included -- so it mirrors the *live* tables and
        a read through a pinned snapshot neither consults nor feeds it.
        """
        cmn = self.cmn
        if cmn.schema.database.transactions.current_snapshot() is not None:
            return compute()
        versions = (
            cmn.movement_in_score.table.version,
            cmn.measure_in_movement.table.version,
            cmn.MEASURE.table.version,
        )
        if versions != self._start_maps_versions:
            self._start_maps = {}
            self._start_maps_versions = versions
        if parent_surrogate not in self._start_maps:
            self._start_maps[parent_surrogate] = compute()
        return self._start_maps[parent_surrogate]

    def measure_starts(self, movement):
        """measure surrogate -> start beat (from the movement start)."""
        return dict(self._measure_starts(movement))

    def _measure_starts(self, movement):
        def compute():
            starts = {}
            cursor = Fraction(0)
            for measure in self.measures(movement):
                starts[measure.surrogate] = cursor
                cursor += self.meter_of(measure).measure_duration().beats
            return starts

        return self._memoized_starts(movement.surrogate, compute)

    def movement_duration_beats(self, movement):
        """The movement's duration: the sum of its measures' durations."""
        total = Fraction(0)
        for measure in self.measures(movement):
            total += self.meter_of(measure).measure_duration().beats
        return total

    def score_duration_beats(self):
        """"This duration is the sum of the durations of its constituent
        movements" (section 7.2)."""
        return sum(
            (self.movement_duration_beats(m) for m in self.movements()),
            Fraction(0),
        )

    def movement_starts(self):
        """movement surrogate -> start beat (from the score start)."""
        return dict(self._movement_starts())

    def _movement_starts(self):
        def compute():
            starts = {}
            cursor = Fraction(0)
            for movement in self.movements():
                starts[movement.surrogate] = cursor
                cursor += self.movement_duration_beats(movement)
            return starts

        return self._memoized_starts(self.score.surrogate, compute)

    def chord_start_beats(self, chord):
        """A chord's start: inherited from its parent sync and measure."""
        sync = self.cmn.chord_in_sync.parent_of(chord)
        if sync is None:
            raise NotationError("chord %r has no sync" % chord)
        measure = self.cmn.sync_in_measure.parent_of(sync)
        movement = self.cmn.measure_in_movement.parent_of(measure)
        measure_start = self._measure_starts(movement)[measure.surrogate]
        movement_start = self._movement_starts()[movement.surrogate]
        return movement_start + measure_start + sync["offset_beats"]

    def chord_duration_beats(self, chord):
        return chord["duration"] * 4  # whole-note fraction -> quarter beats

    # -- pitch resolution (section 4.3 applied to stored notes) ----------------------

    def clef_of_voice(self, voice):
        staff = self.staff_of_voice(voice)
        if staff is None or staff["clef"] is None:
            return clef_by_name("treble")
        return clef_by_name(staff["clef"])

    def resolve_pitches(self, voice):
        """note surrogate -> sounding Pitch for every note in *voice*.

        Walks the voice stream measure by measure, maintaining the
        accidental state the meta-musical rules require.
        """
        clef = self.clef_of_voice(voice)
        out = {}
        current_measure = None
        state = None
        for item in self.voice_stream(voice):
            if item.type.name != "CHORD":
                continue
            sync = self.cmn.chord_in_sync.parent_of(item)
            measure = self.cmn.sync_in_measure.parent_of(sync)
            if state is None or (
                current_measure is not None
                and measure.surrogate != current_measure
            ):
                if state is None:
                    movement = self.cmn.measure_in_movement.parent_of(measure)
                    state = AccidentalState(self.key_of(movement))
                else:
                    state.barline()
            current_measure = measure.surrogate
            for note in self.notes_of(item):
                accidental = Accidental.from_symbol(note["accidental"])
                out[note.surrogate] = performance_pitch(
                    note["degree"], clef, state, accidental
                )
        return out

    # -- groups -----------------------------------------------------------------------

    def groups_of_voice(self, voice):
        return self.cmn.group_in_voice.children(voice)

    def group_duration_beats(self, group):
        """A group's duration "is a function of the duration of its
        constituent chords and rests" (figure 15).

        Members carry *sounding* durations (a triplet quarter is stored
        as 1/12 whole), so the function is the plain sum; the tuplet's
        actual:normal ratio is notation metadata for rendering.
        """
        total = Fraction(0)
        for member in self.cmn.group_member.children(group):
            if member.type.name == "GROUP":
                total += self.group_duration_beats(member)
            else:
                total += member["duration"] * 4
        return total

    # -- statistics ---------------------------------------------------------------------

    def counts(self):
        """Entity counts below this score (movements/measures/syncs/...)."""
        movements = self.movements()
        measures = [m for mv in movements for m in self.measures(mv)]
        syncs = [s for m in measures for s in self.syncs(m)]
        chords = [c for s in syncs for c in self.chords_at(s)]
        notes = [n for c in chords for n in self.notes_of(c)]
        return {
            "movements": len(movements),
            "measures": len(measures),
            "syncs": len(syncs),
            "chords": len(chords),
            "notes": len(notes),
        }
