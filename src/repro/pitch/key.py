"""Key signatures: declarative and procedural meaning (section 4.3).

A key signature of three sharps *declares* "the piece is in A major (or
f# minor)" and *prescribes* "perform all notes notated as F, C, or G one
semitone higher than written".  :class:`KeySignature` exposes both
readings.
"""

from repro.errors import NotationError

#: Order in which sharps are added to a signature.
_SHARP_ORDER = "FCGDAEB"
#: Order in which flats are added.
_FLAT_ORDER = "BEADGCF"

_MAJOR_BY_FIFTHS = {
    -7: "Cb", -6: "Gb", -5: "Db", -4: "Ab", -3: "Eb", -2: "Bb", -1: "F",
    0: "C", 1: "G", 2: "D", 3: "A", 4: "E", 5: "B", 6: "F#", 7: "C#",
}
_MINOR_BY_FIFTHS = {
    -7: "ab", -6: "eb", -5: "bb", -4: "f", -3: "c", -2: "g", -1: "d",
    0: "a", 1: "e", 2: "b", 3: "f#", 4: "c#", 5: "g#", 6: "d#", 7: "a#",
}


class KeySignature:
    """A key signature, identified by its position on the circle of
    fifths: positive = sharps, negative = flats."""

    __slots__ = ("fifths",)

    def __init__(self, fifths):
        if not -7 <= fifths <= 7:
            raise NotationError("key signature %r out of range -7..7" % (fifths,))
        self.fifths = fifths

    @classmethod
    def sharps(cls, count):
        return cls(count)

    @classmethod
    def flats(cls, count):
        return cls(-count)

    @classmethod
    def of_major(cls, tonic):
        for fifths, name in _MAJOR_BY_FIFTHS.items():
            if name.lower() == tonic.lower():
                return cls(fifths)
        raise NotationError("no major key %r" % tonic)

    @classmethod
    def of_minor(cls, tonic):
        for fifths, name in _MINOR_BY_FIFTHS.items():
            if name.lower() == tonic.lower():
                return cls(fifths)
        raise NotationError("no minor key %r" % tonic)

    # -- declarative meaning ----------------------------------------------------

    def major_key(self):
        """The major tonality this signature declares (e.g. ``"A"``)."""
        return _MAJOR_BY_FIFTHS[self.fifths]

    def minor_key(self):
        """The relative minor (e.g. ``"f#"``)."""
        return _MINOR_BY_FIFTHS[self.fifths]

    def declarative_meaning(self):
        """The paper's declarative reading, as text."""
        return "The piece is in the key of %s major (or %s minor)" % (
            self.major_key(),
            self.minor_key(),
        )

    # -- procedural meaning ------------------------------------------------------

    def altered_steps(self):
        """The step letters the signature alters, in signature order."""
        if self.fifths > 0:
            return list(_SHARP_ORDER[: self.fifths])
        if self.fifths < 0:
            return list(_FLAT_ORDER[: -self.fifths])
        return []

    def alteration_of(self, step):
        """+1, -1, or 0: how the signature alters notes on *step*."""
        step = step.upper()
        if self.fifths > 0 and step in _SHARP_ORDER[: self.fifths]:
            return 1
        if self.fifths < 0 and step in _FLAT_ORDER[: -self.fifths]:
            return -1
        return 0

    def procedural_meaning(self):
        """The paper's procedural reading, as text."""
        steps = self.altered_steps()
        if not steps:
            return "Perform all notes as written"
        direction = "higher" if self.fifths > 0 else "lower"
        return "Perform all notes notated as %s one semitone %s than written" % (
            ", ".join(steps),
            direction,
        )

    def __eq__(self, other):
        return isinstance(other, KeySignature) and self.fifths == other.fifths

    def __hash__(self):
        return hash(self.fifths)

    def __repr__(self):
        if self.fifths >= 0:
            return "KeySignature(%d sharps)" % self.fifths
        return "KeySignature(%d flats)" % -self.fifths
