"""Accidentals and their within-measure scope.

In CMN an accidental applies to its own note and to later notes at the
same staff position until the next barline (or a contradicting
accidental).  :class:`AccidentalState` tracks that state while a
measure is read left to right -- more of the meta-musical, procedural
knowledge of section 4.3.
"""

import enum

from repro.errors import NotationError


class Accidental(enum.Enum):
    """An explicit accidental sign; the value is its alteration."""

    DOUBLE_FLAT = -2
    FLAT = -1
    NATURAL = 0
    SHARP = 1
    DOUBLE_SHARP = 2

    @property
    def alteration(self):
        return self.value

    @property
    def symbol(self):
        return {
            Accidental.DOUBLE_FLAT: "bb",
            Accidental.FLAT: "b",
            Accidental.NATURAL: "n",
            Accidental.SHARP: "#",
            Accidental.DOUBLE_SHARP: "##",
        }[self]

    @classmethod
    def from_symbol(cls, symbol):
        if symbol is None or symbol == "":
            return None
        mapping = {
            "bb": cls.DOUBLE_FLAT,
            "b": cls.FLAT,
            "-": cls.FLAT,  # DARMS uses '-' for flat
            "n": cls.NATURAL,
            "*": cls.NATURAL,  # DARMS natural
            "#": cls.SHARP,
            "##": cls.DOUBLE_SHARP,
            "x": cls.DOUBLE_SHARP,
        }
        try:
            return mapping[symbol]
        except KeyError:
            raise NotationError("unknown accidental symbol %r" % symbol)


class AccidentalState:
    """Accidentals in force within the current measure, per staff degree."""

    def __init__(self, key_signature=None):
        self.key_signature = key_signature
        self._in_force = {}  # staff degree -> alteration

    def barline(self):
        """Cross a barline: measure-scoped accidentals expire."""
        self._in_force.clear()

    def apply(self, degree, step, accidental=None):
        """The alteration for a note at *degree* (letter *step*).

        If the note carries an explicit *accidental*, it takes effect
        now and persists for the rest of the measure at this degree.
        Otherwise an earlier accidental at the same degree applies;
        failing that, the key signature's alteration for the step.
        """
        if accidental is not None:
            alteration = accidental.alteration
            self._in_force[degree] = alteration
            return alteration
        if degree in self._in_force:
            return self._in_force[degree]
        if self.key_signature is not None:
            return self.key_signature.alteration_of(step)
        return 0
