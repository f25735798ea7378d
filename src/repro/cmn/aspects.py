"""Aspects of musical entities (figure 12).

"Musical entities in the CMN score have several aspects and
subaspects...  These may be thought of as different views on the
musical schema."
"""

import enum


class Aspect(enum.Enum):
    """The figure 12 aspects and subaspects of musical entities."""

    TEMPORAL = "temporal"
    TIMBRAL = "timbral"
    PITCH = "pitch"
    ARTICULATION = "articulation"
    DYNAMIC = "dynamic"
    GRAPHICAL = "graphical"
    TEXTUAL = "textual"


#: The figure 12 tree: aspect -> subaspects.
ASPECT_TREE = {
    Aspect.TEMPORAL: [],
    Aspect.TIMBRAL: [Aspect.PITCH, Aspect.ARTICULATION, Aspect.DYNAMIC],
    Aspect.GRAPHICAL: [Aspect.TEXTUAL],
}


def parent_aspect(aspect):
    """The enclosing aspect of a subaspect, or None for a top level."""
    for parent, children in ASPECT_TREE.items():
        if aspect in children:
            return parent
    return None


def render_tree():
    """Deterministic ASCII rendering of figure 12."""
    lines = ["Aspects of Musical Entities"]
    for aspect, children in ASPECT_TREE.items():
        lines.append("|-- %s" % aspect.value)
        for child in children:
            lines.append("|   |-- %s" % child.value)
    return "\n".join(lines)


def aspect_matrix(entities=None):
    """Entity-name -> sorted list of participating aspect names.

    Built from the per-entity aspect declarations in
    :mod:`repro.cmn.entities` (the "not every entity has attributes in
    every aspect" point -- e.g. MIDI events have no graphical aspect).
    """
    from repro.cmn.entities import CMN_ENTITIES

    rows = entities if entities is not None else CMN_ENTITIES
    return {
        definition.name: sorted(a.value for a in definition.aspects)
        for definition in rows
    }
