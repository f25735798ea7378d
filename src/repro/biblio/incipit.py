"""Thematic-incipit search.

An incipit is stored as DARMS (section 4.6 gives us the encoding).  For
matching, the melody is reduced to an interval sequence (transposition
invariant) or a contour (up/down/repeat); queries match entries whose
incipit begins with -- or contains -- the query's reduction.  This is
the "sufficient musical (i.e. thematic) material to identify the
composition" use of section 4.2.
"""

from itertools import repeat

from repro.errors import BiblioError
from repro.darms.canonical import normalize
from repro.darms.parser import parse_darms
from repro.darms.tokens import BeamGroup, ClefCode, KeyCode, NoteCode
from repro.pitch.accidental import Accidental, AccidentalState
from repro.pitch.clef import clef_by_name
from repro.pitch.key import KeySignature
from repro.pitch.spelling import performance_pitch


def _flatten_notes(elements):
    out = []
    for element in elements:
        if isinstance(element, NoteCode):
            out.append(element)
        elif isinstance(element, BeamGroup):
            out.extend(_flatten_notes(element.members))
    return out


def incipit_midi_keys(darms_text):
    """The MIDI key sequence of a DARMS incipit."""
    try:
        elements = normalize(parse_darms(darms_text))
    except Exception as exc:
        raise BiblioError("bad incipit DARMS: %s" % exc)
    clef = clef_by_name("treble")
    key = KeySignature(0)
    for element in elements:
        if isinstance(element, ClefCode):
            clef = clef_by_name(element.clef_name)
        elif isinstance(element, KeyCode):
            key = KeySignature(element.fifths)
    state = AccidentalState(key)
    keys = []
    for note in _flatten_notes(elements):
        accidental = (
            None if note.accidental is None else Accidental(note.accidental)
        )
        pitch = performance_pitch(note.degree, clef, state, accidental)
        keys.append(pitch.midi_key)
    return keys


def incipit_intervals(darms_text):
    """Successive semitone intervals (transposition invariant)."""
    keys = incipit_midi_keys(darms_text)
    return [b - a for a, b in zip(keys, keys[1:])]


def incipit_contour(darms_text):
    """Up/down/repeat contour string, e.g. ``"UUDR"``."""
    out = []
    for interval in incipit_intervals(darms_text):
        if interval > 0:
            out.append("U")
        elif interval < 0:
            out.append("D")
        else:
            out.append("R")
    return "".join(out)


def _contains(haystack, needle):
    if not needle:
        return True
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start:start + len(needle)] == needle:
            return True
    return False


def incipit_from_score(cmn, score, voice=None, measures=2):
    """Extract a thematic incipit from a stored score, as DARMS.

    The section 4.2 cataloguing workflow: the first *measures* measures
    of a voice become the identifying fragment.  The returned text is a
    valid (searchable) incipit for a thematic index.
    """
    from repro.darms.encode import score_to_darms

    encoded = score_to_darms(cmn, score, voice=voice)
    tokens = encoded.split()
    out = []
    barlines = 0
    for token in tokens:
        out.append(token)
        if token in ("/", "//"):
            barlines += 1
            if barlines >= measures:
                break
    if out and out[-1] == "/":
        out[-1] = "//"
    elif not out or out[-1] != "//":
        out.append("//")
    return " ".join(out)


def search_catalog_incipits(entity, query_darms, mode="verbatim",
                            prefix_only=False, limit=None):
    """Rowids of catalog *entity* whose ``incipit`` column matches.

    The library-scale complement of :func:`search_by_incipit`: instead
    of a curated thematic index, the haystack is a catalog entity (the
    corpus ``TRACK`` shape) holding one DARMS incipit string per row.

    ``"verbatim"`` mode matches the query DARMS as a normalized
    substring and runs through the trigram text index on the column
    when one exists -- the same posting-intersection path QUEL's
    ``matches`` gate uses, so a million-track catalog answers from the
    postings and only verified candidates touch the heap.
    ``"intervals"`` / ``"contour"`` reduce melodies before comparing,
    so transposed copies with entirely different text still match; the
    trigram index cannot prune those, but catalog rows repeat incipit
    strings across edition variants, so each *distinct* string is
    parsed and reduced exactly once.

    Returns rowids ascending; *limit* stops the search early (the
    candidate iterator is lazy, so a small limit reads only a small
    prefix of a large catalog).
    """
    from repro.text import contains_match, trigrams

    table = entity.table
    chunks = None
    if mode == "verbatim":
        matcher = lambda text: contains_match(text, query_darms)
        index = table.text_index_for("incipit")
        if index is not None and trigrams(query_darms):
            # A bounded chunk per probe, so a small limit never
            # materializes the whole candidate set; a sub-trigram query
            # has no postings to stream and scans.
            chunks = table.matching_chunks(index, query_darms, repeat(256))
    elif mode in ("intervals", "contour"):
        if mode == "intervals":
            needle = incipit_intervals(query_darms)
            reducer = incipit_intervals
        else:
            needle = list(incipit_contour(query_darms))
            reducer = lambda text: list(incipit_contour(text))
        reductions = {}

        def matcher(text):
            if text is None:
                return False
            haystack = reductions.get(text)
            if haystack is None:
                try:
                    haystack = reducer(text)
                except BiblioError:
                    haystack = []
                reductions[text] = haystack
            if prefix_only:
                return haystack[: len(needle)] == needle
            return _contains(haystack, needle)

    else:
        raise BiblioError("unknown search mode %r" % mode)

    matches = []
    if chunks is None:
        rows = iter(table)
    else:
        rows = (row for chunk in chunks for row in table.get_many(chunk))
    for row in rows:
        if matcher(row.get("incipit")):
            matches.append(row.rowid)
            if limit is not None and len(matches) >= limit:
                break
    return matches


def search_by_incipit(index, query_darms, mode="intervals", prefix_only=False):
    """Entries of *index* whose incipit matches *query_darms*.

    *mode* is ``"intervals"`` (transposition-invariant exact intervals)
    or ``"contour"`` (direction only).  With *prefix_only*, the match
    must start the incipit (thematic identification); otherwise any
    position matches (motif search).
    """
    if mode == "intervals":
        needle = incipit_intervals(query_darms)
        reducer = incipit_intervals
    elif mode == "contour":
        needle = list(incipit_contour(query_darms))
        reducer = lambda text: list(incipit_contour(text))
    else:
        raise BiblioError("unknown search mode %r" % mode)
    matches = []
    for entry in index.entries():
        for incipit in index.incipits(entry):
            haystack = reducer(incipit["darms"])
            if prefix_only:
                hit = haystack[: len(needle)] == needle
            else:
                hit = _contains(haystack, needle)
            if hit:
                matches.append((entry, incipit))
                break
    return matches
