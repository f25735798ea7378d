"""Deterministic library-catalog corpus for text-search benchmarks.

A synthetic but realistic slice of a music library's catalog: works by
composers whose names carry diacritics, titles that appear in several
noisy edition variants (case changes, folded accents, reordered tokens,
publisher suffixes -- the messiness ``matches``/``similar_to`` exist
for), and a short DARMS incipit per row in the section 4.2 sense of
"sufficient musical material to identify the composition".

Everything is driven by one ``random.Random(seed)``: the same
``(count, seed)`` always yields byte-identical rows, so benchmark and
property runs are reproducible.

``load_catalog`` bulk-loads rows through the COPY-style
:meth:`~repro.storage.database.Database.bulk_ingest` path with
pre-allocated surrogates.
"""

import random

from repro.core.entity import SURROGATE_COLUMN

COMPOSERS = [
    "Antonín Dvořák", "Béla Bartók", "Camille Saint-Saëns",
    "Charles Gounod", "Claude Debussy", "Edvard Grieg",
    "Frédéric Chopin", "Gabriel Fauré", "Georg Friedrich Händel",
    "Gustav Mahler", "Johann Sebastian Bach", "Leoš Janáček",
    "Franz Schubert", "Maurice Ravel", "Modest Musorgskij",
    "Wolfgang Amadeus Mozart", "Zoltán Kodály", "Érik Satie",
]

FORMS = [
    "Prélude", "Étude", "Nocturne", "Mazurka", "Symphony", "Concerto",
    "Sonata", "Fugue", "Toccata", "Variations", "Impromptu", "Rhapsody",
    "Suite", "Berceuse", "Scherzo", "Ballade",
]

KEYS = [
    "C major", "C minor", "C-sharp minor", "D major", "D minor",
    "E-flat major", "E major", "E minor", "F major", "F minor",
    "F-sharp major", "G major", "G minor", "A-flat major", "A major",
    "A minor", "B-flat major", "B minor",
]

EDITIONS = [
    "Breitkopf & Härtel", "Edition Peters", "Henle Urtext",
    "Bärenreiter", "Durand", "Universal Edition", "Schirmer",
    "Editio Musica Budapest",
]

#: DARMS pitch codes a synthetic incipit random-walks over (treble
#: staff steps; see repro.darms for the real encoding).
_DARMS_STEPS = ["19", "20", "21", "22", "23", "24", "25", "26", "27"]
_DARMS_DURATIONS = ["W", "H", "Q", "E"]


def _incipit(rng):
    """A short DARMS-style incipit string: ``!G 22Q 24E 23Q ...``."""
    length = rng.randint(4, 8)
    position = rng.randint(1, len(_DARMS_STEPS) - 2)
    notes = []
    for _ in range(length):
        position = min(
            len(_DARMS_STEPS) - 1, max(0, position + rng.randint(-2, 2))
        )
        notes.append(_DARMS_STEPS[position] + rng.choice(_DARMS_DURATIONS))
    return "!G " + " ".join(notes)


def _base_title(rng):
    form = rng.choice(FORMS)
    key = rng.choice(KEYS)
    number = rng.randint(1, 24)
    opus = rng.randint(1, 120)
    return "%s No. %d in %s, Op. %d" % (form, number, key, opus)


def _strip_diacritics(text):
    from repro.text import normalize  # canonical folding rules

    # normalize() also lowercases/strips punctuation; for a title
    # variant we only want the accents gone, so fold per word and
    # restore capitalization crudely -- catalogs really do this.
    return " ".join(
        word.capitalize() for word in normalize(text).split()
    )


def _variant(rng, title, edition):
    """One noisy catalog appearance of *title*."""
    style = rng.randint(0, 5)
    if style == 0:
        return title
    if style == 1:
        return title.lower()
    if style == 2:
        return _strip_diacritics(title)
    if style == 3:
        return title.replace("No.", "no").replace(",", "")
    if style == 4:
        return "%s [%s]" % (title, edition)
    head, _, tail = title.partition(" in ")
    if tail:
        return "In %s: %s" % (tail, head)
    return title


def corpus_rows(count, seed=0):
    """Yield *count* catalog row dicts, deterministically from *seed*.

    Each synthetic work appears as 1-4 edition variants of the same
    underlying title, so substring and similarity queries both have
    non-trivial result sets.
    """
    rng = random.Random(seed)
    emitted = 0
    while emitted < count:
        composer = rng.choice(COMPOSERS)
        title = _base_title(rng)
        incipit = _incipit(rng)
        variants = min(rng.randint(1, 4), count - emitted)
        for _ in range(variants):
            edition = "%s, %d" % (rng.choice(EDITIONS), rng.randint(1860, 2020))
            yield {
                "title": _variant(rng, title, edition),
                "composer": composer,
                "edition": edition,
                "incipit": incipit,
            }
            emitted += 1


CATALOG_ATTRIBUTES = [
    ("title", "string"),
    ("composer", "string"),
    ("edition", "string"),
    ("incipit", "string"),
]


def load_catalog(schema, count, seed=0, name="TRACK", batch_rows=2000,
                 chunk_rows=50_000):
    """Define (or reuse) entity *name* and bulk-load a *count*-row corpus.

    Returns the entity type.  Surrogates are pre-allocated from the
    schema counter and the rows go through ``bulk_ingest``.

    The generator is drained in *chunk_rows* slices so a million-track
    load never holds more than one chunk of pending dicts on top of the
    table itself; the row *content* depends only on ``(count, seed)``,
    never on the chunking.
    """
    entity = schema.define_entity(name, CATALOG_ATTRIBUTES)  # binds if stored
    ingest = schema.database.bulk_ingest
    table_name = entity.table.name
    rows = []
    for row in corpus_rows(count, seed):
        row[SURROGATE_COLUMN] = schema.next_surrogate()
        rows.append(row)
        if len(rows) >= chunk_rows:
            ingest(table_name, rows, batch_rows=batch_rows)
            rows = []
    if rows:
        ingest(table_name, rows, batch_rows=batch_rows)
    return entity
