"""Thematic indexes as ER + hierarchical-ordering data.

The index and its entries are ordinary entities; the multi-valued
bibliographic attributes (copies, editions, literature) and the
incipits are hierarchically ordered under their entry -- the paper's
own modeling tools applied to its section 4.2 material.
"""

from repro.errors import BiblioError
from repro.core.schema import Schema

BIBLIO_DDL_TYPES = {
    "THEMATIC_INDEX": [
        ("name", "string"),
        ("abbreviation", "string"),
        ("ordering_principle", "string"),
    ],
    "INDEX_ENTRY": [
        ("number", "integer"),
        ("title", "string"),
        ("setting", "string"),          # Besetzung
        ("composed_when", "string"),    # EZ
        ("composed_where", "string"),
        ("measure_count", "integer"),   # Takte
    ],
    "INCIPIT": [
        ("voice_label", "string"),
        ("darms", "string"),
    ],
    "MANUSCRIPT_COPY": [("text", "string")],   # Abschriften
    "EDITION": [("text", "string")],           # Ausgaben
    "LITERATURE_REF": [("text", "string")],    # Literatur
    "PERSON": [("name", "string"), ("born", "integer"), ("died", "integer")],
}

BIBLIO_ORDERINGS = {
    "entry_in_index": (["INDEX_ENTRY"], "THEMATIC_INDEX"),
    "incipit_in_entry": (["INCIPIT"], "INDEX_ENTRY"),
    "copy_in_entry": (["MANUSCRIPT_COPY"], "INDEX_ENTRY"),
    "edition_in_entry": (["EDITION"], "INDEX_ENTRY"),
    "literature_in_entry": (["LITERATURE_REF"], "INDEX_ENTRY"),
}

BIBLIO_RELATIONSHIPS = {
    "INDEXES_WORKS_OF": [("index", "THEMATIC_INDEX"), ("composer", "PERSON")],
}


def build_biblio_schema(database=None, schema=None):
    """Create (or extend, or bind to) a schema with the bibliographic
    types: a define identical to a stored one binds."""
    if schema is None:
        schema = Schema("biblio", database=database)
    for name, attributes in BIBLIO_DDL_TYPES.items():
        schema.define_entity(name, attributes)
    for name, (children, parent) in BIBLIO_ORDERINGS.items():
        schema.define_ordering(name, children, under=parent)
    for name, roles in BIBLIO_RELATIONSHIPS.items():
        schema.define_relationship(name, roles)
    return schema


class ThematicIndex:
    """A thematic index over one schema (e.g. the BWV)."""

    def __init__(self, schema, name, abbreviation, composer=None,
                 ordering_principle="chronological"):
        self.schema = build_biblio_schema(schema=schema)
        self.index = self.schema.entity_type("THEMATIC_INDEX").create(
            name=name,
            abbreviation=abbreviation,
            ordering_principle=ordering_principle,
        )
        if composer is not None:
            person_type = self.schema.entity_type("PERSON")
            matches = person_type.find(name=composer)
            person = matches[0] if matches else person_type.create(name=composer)
            self.schema.relationship("INDEXES_WORKS_OF").relate(
                index=self.index, composer=person
            )

    @property
    def abbreviation(self):
        return self.index["abbreviation"]

    def composer(self):
        related = self.schema.relationship("INDEXES_WORKS_OF").related(
            "index", self.index, fetch_role="composer"
        )
        return related[0] if related else None

    # -- entries -----------------------------------------------------------------

    def add_entry(self, number, title, setting="", composed_when="",
                  composed_where="", measure_count=None, incipits=(),
                  copies=(), editions=(), literature=()):
        """Add an index entry; multi-valued attributes become ordered
        children.  Entries keep index order sorted by number."""
        entry_type = self.schema.entity_type("INDEX_ENTRY")
        if entry_type.find(number=number):
            existing = self._entries_by_number().get(number)
            if existing is not None:
                raise BiblioError(
                    "%s %d already catalogued" % (self.abbreviation, number)
                )
        entry = entry_type.create(
            number=number,
            title=title,
            setting=setting,
            composed_when=composed_when,
            composed_where=composed_where,
            measure_count=measure_count,
        )
        ordering = self.schema.ordering("entry_in_index")
        siblings = ordering.children(self.index)
        position = 1 + sum(1 for s in siblings if s["number"] < number)
        ordering.insert(self.index, entry, position)
        self._append_children(entry, "INCIPIT", "incipit_in_entry", incipits,
                              self._incipit_values)
        self._append_children(entry, "MANUSCRIPT_COPY", "copy_in_entry", copies)
        self._append_children(entry, "EDITION", "edition_in_entry", editions)
        self._append_children(entry, "LITERATURE_REF", "literature_in_entry",
                              literature)
        return entry

    @staticmethod
    def _incipit_values(item):
        if isinstance(item, tuple):
            label, darms = item
            return {"voice_label": label, "darms": darms}
        return {"voice_label": "", "darms": item}

    def _append_children(self, entry, type_name, ordering_name, items,
                         value_fn=None):
        entity_type = self.schema.entity_type(type_name)
        ordering = self.schema.ordering(ordering_name)
        for item in items:
            if value_fn is not None:
                values = value_fn(item)
            else:
                values = {"text": item}
            ordering.append(entry, entity_type.create(**values))

    def _entries_by_number(self):
        ordering = self.schema.ordering("entry_in_index")
        return {e["number"]: e for e in ordering.children(self.index)}

    def entries(self):
        return self.schema.ordering("entry_in_index").children(self.index)

    def entry(self, number):
        """Look up e.g. entry 578: "'BWV' identifies the index ... and
        '578' identifies the composition"."""
        found = self._entries_by_number().get(number)
        if found is None:
            raise BiblioError("no entry %s %d" % (self.abbreviation, number))
        return found

    def identifier(self, entry):
        """The widely understood name, e.g. ``"BWV 578"``."""
        return "%s %d" % (self.abbreviation, entry["number"])

    # -- per-entry detail ------------------------------------------------------------

    def incipits(self, entry):
        return self.schema.ordering("incipit_in_entry").children(entry)

    def copies(self, entry):
        return self.schema.ordering("copy_in_entry").children(entry)

    def editions(self, entry):
        return self.schema.ordering("edition_in_entry").children(entry)

    def literature(self, entry):
        return self.schema.ordering("literature_in_entry").children(entry)

    def __len__(self):
        return len(self.entries())
