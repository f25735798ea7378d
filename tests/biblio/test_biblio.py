"""Thematic indexes and incipit search (section 4.2)."""

import pytest

from repro.biblio.catalog import format_citation, format_entry
from repro.biblio.incipit import (
    incipit_contour,
    incipit_intervals,
    incipit_midi_keys,
    search_by_incipit,
    search_catalog_incipits,
)
from repro.biblio.thematic import ThematicIndex
from repro.core.schema import Schema
from repro.errors import BiblioError
from repro.fixtures.bwv578 import SUBJECT_INCIPIT_DARMS, build_bwv_index
from repro.fixtures.examples import make_demo_index


@pytest.fixture
def small_index():
    index = ThematicIndex(
        Schema("idx"), name="Test-Verzeichnis", abbreviation="TWV",
        composer="Tester",
    )
    index.add_entry(
        3, "Third", incipits=[("theme", "!G 21Q 23Q 25Q //")],
        copies=["copy A"], editions=["ed 1"], literature=["ref x"],
    )
    index.add_entry(1, "First", incipits=[("theme", "!G 25Q 24Q 23Q 21Q //")])
    index.add_entry(2, "Second", incipits=[("theme", "!G 21Q 21Q 25Q //")])
    return index


class TestIndex:
    def test_entries_sorted_by_number(self, small_index):
        assert [e["number"] for e in small_index.entries()] == [1, 2, 3]

    def test_identifier(self, small_index):
        entry = small_index.entry(3)
        assert small_index.identifier(entry) == "TWV 3"

    def test_missing_entry(self, small_index):
        with pytest.raises(BiblioError):
            small_index.entry(404)

    def test_duplicate_number_rejected(self, small_index):
        with pytest.raises(BiblioError):
            small_index.add_entry(2, "Again")

    def test_composer_relationship(self, small_index):
        assert small_index.composer()["name"] == "Tester"

    def test_multivalued_attributes_ordered(self, small_index):
        entry = small_index.entry(3)
        assert [c["text"] for c in small_index.copies(entry)] == ["copy A"]
        assert [e["text"] for e in small_index.editions(entry)] == ["ed 1"]
        assert [l["text"] for l in small_index.literature(entry)] == ["ref x"]

    def test_bwv_fixture(self):
        index, entry = build_bwv_index()
        assert index.identifier(entry) == "BWV 578"
        assert entry["measure_count"] == 68
        assert len(index.literature(entry)) == 7


class TestIncipits:
    def test_midi_keys_respect_clef_and_key(self):
        keys = incipit_midi_keys("!F !K1- 21Q 23Q //")  # bass clef, one flat
        assert keys == [43, 46]  # G2, Bb2 (the key signature flats the B)

    def test_intervals_transposition_invariant(self):
        low = incipit_intervals("!G 21Q 23Q 25Q //")
        high = incipit_intervals("!G 28Q 30Q 32Q //")
        assert low == high

    def test_contour(self):
        assert incipit_contour("!G 21Q 25Q 23Q 23Q //") == "UDR"

    def test_bad_darms(self):
        with pytest.raises(BiblioError):
            incipit_intervals("((((")


class TestSearch:
    def test_interval_prefix_search(self, small_index):
        # A-C-E has the same minor-third/major-third shape as E-G-B.
        hits = search_by_incipit(small_index, "!G 24Q 26Q 28Q //",
                                 prefix_only=True)
        assert [entry["number"] for entry, _ in hits] == [3]
        # The same search over a generated 25-work index.
        demo = make_demo_index(25)
        assert len(demo) == 25
        assert search_by_incipit(
            demo, "!G !M4:4 21Q 23Q 25Q 27Q //", prefix_only=True
        )

    def test_contains_search(self, small_index):
        # The descending step G4->F... matches inside entry 1's line.
        hits = search_by_incipit(small_index, "!G 24Q 23Q //")
        assert 1 in [entry["number"] for entry, _ in hits]

    def test_contour_search(self, small_index):
        hits = search_by_incipit(small_index, "!G 21Q 22Q 25Q //",
                                 mode="contour", prefix_only=True)
        numbers = [entry["number"] for entry, _ in hits]
        assert 3 in numbers  # UU prefix
        assert 1 not in numbers  # descends

    def test_unknown_mode(self, small_index):
        with pytest.raises(BiblioError):
            search_by_incipit(small_index, "!G 21Q //", mode="psychic")

    def test_bwv_subject_identifies_itself(self):
        index, _ = build_bwv_index()
        hits = search_by_incipit(index, SUBJECT_INCIPIT_DARMS, prefix_only=True)
        assert len(hits) == 1


@pytest.fixture
def catalog():
    """A tiny catalog entity with hand-written incipits + trigram index."""
    from repro.fixtures.corpus import CATALOG_ATTRIBUTES

    schema = Schema("cat")
    entity = schema.define_entity("TRACK", CATALOG_ATTRIBUTES)
    rows = [
        ("Fugue in G minor", "!G 21Q 23Q 25Q //"),
        ("Fugue in G minor (transposed)", "!G 24Q 26Q 28Q //"),
        ("Nocturne", "!G 25Q 24Q 23Q 21Q //"),
        ("Berceuse", "!G 21Q 21Q 25Q //"),
        ("Empty one", None),
    ]
    for title, incipit in rows:
        entity.create(title=title, composer="Tester", edition="ed",
                      incipit=incipit)
    schema.database.create_text_index(entity.table.name, "incipit")
    return entity


class TestCatalogIncipitSearch:
    def test_verbatim_uses_index_and_agrees_with_scan(self, catalog):
        from repro.text import contains_match

        query = "21Q 23Q"
        hits = search_catalog_incipits(catalog, query)
        reference = [
            row.rowid for row in catalog.table
            if contains_match(row.get("incipit"), query)
        ]
        assert hits == sorted(reference)
        assert len(hits) == 1

    def test_verbatim_without_index_scans(self, catalog):
        query = "21Q 23Q"
        indexed = search_catalog_incipits(catalog, query)
        catalog.table.drop_text_index("incipit")
        assert search_catalog_incipits(catalog, query) == indexed

    def test_intervals_mode_is_transposition_invariant(self, catalog):
        # The query is a minor third + major third starting on A; both
        # G-minor fugue rows match even though their DARMS text differs.
        hits = search_catalog_incipits(
            catalog, "!G 24Q 26Q 28Q //", mode="intervals", prefix_only=True
        )
        titles = sorted(
            catalog.table.get(rowid).get("title") for rowid in hits
        )
        assert titles == ["Fugue in G minor", "Fugue in G minor (transposed)"]

    def test_contour_mode(self, catalog):
        hits = search_catalog_incipits(
            catalog, "!G 21Q 22Q 25Q //", mode="contour", prefix_only=True
        )
        titles = {catalog.table.get(rowid).get("title") for rowid in hits}
        assert "Fugue in G minor" in titles      # UU prefix
        assert "Nocturne" not in titles          # descends

    def test_a_pinned_verbatim_search_answers_as_of_its_pin(self, catalog):
        """The postings describe the current rows only; the search reads
        them through ``Table.probe``, whose stale rowids bring back the
        row another thread rewrote after the pin."""
        import threading

        query = "21Q 23Q"
        fugue, _, nocturne = catalog.table.rowids()[:3]
        assert search_catalog_incipits(catalog, query) == [fugue]
        with catalog.schema.database.snapshot():
            editor = threading.Thread(target=lambda: (
                catalog.table.update(fugue, {"incipit": "!G 30Q 31Q //"}),
                catalog.table.update(nocturne, {"incipit": "!G 21Q 23Q //"}),
            ))
            editor.start()
            editor.join(timeout=10)
            assert not editor.is_alive()
            assert search_catalog_incipits(catalog, query) == [fugue]
            assert search_catalog_incipits(catalog, "30Q 31Q") == []
        assert search_catalog_incipits(catalog, query) == [nocturne]
        assert search_catalog_incipits(catalog, "30Q 31Q") == [fugue]

    def test_limit_stops_early(self, catalog):
        hits = search_catalog_incipits(catalog, "!G", limit=2)
        assert len(hits) == 2
        assert hits == search_catalog_incipits(catalog, "!G")[:2]

    def test_unknown_mode(self, catalog):
        with pytest.raises(BiblioError):
            search_catalog_incipits(catalog, "!G 21Q //", mode="psychic")

    def test_corpus_round_trip(self):
        """Verbatim search over the generated corpus matches brute force."""
        from repro.fixtures.corpus import load_catalog
        from repro.text import contains_match

        schema = Schema("corpus")
        entity = load_catalog(schema, 400, seed=11)
        schema.database.create_text_index(entity.table.name, "incipit")
        some_row = next(iter(entity.table))
        query = some_row.get("incipit")[3:12]  # mid-incipit fragment
        hits = search_catalog_incipits(entity, query)
        reference = sorted(
            row.rowid for row in entity.table
            if contains_match(row.get("incipit"), query)
        )
        assert hits == reference
        assert some_row.rowid in hits


class TestFormatting:
    def test_citation(self, small_index):
        assert format_citation(small_index, small_index.entry(3)) == "3 Third"

    def test_figure2_sections(self):
        index, entry = build_bwv_index()
        text = format_entry(index, entry)
        for heading in ("Besetzung", "EZ", "Takte", "Abschriften",
                        "Ausgaben", "Literatur"):
            assert heading in text
        assert text.splitlines()[0] == "578 Fuge g-moll"
        assert "Weimar" in text
