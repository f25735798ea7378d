"""PostScript page assembly."""

import pytest

from repro.graphics.graphdef import GraphicsCatalog
from repro.graphics.page import assemble_page, write_page


@pytest.fixture
def catalogued(bwv578):
    catalog = GraphicsCatalog(bwv578.cmn.schema)
    catalog.register_standard()
    return bwv578, catalog


class TestPageAssembly:
    def test_document_structure(self, catalogued):
        builder, catalog = catalogued
        text = assemble_page(builder.cmn, builder.score, catalog)
        assert text.startswith("%!PS-Adobe-3.0")
        assert text.rstrip().endswith("%%EOF")
        assert "%%Page: 1 1" in text
        assert "showpage" in text
        assert "Fuge g-moll" in text

    def test_one_staff_per_voice(self, catalogued):
        builder, catalog = catalogued
        text = assemble_page(builder.cmn, builder.score, catalog)
        assert text.count("% staff") == 2
        # Five lines per staff, each stroked.
        staff_line_strokes = text.count("0.6 setlinewidth")
        assert staff_line_strokes == 2

    def test_noteheads_drawn(self, catalogued):
        builder, catalog = catalogued
        text = assemble_page(builder.cmn, builder.score, catalog)
        notes = builder.view.counts()["notes"]
        assert text.count(" arc") == notes
        assert text.count("fill") == notes

    def test_write_page(self, catalogued, tmp_path):
        builder, catalog = catalogued
        path = str(tmp_path / "score.ps")
        text = write_page(builder.cmn, builder.score, catalog, path)
        with open(path) as handle:
            assert handle.read() == text

    def test_coordinates_within_page(self, catalogued):
        builder, catalog = catalogued
        text = assemble_page(builder.cmn, builder.score, catalog)
        for line in text.splitlines():
            if line.endswith(("moveto", "lineto")):
                x, y = map(float, line.split()[:2])
                assert y <= 792 and y >= 0
