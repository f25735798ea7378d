"""PostScript evaluation, graphical definitions, layout, rendering."""

from fractions import Fraction

import pytest

from repro.cmn.builder import ScoreBuilder
from repro.cmn.groups import beam
from repro.errors import SchemaError
from repro.graphics.graphdef import STEM_FUNCTION, GraphicsCatalog
from repro.graphics.layout import layout_voice, stem_for_chord
from repro.graphics.postscript import PostScriptError, execute_postscript
from repro.graphics.render import render_staff


class TestPostScript:
    def test_arithmetic_and_stack(self):
        state = execute_postscript("3 4 add 2 mul 1 sub")
        assert state.stack == [13]

    def test_dup_exch_pop(self):
        state = execute_postscript("1 2 exch dup pop")
        assert state.stack == [2, 1]

    def test_def_and_lookup(self):
        state = execute_postscript("/x 21 def x x add")
        assert state.stack == [42]

    def test_bindings_passed_in(self):
        state = execute_postscript("xpos 2 mul", bindings={"xpos": 10})
        assert state.stack == [20]

    def test_initial_stack(self):
        state = execute_postscript("/v exch def v", stack=[99])
        assert state.stack == [99]

    def test_path_recording(self):
        state = execute_postscript(
            "newpath 10 20 moveto 0 30 rlineto stroke"
        )
        ops = [op for op, _ in state.display]
        assert ops == ["newpath", "moveto", "lineto", "stroke"]
        assert state.display.bounding_box() == (10, 20, 10, 50)

    def test_arc_and_fill(self):
        state = execute_postscript("newpath 5 5 3 0 360 arc fill")
        assert state.display.bounding_box() == (2, 2, 8, 8)

    def test_comments_ignored(self):
        state = execute_postscript("1 % push one\n2 add")
        assert state.stack == [3]

    def test_division_by_zero(self):
        with pytest.raises(PostScriptError):
            execute_postscript("1 0 div")

    def test_stack_underflow(self):
        with pytest.raises(PostScriptError):
            execute_postscript("add")

    def test_unknown_operator(self):
        with pytest.raises(PostScriptError):
            execute_postscript("frobnicate")

    def test_lineto_without_point(self):
        with pytest.raises(PostScriptError):
            execute_postscript("newpath 1 2 lineto")

    def test_display_list_text(self):
        state = execute_postscript("newpath 1 2 moveto stroke")
        assert state.display.to_text() == "newpath\n1 2 moveto\nstroke"


@pytest.fixture
def scored():
    builder = ScoreBuilder("gfx", meter="4/4")
    voice = builder.add_voice("melody")
    c1 = builder.note(voice, "G4", Fraction(1, 8))
    c2 = builder.note(voice, "A4", Fraction(1, 8))
    builder.note(voice, ["C5", "E5"], Fraction(1, 4), stem="D")
    builder.note(voice, "E4", Fraction(1, 2))
    beam(builder.cmn, voice, [c1, c2])
    builder.finish(derive=False)
    catalog = GraphicsCatalog(builder.cmn.schema)
    catalog.register_standard()
    return builder, voice, catalog


class TestGraphDefs:
    def test_standard_definitions_registered(self, scored):
        _, _, catalog = scored
        for name in ("STEM", "NOTEHEAD", "BEAM"):
            assert catalog.definition_for(name) is not None

    def test_missing_definition(self, scored):
        _, _, catalog = scored
        with pytest.raises(SchemaError):
            catalog.definition_for("SCORE")

    def test_parameters_ordered(self, scored):
        _, _, catalog = scored
        graphdef = catalog.definition_for("STEM")
        names = [name for name, _ in catalog.parameters_for(graphdef)]
        assert names == ["xpos", "ypos", "length", "direction"]

    def test_register_unknown_attribute(self, scored):
        builder, _, catalog = scored
        with pytest.raises(SchemaError):
            catalog.register("STEM", "x", [("no_such_attr", "pop")],
                             name="bad")

    def test_four_step_draw(self, scored):
        builder, voice, catalog = scored
        art = layout_voice(builder.cmn, builder.score, voice)
        display = catalog.draw(art["stems"][0])
        ops = [op for op, _ in display]
        assert "moveto" in ops and "lineto" in ops and "stroke" in ops
        # The catalog's indirection draws what the function run directly
        # over the stem's attributes draws.
        stem = art["stems"][0]
        direct = execute_postscript(STEM_FUNCTION, {
            name: stem[name] for name in ("xpos", "ypos", "length", "direction")
        })
        assert list(direct.display) == list(display)

    def test_draw_all(self, scored):
        builder, voice, catalog = scored
        layout_voice(builder.cmn, builder.score, voice)
        displays = catalog.draw_all(builder.cmn.STEM)
        assert len(displays) == 4

    def test_set_function_changes_drawing(self, scored):
        builder, voice, catalog = scored
        art = layout_voice(builder.cmn, builder.score, voice)
        graphdef = catalog.definition_for("STEM")
        catalog.set_function(
            "STEM", graphdef["function"].replace("1 setlinewidth",
                                                 "3 setlinewidth")
        )
        display = catalog.draw(art["stems"][0])
        widths = [args[0] for op, args in display if op == "setlinewidth"]
        assert widths == [3]


class TestLayout:
    def test_stem_direction_rule(self, scored):
        builder, voice, _ = scored
        art = layout_voice(builder.cmn, builder.score, voice)
        stems = art["stems"]
        # G4/A4 (below middle line): stems up; E4 likewise; chord forced D.
        directions = [s["direction"] for s in stems]
        assert directions[0] == 1
        assert directions[2] == -1  # explicit "D" honoured

    def test_explicit_direction_override(self, scored):
        builder, voice, _ = scored
        view = builder.view
        stream = [i for i in view.voice_stream(voice) if i.type.name == "CHORD"]
        stem = stem_for_chord(builder.cmn, stream[2], view)
        assert stem["direction"] == -1

    def test_noteheads_per_note(self, scored):
        builder, voice, _ = scored
        art = layout_voice(builder.cmn, builder.score, voice)
        assert len(art["noteheads"]) == 5  # 1+1+2+1 notes

    def test_beam_spans_group(self, scored):
        builder, voice, _ = scored
        art = layout_voice(builder.cmn, builder.score, voice)
        (beam_entity,) = art["beams"]
        assert beam_entity["x2"] > beam_entity["x1"]

    def test_x_advances_with_time(self, scored):
        builder, voice, _ = scored
        art = layout_voice(builder.cmn, builder.score, voice)
        xs = [s["xpos"] for s in art["stems"]]
        assert xs == sorted(xs)
        assert len(set(xs)) == len(xs)


class TestStaffRender:
    def test_contains_note_letters(self, scored):
        builder, voice, _ = scored
        text = render_staff(builder.cmn, builder.score, voice)
        assert "G" in text and "A" in text and "E" in text

    def test_barlines_present(self, bwv578):
        text = render_staff(bwv578.cmn, bwv578.score, bwv578.voice("soprano"))
        assert "|" in text

    def test_altered_notes_lowercase(self, bwv578):
        text = render_staff(bwv578.cmn, bwv578.score, bwv578.voice("soprano"))
        assert "b" in text  # the Bb of the subject
