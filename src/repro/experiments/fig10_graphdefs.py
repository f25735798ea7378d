"""Figure 10: the schema for graphical definitions.

GraphDef / GParmUse / GDefUse over the meta-schema, and the four-step
procedure for drawing a stem instance:

  (1) find the stem instance in the STEM relation;
  (2) find the graphical definition for the STEM entity type via
      GDefUse;
  (3) for each parameter (via GParmUse) get its value from the stem
      relation and execute the set-up code;
  (4) execute the graphical definition.

We run the procedure on a real STEM generated by laying out a score,
then demonstrate the section 6.2 punchline: the client modifies the
printing function *in the database* and drawing changes accordingly.
"""

from fractions import Fraction

from repro.cmn.builder import ScoreBuilder
from repro.experiments.registry import ExperimentResult
from repro.graphics.graphdef import GraphicsCatalog
from repro.graphics.layout import layout_voice


def run():
    builder = ScoreBuilder("fig10")
    voice = builder.add_voice("melody")
    builder.note(voice, "G4", Fraction(1, 4))
    builder.note(voice, "B4", Fraction(1, 4), stem="D")
    builder.note(voice, "D5", Fraction(1, 2))
    builder.finish()

    catalog = GraphicsCatalog(builder.cmn.schema)
    catalog.register_standard()

    art = layout_voice(builder.cmn, builder.score, voice)
    stem = art["stems"][0]

    graphdef = catalog.definition_for("STEM")
    parameters = catalog.parameters_for(graphdef)
    display = catalog.draw(stem)

    artifact_lines = [
        "STEM entity: xpos=%d ypos=%d length=%d direction=%d"
        % (stem["xpos"], stem["ypos"], stem["length"], stem["direction"]),
        "",
        "GDefUse: STEM -> %s" % graphdef["name"],
        "GParmUse set-up code:",
    ]
    for attribute_name, setup in parameters:
        artifact_lines.append("  %-10s %s" % (attribute_name, setup))
    artifact_lines.append("")
    artifact_lines.append("Executed graphical definition (display list):")
    artifact_lines.append(display.to_text())

    # Clients "may freely modify such attributes as the printing
    # function": double the stem weight by editing the stored function.
    catalog.set_function("STEM", graphdef["function"].replace(
        "1 setlinewidth", "2 setlinewidth"
    ))
    redrawn = catalog.draw(stem)
    widths = [args[0] for op, args in redrawn if op == "setlinewidth"]
    artifact_lines.append("")
    artifact_lines.append(
        "After modifying the stored function: setlinewidth %s" % widths
    )

    box = display.bounding_box()
    expected_top = stem["ypos"] + stem["length"] * stem["direction"]
    return ExperimentResult(
        "fig10",
        "Schema for graphical definitions",
        "\n".join(artifact_lines),
        data={
            "parameters": [name for name, _ in parameters],
            "display_ops": [op for op, _ in display],
            "bounding_box": box,
        },
        checks={
            "four_parameters": [name for name, _ in parameters]
            == ["xpos", "ypos", "length", "direction"],
            "draw_produces_stroke": any(op == "stroke" for op, _ in display),
            "stem_geometry": box is not None
            and (expected_top in (box[1], box[3])),
            "function_modifiable": widths == [2],
        },
    )
