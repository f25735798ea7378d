#!/usr/bin/env python
"""The typesetting pipeline: DARMS in, PostScript out.

Parses the figure 4 "Gloria" fragment from user DARMS, canonizes it,
stores it as CMN entities, renders the staff as text, lays out stems /
noteheads / beams, and draws them through the figure 10 GraphDef
machinery -- including the paper's trick of editing the stored drawing
function at run time.

Run:  python examples/darms_typesetting.py
"""

from repro.darms.canonical import canonize
from repro.darms.encode import score_to_darms
from repro.fixtures.gloria import GLORIA_USER_DARMS, build_gloria_score
from repro.graphics.graphdef import GraphicsCatalog
from repro.graphics.layout import layout_voice
from repro.graphics.render import render_staff


def main():
    print("User DARMS (as keyed in, durations carried):")
    print(" ", GLORIA_USER_DARMS)
    print("\nCanonical DARMS (output of the canonizer):")
    print(" ", canonize(GLORIA_USER_DARMS))

    builder, score = build_gloria_score()
    voice = builder.voices()[0]
    print("\nDecoded into the MDM:", builder.view.counts())

    print("\nStaff rendering:")
    print(render_staff(builder.cmn, score, voice))

    # Typesetting through the graphical-definitions layer (figure 10).
    catalog = GraphicsCatalog(builder.cmn.schema)
    catalog.register_standard()
    art = layout_voice(builder.cmn, score, voice)
    print(
        "\nLaid out %d stems, %d noteheads, %d beams"
        % (len(art["stems"]), len(art["noteheads"]), len(art["beams"]))
    )

    stem = art["stems"][0]
    print("\nThe four-step drawing of the first stem (display list):")
    print(catalog.draw(stem).to_text())

    # "The client program may freely modify such attributes as the
    # printing function for a graphical object."
    graphdef = catalog.definition_for("STEM")
    catalog.set_function(
        "STEM", graphdef["function"].replace("1 setlinewidth", "2 setlinewidth")
    )
    print("\nAfter editing the stored PostScript (bolder stems):")
    print(catalog.draw(stem).to_text())

    # A full PostScript page, written next to the other artifacts.
    import os

    from repro.graphics.page import write_page

    out_dir = os.path.join(os.path.dirname(__file__), "..", "results")
    os.makedirs(out_dir, exist_ok=True)
    ps_path = os.path.join(out_dir, "gloria.ps")
    write_page(builder.cmn, score, catalog, ps_path)
    print("\nWrote a typeset PostScript page:", os.path.abspath(ps_path))

    # Round trip back out of the database.
    print("\nRe-encoded from the stored score:")
    print(" ", score_to_darms(builder.cmn, score))


if __name__ == "__main__":
    main()
