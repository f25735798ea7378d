#!/usr/bin/env python
"""Quickstart: the Music Data Manager in five minutes.

Defines the paper's example schema through the DDL, stores data,
runs QUEL queries -- including the entity operators ``is``, ``before``,
``after``, ``under`` -- shows the instance-graph view of a chord, and
reopens the database to ask the meta-database what it holds.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro import MusicDataManager, InstanceGraph


def main():
    directory = tempfile.TemporaryDirectory()
    path = os.path.join(directory.name, "mdm")
    mdm = MusicDataManager(path)

    # 1. Define a schema (section 5.1/5.4 of the paper).
    mdm.execute(
        """
        define entity DATE (day = integer, month = integer, year = integer)
        define entity WORK (title = string, written = DATE)
        define entity AUTHOR (name = string)
        define relationship WROTE (author = AUTHOR, work = WORK)
        """
    )

    # 2. Store instances through the object API...
    date = mdm.schema.entity_type("DATE").create(day=3, month=9, year=1814)
    anthem = mdm.schema.entity_type("WORK").create(
        title="The Star Spangled Banner", written=date
    )
    smith = mdm.schema.entity_type("AUTHOR").create(name="John Stafford Smith")
    mdm.schema.relationship("WROTE").relate(author=smith, work=anthem)

    # ...or through QUEL.
    mdm.execute('append to AUTHOR (name = "Johann Sebastian Bach")')

    # 3. Query with the entity-equivalence operator (section 5.6).
    rows = mdm.retrieve(
        """
        retrieve (AUTHOR.name)
            where WORK.title = "The Star Spangled Banner"
            and WROTE.work is WORK
            and WROTE.author is AUTHOR
        """
    )
    print("Who wrote the anthem?  ->", rows)

    # 4. Hierarchical ordering: the paper's core extension.
    #    A four-note chord, with ordering operators in QUEL.
    cmn = mdm.cmn
    chord = cmn.CHORD.create(duration=None)
    for index, degree in enumerate((8, 6, 4, 2), start=1):
        note = cmn.NOTE.create(degree=degree, tied_to_next=False)
        cmn.note_in_chord.append(chord, note)
    third = cmn.note_in_chord.child_at(chord, 3)
    print("The third note in the chord sits on degree", third["degree"])

    rows = mdm.retrieve(
        """
        range of n1, n2 is NOTE
        retrieve (n1.degree)
            where n1 before n2 in note_in_chord and n2.degree = 4
            sort by n1.degree descending
        """
    )
    print("Notes before the degree-4 note:", [r["n1.degree"] for r in rows])

    # 5. The instance graph (figure 6).
    graph = InstanceGraph.from_ordering(cmn.note_in_chord)
    print("\nInstance graph of the chord:")
    print(graph.to_ascii())

    # 6. Schema-as-data: the section 6 meta-catalog.
    attributes = mdm.meta.attributes_of_entity("WORK")
    print(
        "\nWORK as catalogued in the meta-database:",
        ", ".join(
            "%s=%s" % (a["attribute_name"], a["attribute_type"])
            for a in attributes
        ),
    )
    print("\nSchema statistics:", mdm.statistics())

    # 7. The schema is stored data: each define above wrote its meta
    #    rows through the log, so a reopened database knows WORK and
    #    WROTE without being told again.
    mdm.close()
    mdm = MusicDataManager.reopen(path)
    rows = mdm.retrieve("range of e is ENTITY retrieve (e.entity_name)")
    print("\nEntity types after a reopen:", [r["e.entity_name"] for r in rows])
    mdm.close()
    directory.cleanup()


if __name__ == "__main__":
    main()
