"""Figure 9: the HO graph for the meta-schema.

Section 6.1 stores the schema itself as ordered entities: ENTITY,
RELATIONSHIP, ATTRIBUTE, ORDERING; ATTRIBUTE ordered under ENTITY and
under RELATIONSHIP; order_child relating child entities to orderings;
the ordering's parent held as an entity-valued attribute (the implicit
"1 to n").  Every define wrote its rows as it ran; we regenerate the
graph from them and prove completeness: the catalogued representation
reconstructs a working schema whose DDL matches the original.
"""

from repro.core.hograph import HOGraph
from repro.core.schema import Schema
from repro.ddl.compiler import execute_ddl
from repro.experiments.registry import ExperimentResult

_DDL = """
define entity CHORD (name = integer)
define entity NOTE (name = integer, pitch = string)
define entity MEASURE (number = integer)
define ordering note_in_chord (NOTE) under CHORD
define ordering chord_in_measure (CHORD) under MEASURE
"""


def run():
    schema = execute_ddl(_DDL, Schema("fig09"))
    original_ddl = schema.ddl()
    catalog = schema.meta

    ho = HOGraph(schema, ["entity_attributes", "relationship_attributes"])
    artifact_lines = [
        "Meta-schema orderings:",
        ho.to_ascii(),
        "",
        "order_child relationship: child ENTITY <-n:n-> ORDERING",
        "ORDERING.order_parent -> ENTITY (1 to n, implicit attribute)",
        "",
        "Catalog contents (schema stored as data):",
    ]
    for name in catalog.catalogued_entities():
        attributes = [
            "%s = %s" % (a["attribute_name"], a["attribute_type"])
            for a in catalog.attributes_of_entity(name)
        ]
        artifact_lines.append("  ENTITY %-14s (%s)" % (name, ", ".join(attributes)))
    for order_name in catalog.catalogued_orderings():
        parent = catalog.parent_of_ordering(order_name)
        children = [
            c["entity_name"] for c in catalog.children_of_ordering(order_name)
        ]
        artifact_lines.append(
            "  ORDERING %-18s (%s) under %s"
            % (order_name, ", ".join(children), parent["entity_name"])
        )

    # The blur: the meta types catalogue themselves.
    self_catalogued = "ENTITY" in catalog.catalogued_entities()

    rebuilt = catalog.reconstruct("fig09-rebuilt")
    round_trip = rebuilt.ddl() == original_ddl

    return ExperimentResult(
        "fig09",
        "HO graph for the meta-schema",
        "\n".join(artifact_lines),
        data={
            "catalogued_entities": catalog.catalogued_entities(),
            "catalogued_orderings": catalog.catalogued_orderings(),
        },
        checks={
            "attribute_under_entity": any(
                name == "entity_attributes"
                for name, _, _ in [
                    (o.name, o.child_types, o.parent_type)
                    for o in ho.orderings
                ]
            ),
            "meta_types_self_catalogued": self_catalogued,
            "note_attributes_ordered": [
                a["attribute_name"] for a in catalog.attributes_of_entity("NOTE")
            ] == ["name", "pitch"],
            "reconstruction_round_trip": round_trip,
        },
        notes="reconstruct() rebuilds the meta types from their own rows "
              "too; ddl() leaves them out, as every schema starts with them.",
    )
