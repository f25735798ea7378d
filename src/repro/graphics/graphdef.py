"""Figure 10: graphical definitions as a middle schema layer.

Three application-specific relations join the meta-schema to drawing
code:

- ``GraphDef`` -- entities holding a PostScript drawing function;
- ``GDefUse`` -- relationship associating graphical definitions with
  (catalogued) entity types;
- ``GParmUse`` -- relationship identifying which catalogued attributes
  parameterize a function, each carrying the PostScript set-up fragment
  for that attribute.

:meth:`GraphicsCatalog.draw` runs the paper's four-step procedure:
find the instance, find its type's graphical definition via GDefUse,
push each parameter value and run its GParmUse set-up code, then
execute the definition.
"""

from repro.errors import SchemaError
from repro.graphics.postscript import execute_postscript

GRAPHDEF = "GraphDef"
GDEF_USE = "GDefUse"
GPARM_USE = "GParmUse"

#: The stem-drawing definition of the figure 10 walkthrough.
STEM_FUNCTION = """
newpath
xpos ypos moveto
0 length direction mul rlineto
1 setlinewidth
stroke
"""

_STEM_PARAMETERS = [
    ("xpos", "/xpos exch def"),
    ("ypos", "/ypos exch def"),
    ("length", "/length exch def"),
    ("direction", "/direction exch def"),
]

NOTEHEAD_FUNCTION = """
newpath
xpos ypos 3 0 360 arc
fill
"""

_NOTEHEAD_PARAMETERS = [
    ("xpos", "/xpos exch def"),
    ("ypos", "/ypos exch def"),
]

BEAM_FUNCTION = """
newpath
x1 y1 moveto
x2 y2 lineto
thickness setlinewidth
stroke
"""

_BEAM_PARAMETERS = [
    ("x1", "/x1 exch def"),
    ("y1", "/y1 exch def"),
    ("x2", "/x2 exch def"),
    ("y2", "/y2 exch def"),
    ("thickness", "/thickness exch def"),
]


class GraphicsCatalog:
    """The GraphDef layer over a schema's MetaCatalog."""

    def __init__(self, schema):
        self.schema = schema
        self.meta = schema.meta
        self._install()

    def _install(self):
        # A define identical to a stored one binds: safe on every open.
        schema = self.schema
        schema.define_entity(GRAPHDEF, [("name", "string"), ("function", "string")])
        schema.define_relationship(
            GDEF_USE, [("entity", "ENTITY"), ("graphdef", GRAPHDEF)]
        )
        schema.define_relationship(
            GPARM_USE,
            [("attribute", "ATTRIBUTE"), ("graphdef", GRAPHDEF)],
            [("setup", "string"), ("ordinal", "integer")],
        )

    @property
    def graphdef_table(self):
        return self.schema.entity_type(GRAPHDEF)

    # -- registration -------------------------------------------------------------

    def register(self, entity_name, function, parameters, name=None):
        """Associate drawing *function* with *entity_name*.

        *parameters* is an ordered list of ``(attribute_name, setup)``
        pairs; the attributes must be catalogued for the entity type.
        """
        entity_record = self.meta.entity_record(entity_name)
        graphdef = self.graphdef_table.create(
            name=name or ("draw_%s" % entity_name.lower()), function=function
        )
        self.schema.relationship(GDEF_USE).relate(
            entity=entity_record, graphdef=graphdef
        )
        catalogued = {
            a["attribute_name"]: a
            for a in self.meta.attributes_of_entity(entity_name)
        }
        for ordinal, (attribute_name, setup) in enumerate(parameters, start=1):
            if attribute_name not in catalogued:
                raise SchemaError(
                    "entity %r has no catalogued attribute %r"
                    % (entity_name, attribute_name)
                )
            self.schema.relationship(GPARM_USE).relate(
                _attributes={"setup": setup, "ordinal": ordinal},
                attribute=catalogued[attribute_name],
                graphdef=graphdef,
            )
        return graphdef

    def register_standard(self):
        """Register the built-in stem / notehead / beam definitions."""
        self.register("STEM", STEM_FUNCTION, _STEM_PARAMETERS)
        self.register("NOTEHEAD", NOTEHEAD_FUNCTION, _NOTEHEAD_PARAMETERS)
        self.register("BEAM", BEAM_FUNCTION, _BEAM_PARAMETERS)
        return self

    # -- the four-step drawing procedure -----------------------------------------------

    def definition_for(self, entity_name):
        """Step 2: the graphical definition for an entity type."""
        entity_record = self.meta.entity_record(entity_name)
        matches = self.schema.relationship(GDEF_USE).related(
            "entity", entity_record, fetch_role="graphdef"
        )
        if not matches:
            raise SchemaError("no graphical definition for %r" % entity_name)
        return matches[0]

    def parameters_for(self, graphdef):
        """The ordered (attribute name, setup code) parameters."""
        records = self.schema.relationship(GPARM_USE).related("graphdef", graphdef)
        records.sort(key=lambda r: r["ordinal"] or 0)
        return [
            (record["attribute"]["attribute_name"], record["setup"])
            for record in records
        ]

    def draw(self, instance):
        """Steps 1-4 for *instance*; returns the recorded DisplayList."""
        # Step 1: the instance is in hand (found in its relation).
        # Step 2: find the graphical definition via GDefUse.
        graphdef = self.definition_for(instance.type.name)
        # Step 3: for each parameter, get its value and run the set-up.
        bindings = {}
        for attribute_name, setup in self.parameters_for(graphdef):
            value = instance[attribute_name]
            state = execute_postscript(setup, bindings, stack=[value])
            bindings = state.bindings
        # Step 4: execute the graphical definition.
        return execute_postscript(graphdef["function"], bindings).display

    def draw_all(self, entity_type):
        """Draw every instance of *entity_type*; returns one DisplayList
        per instance (a page assembler would concatenate them)."""
        return [self.draw(instance) for instance in entity_type.instances()]

    def set_function(self, entity_name, function):
        """Clients "may freely modify such attributes as the printing
        function for a graphical object" (section 6.2)."""
        graphdef = self.definition_for(entity_name)
        graphdef.set(function=function)
        return graphdef
