"""Planner sweep: one test per plan shape, asserting the label that
``explain`` exposes (``QueryPlan.label`` is the access paths in binding
order), plus unit coverage of the QueryPlan/PlanStep structures."""

from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from repro.core.schema import Schema
from repro.quel import planner
from repro.quel.executor import QuelSession
from tests.quel.reference import reference_execute


@pytest.fixture
def session():
    schema = Schema("plans")
    schema.define_entity("CHORD", [("n", "integer")])
    schema.define_entity("NOTE", [("n", "integer"), ("pitch", "integer")])
    ordering = schema.define_ordering("o", ["NOTE"], under="CHORD")
    chord = schema.entity_type("CHORD").create(n=0)
    for i in range(10):
        note = schema.entity_type("NOTE").create(n=i, pitch=60 + i)
        ordering.append(chord, note)
    quel = QuelSession(schema)
    quel.execute("range of n is NOTE")
    quel.execute("range of c is CHORD")
    return quel


class TestPlanShapes:
    def test_indexed_equality_is_index(self, session):
        rows = session.execute("retrieve (n.pitch) where n.n = 5")
        assert len(rows) == 1
        assert session.last_plan_object.label == "index"

    def test_unqualified_retrieve_is_scan(self, session):
        session.execute("retrieve (n.n)")
        assert session.last_plan_object.label == "scan"

    def test_inequality_cannot_use_the_index(self, session):
        session.execute("retrieve (n.n) where n.pitch > 64")
        assert session.last_plan_object.label == "scan"

    def test_unknown_attribute_restriction_is_filtered_scan(self, session):
        rows = session.execute("retrieve (n.n) where n.loudness = 1")
        assert rows == []
        assert session.last_plan_object.label == "filtered scan"

    def test_join_binds_indexed_variable_first(self, session):
        session.execute("range of a, b is NOTE")
        session.execute(
            "retrieve (a.n) where a.pitch = b.pitch and b.n = 5"
        )
        plan = session.last_plan_object
        assert plan.label == "index+scan"
        assert [step.variable for step in plan.steps] == ["b", "a"]

    def test_under_query_is_index_plus_order_range(self, session):
        # The bound parent drives a (parent, order_key) range scan for n
        # instead of testing every (n, c) pair.
        source = "retrieve (n.n) where n under c in o and c.n = 0"
        rows = session.execute(source)
        assert session.last_plan_object.label == "index+order range"
        # The reference checks every (n, c) pair and must agree.
        expected = reference_execute(
            session.schema,
            "range of n is NOTE\nrange of c is CHORD\n" + source,
        )
        assert len(rows) == 10
        assert sorted(r["n.n"] for r in rows) == sorted(
            r["n.n"] for r in expected
        )

    # The order-conjunct shapes: (qualification, label locked, label
    # under a pinned snapshot).  A walk is a walk in both columns; only
    # a variable no index applies to is relabelled.
    ORDER_SHAPES = [
        ("n under c in o and c.n = 0",
         "index+order range", "index+order range"),
        ("a before b in o and b.n = 5",
         "index+order range", "index+order range"),
        ("a after b in o and b.n = 5",
         "index+order range", "index+order range"),
        ("a before b in o and b under c in o and c.n = 0",
         "index+order range+order range", "index+order range+order range"),
        # No side is restricted: the scan drives, the walk enumerates.
        ("n under c in o", "scan+order range", "snapshot scan+order range"),
        # Each side waits for the other: nothing can drive, both bind
        # statically and the conjuncts are checked per row.
        ("a before b in o and b before a in o",
         "scan+scan", "snapshot scan+snapshot scan"),
    ]

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("where, locked_label, pinned_label", ORDER_SHAPES)
    def test_order_conjunct_shapes(
        self, session, where, locked_label, pinned_label, pinned
    ):
        session.execute("range of a, b is NOTE")
        key = "n.n" if where.startswith("n ") else "a.n"
        source = "retrieve (%s) where %s" % (key, where)
        with session.schema.database.snapshot() if pinned else nullcontext():
            rows = session.execute(source)
            assert session.last_plan_object.label == (
                pinned_label if pinned else locked_label
            )
            expected = reference_execute(
                session.schema,
                "range of n, a, b is NOTE\nrange of c is CHORD\n" + source,
            )
        assert sorted(r[key] for r in rows) == sorted(r[key] for r in expected)

    def test_constant_query_has_no_steps(self, session):
        session.execute("retrieve (x = 1 + 2)")
        plan = session.last_plan_object
        assert plan.label == "constant"
        assert plan.steps == []
        assert plan.rows() == [{"plan": "constant (no range variables)"}]

    def test_last_plan_string_preserves_legacy_shape(self, session):
        session.execute("retrieve (n.pitch) where n.n = 5")
        text = session.last_plan
        assert text.startswith("plan:")
        assert "bind n via index (1 candidates)" in text


class TestPlanStructures:
    def test_step_describe(self):
        step = planner.PlanStep("n", "index", 3)
        assert step.describe() == "bind n via index (3 candidates)"
        assert "bind n via index" in repr(step)

    def test_render_is_memoized(self):
        plan = planner.QueryPlan([planner.PlanStep("n", "scan", 2)])
        assert plan.render() is plan.render()
        assert plan.render() == "plan:\n  bind n via scan (2 candidates)"

    def test_rows_shape(self):
        plan = planner.QueryPlan(
            [planner.PlanStep("a", "index", 1), planner.PlanStep("b", "scan", 4)]
        )
        assert plan.rows() == [
            {"plan": "bind a via index (1 candidates)"},
            {"plan": "bind b via scan (4 candidates)"},
        ]
        assert plan.label == "index+scan"
        assert repr(plan) == "QueryPlan(index+scan)"

    def test_order_variables_smallest_candidates_first(self):
        sources = {"a": SimpleNamespace(count=10), "b": SimpleNamespace(count=1)}
        order = planner.order_variables(["a", "b"], sources, [])
        assert order == ["b", "a"]
