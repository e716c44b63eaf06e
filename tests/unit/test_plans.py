"""Unit tests for the physical plan model (costs, rendering, signatures)."""

import pytest

from repro.algebra.operators import RefSource
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    RefAttr,
    SelfOid,
)
from repro.catalog.catalog import IndexDef
from repro.optimizer.cost import Cost
from repro.optimizer.physical_props import PhysProps, SortKey
from repro.optimizer.plans import (
    AssemblyNode,
    FileScanNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    SortNode,
    plan_algorithms,
    plan_signature,
)


@pytest.fixture()
def plan():
    scan = FileScanNode(
        "Cities",
        "c",
        delivered=PhysProps.of("c"),
        rows=10_000,
        local_cost=Cost(1.0, 0.5),
    )
    assembly = AssemblyNode(
        RefSource("c", "mayor"),
        "c.mayor",
        window=8,
        children=(scan,),
        delivered=PhysProps.of("c", "c.mayor"),
        rows=10_000,
        local_cost=Cost(68.0, 0.5),
    )
    return FilterNode(
        Conjunction.of(
            Comparison(FieldRef("c.mayor", "name"), CompOp.EQ, Const("Joe"))
        ),
        children=(assembly,),
        delivered=PhysProps.of("c", "c.mayor"),
        rows=2,
        local_cost=Cost(0.0, 0.5),
    )


class TestCostAggregation:
    def test_total_cost_sums_subtree(self, plan):
        assert plan.total_cost.total == pytest.approx(70.5)
        assert plan.total_cost.io_seconds == pytest.approx(69.0)

    def test_leaf_total_equals_local(self, plan):
        leaf = plan.children[0].children[0]
        assert leaf.total_cost == leaf.local_cost


class TestRendering:
    def test_paper_style_lines(self, plan):
        text = plan.pretty()
        lines = text.splitlines()
        assert lines[0].startswith("Filter 'Joe' == c.mayor.name")
        assert lines[1].strip() == "Assembly c.mayor"
        assert lines[2].strip() == "File Scan Cities: c"

    def test_costs_annotation(self, plan):
        text = plan.pretty(costs=True)
        assert "~2 rows" in text
        assert "total 70.500s" in text

    def test_props_annotation(self, plan):
        text = plan.pretty(props=True)
        assert "<delivers {c, c.mayor}>" in text

    def test_enforcer_marker(self):
        node = AssemblyNode(
            RefSource("c", "mayor"), "c.mayor", window=8, enforcer=True
        )
        assert "(enforcer)" in node.describe()

    def test_named_mat_rendering(self):
        node = AssemblyNode(RefSource("m_ref", None), "m", window=8)
        assert node.describe() == "Assembly m_ref: m"

    def test_index_scan_residual_rendering(self):
        node = IndexScanNode(
            "Cities",
            "c",
            IndexDef("ix", "Cities", ("mayor", "name"), 10),
            Comparison(FieldRef("c.mayor", "name"), CompOp.EQ, Const("Joe")),
            Conjunction.of(
                Comparison(FieldRef("c", "population"), CompOp.GT, Const(5))
            ),
        )
        text = node.describe()
        assert "Index Scan Cities" in text
        assert "residual" in text

    def test_sort_node_rendering(self):
        node = SortNode(delivered=PhysProps.of(order=SortKey("c", "name", False)))
        assert node.describe() == "Sort by c.name desc"


class TestIntrospection:
    def test_walk_preorder(self, plan):
        assert plan_algorithms(plan) == ["Filter", "Assembly", "FileScan"]

    def test_signature_ignores_parameters(self, plan):
        other = FilterNode(
            Conjunction.of(
                Comparison(FieldRef("c.mayor", "name"), CompOp.EQ, Const("Sue"))
            ),
            children=plan.children,
            delivered=plan.delivered,
            rows=5,
            local_cost=Cost(),
        )
        assert plan_signature(plan) == plan_signature(other)

    def test_signature_distinguishes_shape(self, plan):
        join = HashJoinNode(
            Conjunction.of(
                Comparison(RefAttr("c", "mayor"), CompOp.EQ, SelfOid("p"))
            ),
            children=(plan.children[0], plan.children[0]),
        )
        assert plan_signature(join) != plan_signature(plan)

    def test_algorithm_name(self, plan):
        assert plan.algorithm == "Filter"
        assert plan.children[0].algorithm == "Assembly"


def _recursive_total(node):
    """``total_cost`` as it was defined before it was computed once: the
    same left-to-right float additions, redone from the local costs."""
    cost = node.local_cost
    for child in node.children:
        cost = cost + _recursive_total(child)
    return cost


class TestTotalCostComputedOnce:
    def test_summed_at_construction_into_a_slot(self, plan):
        assert plan.total_cost is plan.total_cost
        assert repr(plan.total_cost) == repr(_recursive_total(plan))
        assert not hasattr(plan, "__dict__")

    def test_not_a_field_so_replace_recomputes_it(self, plan):
        import dataclasses

        assert "total_cost" not in {f.name for f in dataclasses.fields(plan)}
        dearer = dataclasses.replace(plan, local_cost=Cost(10.0, 0.5))
        assert dearer.total_cost.total == pytest.approx(80.5)
        assert plan.total_cost.total == pytest.approx(70.5)

    def test_pickle_and_deepcopy_round_trip(self, plan):
        import copy
        import pickle

        for clone in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
            assert clone == plan
            assert repr(clone.total_cost) == repr(plan.total_cost)

    def test_bit_equal_on_every_golden_plan(self, paper_catalog):
        from repro.lang.parser import parse_query
        from repro.optimizer import Optimizer
        from repro.simplify.simplifier import simplify_full

        from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4

        for sql in (QUERY_1, QUERY_2, QUERY_3, QUERY_4):
            simplified = simplify_full(parse_query(sql), paper_catalog)
            result = Optimizer(paper_catalog).optimize(
                simplified.tree,
                result_vars=simplified.result_vars,
                order=simplified.order,
            )
            for node in result.plan.walk():
                assert repr(node.total_cost) == repr(_recursive_total(node))
            assert result.cost is result.plan.total_cost

    def test_a_cache_hit_runs_the_cached_plan_object_itself(self):
        """A plan-cache hit allocates no plan node: the cached template,
        subtree costs included, is the hit's plan; only the constants
        shown and computed with are the statement's own."""
        from repro.api import Database

        db = Database.sample(scale=0.02)
        db.create_index("ix_mayor", "Cities", ("mayor", "name"))
        text = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "%s"'
        miss, hit = db.query(text % "Joe"), db.query(text % "Fred")
        assert (miss.cache.outcome, hit.cache.outcome) == ("miss", "hit")
        assert hit.plan is miss.plan and hit.optimization is miss.optimization
        assert (miss.consts, hit.consts) == (("Joe",), ("Fred",))
        assert "'Fred' == c.mayor.name" in hit.explain()
        assert "Fred" not in miss.explain() and "'Joe'" in miss.explain()
        (scan,) = [n for n in hit.plan.walk() if isinstance(n, IndexScanNode)]
        assert scan.comparison.left.slot == 0
        for node in hit.plan.walk():
            assert repr(node.total_cost) == repr(_recursive_total(node))
