"""Integration tests: the paper's Queries 1-4 produce the figures' plans.

These run against the full-scale *catalog* (statistics only — plan choice
does not need data) with the paper's indexes, checking the structural
claims of Figures 6-13 and the cost relationships behind Tables 2-3.
"""

import pytest

from repro.lang.parser import parse_query
from repro.obs.tracer import Tracer, search_states
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer import config as C
from repro.optimizer.plans import (
    AlgProjectNode,
    AssemblyNode,
    FileScanNode,
    FilterNode,
    IndexScanNode,
    PhysicalNode,
    PointerJoinNode,
)
from repro.simplify.simplifier import simplify_full

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4


def _optimize(catalog, sql, config=None, tracer=None):
    sq = simplify_full(parse_query(sql), catalog)
    optimizer = Optimizer(catalog, config or OptimizerConfig())
    return optimizer.optimize(sq.tree, result_vars=sq.result_vars, tracer=tracer)


def _algorithms(plan: PhysicalNode) -> list[str]:
    return [node.algorithm for node in plan.walk()]


class TestQuery1:
    """Figure 6: Mats become hash joins; plants assembled per department."""

    def test_optimal_plan_shape(self, paper_catalog):
        result = _optimize(paper_catalog, QUERY_1)
        algos = _algorithms(result.plan)
        assert algos.count("HashJoin") == 2  # department and job joins
        assert "Assembly" in algos or "PointerJoin" in algos
        # Dallas filter runs over departments (1,000), not employees (50,000).
        filter_node = next(
            n for n in result.plan.walk() if isinstance(n, FilterNode)
        )
        assert filter_node.children[0].rows <= 1_000

    def test_assembly_feeds_from_department_extent(self, paper_catalog):
        """The plant is assembled once per department — the figure's point
        that a 'natural' per-employee assembly would be disastrous."""
        result = _optimize(paper_catalog, QUERY_1)
        resolver = next(
            n
            for n in result.plan.walk()
            if isinstance(n, (AssemblyNode, PointerJoinNode))
        )
        assert resolver.rows <= 1_000

    def test_links_traversed_against_pointer_direction(self, paper_catalog):
        """Employee->Department and Employee->Job links are resolved by
        scanning the *referenced* extents — the reverse direction."""
        result = _optimize(paper_catalog, QUERY_1)
        scans = {
            n.collection
            for n in result.plan.walk()
            if isinstance(n, (FileScanNode, IndexScanNode))
        }
        assert "extent(Department)" in scans
        assert "extent(Job)" in scans
        assert "Employees" in scans

    def test_project_on_top(self, paper_catalog):
        result = _optimize(paper_catalog, QUERY_1)
        assert isinstance(result.plan, AlgProjectNode)


class TestQuery2:
    """Figures 8-9: collapse-to-index-scan answers from the path index."""

    def test_optimal_is_single_index_scan(self, paper_catalog):
        result = _optimize(paper_catalog, QUERY_2)
        assert isinstance(result.plan, IndexScanNode)
        assert result.plan.index.name == "ix_cities_mayor_name"
        # Mayors are never fetched.
        assert result.plan.delivered.in_memory == {"c"}

    def test_estimates_two_cities(self, paper_catalog):
        result = _optimize(paper_catalog, QUERY_2)
        assert result.plan.rows == pytest.approx(2.0)

    def test_without_index_no_collapse(self, paper_catalog_plain):
        result = _optimize(paper_catalog_plain, QUERY_2)
        assert not isinstance(result.plan, IndexScanNode)


class TestQuery3:
    """Figures 10-11: physical properties drive goal-directed search."""

    def test_enforcer_tops_index_scan(self, paper_catalog):
        result = _optimize(paper_catalog, QUERY_3)
        assert isinstance(result.plan, AlgProjectNode)
        assembly = result.plan.children[0]
        assert isinstance(assembly, AssemblyNode)
        assert assembly.enforcer
        assert assembly.out == "c.mayor"
        assert isinstance(assembly.children[0], IndexScanNode)

    def test_only_qualifying_mayors_assembled(self, paper_catalog):
        result = _optimize(paper_catalog, QUERY_3)
        assembly = result.plan.children[0]
        assert assembly.children[0].rows == pytest.approx(2.0)

    def test_three_orders_of_magnitude_vs_no_enforcer(self, paper_catalog):
        """Without enforcers the search falls back to assembling every
        mayor: the paper reports 0.12 s vs 119.6 s."""
        optimal = _optimize(paper_catalog, QUERY_3)
        crippled = _optimize(
            paper_catalog,
            QUERY_3,
            OptimizerConfig().without(
                C.ASSEMBLY_ENFORCER, C.COLLAPSE_TO_INDEX_SCAN, C.POINTER_JOIN
            ),
        )
        assert crippled.cost.total > 100 * optimal.cost.total


class TestQuery4:
    """Figures 12-13 / Table 3: cost-based beats greedy index use."""

    def test_optimal_uses_only_time_index(self, paper_catalog):
        result = _optimize(paper_catalog, QUERY_4)
        index_scans = [
            n for n in result.plan.walk() if isinstance(n, IndexScanNode)
        ]
        assert [s.index.name for s in index_scans] == ["ix_tasks_time"]

    def test_optimal_shape(self, paper_catalog):
        """Filter(name) over reference resolution over unnest over the
        time-index scan — Figure 12 (assembly or pointer-join both realize
        the Mat)."""
        result = _optimize(paper_catalog, QUERY_4)
        algos = _algorithms(result.plan)
        assert algos[0] == "Filter"
        assert algos[-1] == "IndexScan"
        assert "AlgUnnest" in algos
        assert ("Assembly" in algos) or ("PointerJoin" in algos)

    def test_paper_literal_plan_without_pointer_join(self, paper_catalog):
        """With the pointer-join rule disabled, Query 4 reproduces Figure
        12's literal drawing (assembly for the member references)."""
        result = _optimize(
            paper_catalog, QUERY_4, OptimizerConfig().without(C.POINTER_JOIN)
        )
        assert result.plan.pretty().splitlines() == [
            "Filter 'Fred' == m.name",
            "  Assembly m_ref: m",
            "    Alg-Unnest t.team_members: m_ref",
            "      Index Scan Tasks: t, 100 == t.time",
        ]


def _search_states(catalog, sql):
    return search_states(_optimize(catalog, sql, tracer=Tracer()).trace_events)


# Query 3's search states, one per task, byte for byte: rendering them
# from trace events must not change a character.
QUERY_3_STATES = [
    "optimize(group 0 [Get], require {c}) -> FileScan @ 1.500s",
    "optimize(group 4 [Get], require {c.mayor}) -> FileScan @ 10.000s",
    "optimize(group 0 [Get], require {c} order by c.mayor) -> Sort @ 4.158s",
    "optimize(group 4 [Get], require {c.mayor} order by c.mayor) "
    "-> FileScan @ 10.000s",
    "optimize(group 1 [Mat], require {c, c.mayor}) -> PointerJoin @ 14.475s",
    "optimize(group 5 [Select], require {c.mayor}) -> no plan",
    "optimize(group 5 [Select], require {c.mayor}) -> no plan",
    "optimize(group 5 [Select], require {c.mayor} order by c.mayor) -> no plan",
    "optimize(group 5 [Select], require {c.mayor}) -> no plan",
    "optimize(group 5 [Select], require {c.mayor} order by c.mayor) -> no plan",
    "optimize(group 2 [Select], require {c}) -> IndexScan @ 0.048s",
    "optimize(group 2 [Select], require {c, c.mayor}) -> Assembly @ 0.062s",
    "optimize(group 3 [Project], require {}) -> AlgProject @ 0.062s",
]


class TestSearchTrace:
    """The Figure 11 mechanism, observable in the traced search states."""

    def test_trace_shows_goal_directed_states(self, paper_catalog):
        # The same Select group is optimized under the weak and the strong
        # goal, with the index scan winning the weak one and the assembly
        # enforcer the strong one.
        states = _search_states(paper_catalog, QUERY_3)
        assert states == QUERY_3_STATES
        assert any("require {c}) -> IndexScan" in line for line in states)
        assert any("require {c, c.mayor}) -> Assembly" in line for line in states)

    def test_trace_records_failures(self, paper_catalog):
        states = _search_states(paper_catalog, QUERY_3)
        assert any("no plan" in line for line in states)

    def test_trace_ends_with_root_goal(self, paper_catalog):
        states = _search_states(paper_catalog, QUERY_2)
        assert states[-1].startswith("optimize(")
        assert "IndexScan" in states[-1]
