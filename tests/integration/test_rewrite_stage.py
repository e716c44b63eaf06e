"""Integration tests for the pre-memo rewrite stage.

The stage's contract on the paper's queries: rewrites may reshape the
logical tree the memo sees, but Queries 1-4 must choose exactly the
same physical plan at exactly the same estimated cost as the unrewritten
search — the rewrites only remove redundant search work there, never
plans.  On wide join chains the stage must actually shrink the memo,
which is the whole point.
"""

import pytest

from repro.algebra.operators import Mat
from repro.algebra.scopes import BindingKind, Scope, VarBinding
from repro.lang.parser import parse_query
from repro.obs.tracer import Tracer
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer import config as C
from repro.optimizer.cost import CostModel, CostParams
from repro.optimizer.logical_props import tuple_width_bytes
from repro.optimizer.plans import HashJoinNode, plan_signature
from repro.simplify.simplifier import simplify_full

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4
from tests.integration.test_search_space import after_explore
from tests.integration.test_search_transcript import adhoc_shapes, chain_query

PAPER_QUERIES = {
    "Q1": QUERY_1,
    "Q2": QUERY_2,
    "Q3": QUERY_3,
    "Q4": QUERY_4,
}

# Five-collection slice of the scalability bench's join chain: two
# fusable collection joins plus a cartesian input and a filter.
CHAIN_QUERY = (
    "SELECT e.name FROM Employee e IN Employees, "
    "Department d IN extent(Department), Job j IN extent(Job), "
    "Task t IN Tasks, Country n IN extent(Country) "
    "WHERE e.department == d AND e.job == j AND t.time == 100 "
    "AND n.name != 'x'"
)


# The chain's rewrite firings as EXPLAIN shows them, byte for byte.
CHAIN_REWRITES = [
    "-- rewrite: rewrite-pushdown: 'x' != n.name below Join --",
    "-- rewrite: rewrite-pushdown: 100 == t.time below Join --",
    "-- rewrite: rewrite-pushdown: e.department == d.self below Join --",
    "-- rewrite: rewrite-pushdown: e.job == j.self below Join --",
    "-- rewrite: rewrite-collection-join: e.job == j.self -> Mat e.job: j --",
    "-- rewrite: rewrite-collection-join: e.department == d.self "
    "-> Mat e.department: d --",
    "-- rewrite: rewrite-join-canon: reordered 3 cartesian inputs by size --",
    "-- rewrite: rewrite-mat-chain: "
    "traversal [Mat e.department: d, Mat e.job: j] --",
]


def _optimize(catalog, sql, config=None, tracer=None):
    sq = simplify_full(parse_query(sql), catalog)
    optimizer = Optimizer(catalog, config or OptimizerConfig())
    return optimizer.optimize(sq.tree, result_vars=sq.result_vars, tracer=tracer)


def _explored(catalog, sql, config=None):
    """The memo a search explored, and the origins of its m-exprs."""
    memos = []
    with after_explore(lambda engine: memos.append(engine.ctx.memo)):
        _optimize(catalog, sql, config)
    (memo,) = memos
    origins = {m.origin for group in memo.groups() for m in group.mexprs}
    return memo, origins


def _fired(catalog, sql, config=None) -> set[str]:
    """The rewrite rules a traced optimization fired."""
    result = _optimize(catalog, sql, config, Tracer())
    return {e.name for e in result.trace_events if e.category == "rewrite"}


class TestPaperQueriesUnchanged:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_same_plan_and_cost_as_unrewritten_search(
        self, paper_catalog, name
    ):
        sql = PAPER_QUERIES[name]
        rewritten = _optimize(paper_catalog, sql)
        unrewritten = _optimize(
            paper_catalog, sql, OptimizerConfig().with_rewrites(False)
        )
        assert plan_signature(rewritten.plan) == plan_signature(
            unrewritten.plan
        ), f"{name}: rewrite stage changed the chosen plan"
        assert rewritten.cost.total == pytest.approx(
            unrewritten.cost.total
        ), f"{name}: rewrite stage changed the plan cost"


class TestSearchSpaceShrinks:
    def test_chain_memo_is_smaller_with_rewrites(self, paper_catalog):
        rewritten = _optimize(paper_catalog, CHAIN_QUERY)
        unrewritten = _optimize(
            paper_catalog, CHAIN_QUERY, OptimizerConfig().with_rewrites(False)
        )
        assert rewritten.groups < unrewritten.groups / 3
        assert (
            rewritten.stats.mexprs_generated
            < unrewritten.stats.mexprs_generated / 3
        )

    def test_chain_rewrites_are_traced(self, paper_catalog):
        result = _optimize(paper_catalog, CHAIN_QUERY, tracer=Tracer())
        # EXPLAIN surfaces each traced firing, unchanged.
        explain = result.explain().split("\n")
        assert [line for line in explain if "rewrite:" in line] == CHAIN_REWRITES
        # Untraced, nothing is recorded and EXPLAIN shows the plan alone.
        untraced = _optimize(paper_catalog, CHAIN_QUERY)
        assert untraced.trace_events == ()
        assert "rewrite:" not in untraced.explain()
        assert untraced.plan.pretty() == result.plan.pretty()

    def test_ablated_stage_restores_full_search(self, paper_catalog):
        assert _fired(
            paper_catalog, CHAIN_QUERY, OptimizerConfig().with_rewrites(False)
        ) == set()


# The rules the traversal guard keeps off a traversal Mat.
MAT_MOVES = {C.MAT_TO_JOIN, C.MAT_COMMUTATIVITY, C.MAT_PAST_JOIN, C.MAT_PAST_SELECT}


class TestTraversalGuard:
    def test_traversal_mats_stay_where_the_query_put_them(self, paper_catalog):
        memo, origins = _explored(paper_catalog, CHAIN_QUERY)
        assert memo.traversals == {"d", "j"}
        assert not origins & MAT_MOVES
        mats = [m for g in memo.groups() for m in g.mexprs if isinstance(m.op, Mat)]
        assert sorted(m.op.out for m in mats) == ["d", "j"]

    def test_switching_the_guard_off_restores_the_mat_rules(self, paper_catalog):
        config = OptimizerConfig().without(C.REWRITE_MAT_CHAIN)
        memo, origins = _explored(paper_catalog, CHAIN_QUERY, config)
        assert memo.traversals == frozenset()
        assert {C.MAT_TO_JOIN, C.MAT_COMMUTATIVITY} <= origins

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT e.name FROM Employee e IN Employees "
            "WHERE e.department.name == 'Sales'",
            "SELECT e.department.name FROM Employee e IN Employees",
            "SELECT e.name FROM Employee e IN Employees "
            "ORDER BY e.department.name",
        ],
        ids=["predicate", "projection", "order-by"],
    )
    def test_a_mat_whose_output_is_read_still_moves(self, paper_catalog, text):
        memo, origins = _explored(paper_catalog, text)
        assert memo.traversals == frozenset()
        assert C.MAT_TO_JOIN in origins

    def test_unguarded_adhoc_plans_are_the_cheaper_interleavings(self):
        """Of the 160 ``adhoc_plan`` shapes, the guard keeps 26 plans from
        interleavings it hides: off, 25 of them get cheaper and none gets
        dearer (the 26th ties)."""
        db, texts = adhoc_shapes()
        unguarded = OptimizerConfig().without(C.REWRITE_MAT_CHAIN)
        moved = []
        for text in texts:
            guarded, free = db.optimize(text), db.optimize(text, unguarded)
            if free.plan.pretty() != guarded.plan.pretty():
                moved.append(free.cost.total - guarded.cost.total)
        assert len(moved) == 26
        assert sum(delta < 0 for delta in moved) == 25
        assert max(moved) <= 0


class TestEveryRuleFires:
    def test_each_rewrite_rule_fires_on_the_chains_or_paper_queries(
        self, paper_catalog
    ):
        """A rule that never fires changes no plan: it is dead weight in
        the stage and must be deleted rather than kept switched on."""
        texts = [chain_query(width) for width in range(2, 7)]
        texts += PAPER_QUERIES.values()
        fired = set().union(*(_fired(paper_catalog, text) for text in texts))
        assert set(C.ALL_REWRITES) <= fired, set(C.ALL_REWRITES) - fired


class TestTraversalCosts:
    def test_extent_hash_join_sizes_its_build_with_the_tuple_overhead(
        self, paper_catalog
    ):
        """A traversal Mat resolved by a hash join against the target's
        extent sizes its build input as the hybrid hash join rule does,
        with the configured per-tuple overhead: under a workspace the
        extent overflows, the spill I/O follows the wider tuples."""
        config = OptimizerConfig(
            cost=CostParams(tuple_overhead_bytes=64, work_mem_bytes=1024)
        ).without(C.ASSEMBLY)  # leave the traversal its hash join only
        text = (
            "SELECT e.name FROM Employee e IN Employees, "
            "Department d IN extent(Department) WHERE e.department == d"
        )
        result = _optimize(paper_catalog, text, config)
        assert "rewrite-mat-chain" in _fired(paper_catalog, text, config)
        (join,) = [n for n in result.plan.walk() if isinstance(n, HashJoinNode)]
        scan, probe = join.children
        scan_scope = Scope.of(VarBinding("d", "Department", BindingKind.OBJECT))
        build_bytes = scan.rows * tuple_width_bytes(scan_scope, paper_catalog, 64)
        expected = CostModel(config.cost).hybrid_hash_join(
            scan.rows, probe.rows, build_bytes
        )
        assert expected.io_seconds > 0.0
        assert join.local_cost == expected
