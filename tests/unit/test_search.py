"""Unit tests for the search engine: exploration, goal-direction, enforcers,
memoization, and branch-and-bound."""

import math

import pytest

from repro.algebra.operators import Get, Join, Mat, RefSource, Select
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
)
from repro.catalog.sample_db import build_catalog, index_cities_mayor_name
from repro.errors import OptimizerError
from repro.optimizer import config as C
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizeContext
from repro.optimizer.cost import CostModel
from repro.optimizer.logical_props import build_query_vars
from repro.optimizer.memo import Memo
from repro.optimizer.physical_props import PhysProps
from repro.optimizer.plans import AssemblyNode, IndexScanNode
from repro.optimizer.search import SearchEngine
from repro.optimizer.selectivity import SelectivityModel
from repro.optimizer.transformations import ALL_RULES as ALL_TRANSFORMATIONS
from repro.optimizer.transformations import TransformationRule


def _query2_tree():
    return Select(
        Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
        Conjunction.of(
            Comparison(FieldRef("c.mayor", "name"), CompOp.EQ, Const("Joe"))
        ),
    )


def _engine(
    tree, config=None, with_index=True, transformations=ALL_TRANSFORMATIONS
):
    catalog = build_catalog()
    if with_index:
        catalog.add_index(index_cities_mayor_name())
    config = config or OptimizerConfig()
    qvars = build_query_vars(tree, catalog)
    selectivity = SelectivityModel(catalog, qvars)
    memo = Memo(catalog, selectivity)
    gid = memo.insert_expression(tree)
    ctx = OptimizeContext(
        memo=memo,
        catalog=catalog,
        cost_model=CostModel(config.cost),
        selectivity=selectivity,
        query_vars=qvars,
        config=config,
    )
    engine = SearchEngine(ctx, transformations)
    engine.explore()
    return engine, gid


def _chain_tree(width):
    """The scalability chain of ``width`` ranges, simplified and not
    rewritten: the tree the memo starts from with rewrites off."""
    from repro.lang.parser import parse_query
    from repro.simplify.simplifier import simplify_full

    from tests.integration.test_search_transcript import chain_query

    return simplify_full(parse_query(chain_query(width)), build_catalog()).tree


class TestGoalDirectedSearch:
    def test_weak_goal_gets_index_scan(self):
        """Requiring only {c}: the collapse rule's plan wins (Figure 8)."""
        engine, gid = _engine(_query2_tree())
        plan = engine.best_plan(gid, PhysProps.of("c"))
        assert isinstance(plan, IndexScanNode)

    def test_strong_goal_adds_enforcer(self):
        """Requiring {c, c.mayor}: the assembly enforcer tops the index
        scan — the paper's Query 3 discovery (Figure 10)."""
        engine, gid = _engine(_query2_tree())
        plan = engine.best_plan(gid, PhysProps.of("c", "c.mayor"))
        assert isinstance(plan, AssemblyNode)
        assert plan.enforcer
        assert isinstance(plan.children[0], IndexScanNode)
        assert plan.delivered.satisfies(PhysProps.of("c", "c.mayor"))

    def test_goals_memoized_separately(self):
        engine, gid = _engine(_query2_tree())
        weak = engine.best_plan(gid, PhysProps.of("c"))
        strong = engine.best_plan(gid, PhysProps.of("c", "c.mayor"))
        assert weak.total_cost.total < strong.total_cost.total

    def test_unsatisfiable_goal_returns_none(self):
        engine, gid = _engine(_query2_tree())
        assert engine.optimize(gid, PhysProps.of("nonexistent")) is None

    def test_enforcer_disabled_changes_plan(self):
        """Without the enforcer, the strong goal falls back to the filter
        plan (and never discovers Figure 10)."""
        engine, gid = _engine(
            _query2_tree(), OptimizerConfig().without(C.ASSEMBLY_ENFORCER)
        )
        plan = engine.best_plan(gid, PhysProps.of("c", "c.mayor"))
        assert not any(
            isinstance(node, AssemblyNode) and node.enforcer
            for node in plan.walk()
        )
        assert plan.delivered.satisfies(PhysProps.of("c", "c.mayor"))


class TestMemoizationAndBounds:
    def test_winner_cached(self):
        engine, gid = _engine(_query2_tree())
        engine.best_plan(gid, PhysProps.of("c"))
        tasks_before = engine.stats.optimization_tasks
        engine.best_plan(gid, PhysProps.of("c"))
        assert engine.stats.optimization_tasks == tasks_before

    def test_limit_prunes(self):
        engine, gid = _engine(_query2_tree())
        assert engine.optimize(gid, PhysProps.of("c"), limit=1e-9) is None

    def test_relimit_after_failed_search(self):
        engine, gid = _engine(_query2_tree())
        assert engine.optimize(gid, PhysProps.of("c"), limit=1e-9) is None
        plan = engine.optimize(gid, PhysProps.of("c"), limit=math.inf)
        assert plan is not None

    def test_pruning_preserves_optimality(self):
        pruned, gid1 = _engine(_query2_tree(), OptimizerConfig())
        from dataclasses import replace

        exhaustive, gid2 = _engine(
            _query2_tree(), replace(OptimizerConfig(), prune=False)
        )
        a = pruned.best_plan(gid1, PhysProps.of("c"))
        b = exhaustive.best_plan(gid2, PhysProps.of("c"))
        assert a.total_cost.total == pytest.approx(b.total_cost.total)


class TestHeuristics:
    def test_candidate_cap_reduces_effort(self):
        from dataclasses import replace

        exhaustive, gid1 = _engine(_query2_tree())
        exhaustive.best_plan(gid1, PhysProps.of("c"))
        greedy, gid2 = _engine(
            _query2_tree(),
            replace(OptimizerConfig(), candidate_cap=1),
        )
        greedy.best_plan(gid2, PhysProps.of("c"))
        assert (
            greedy.stats.candidates_costed
            <= exhaustive.stats.candidates_costed
        )

    def test_candidate_cap_still_produces_valid_plan(self):
        from dataclasses import replace

        engine, gid = _engine(
            _query2_tree(), replace(OptimizerConfig(), candidate_cap=1)
        )
        plan = engine.best_plan(gid, PhysProps.of("c"))
        assert plan.delivered.satisfies(PhysProps.of("c"))

    def test_prune_factor_never_beats_exhaustive(self):
        from dataclasses import replace

        exhaustive, gid1 = _engine(_query2_tree())
        optimal = exhaustive.best_plan(gid1, PhysProps.of("c"))
        pruned, gid2 = _engine(
            _query2_tree(), replace(OptimizerConfig(), prune_factor=0.5)
        )
        plan = pruned.best_plan(gid2, PhysProps.of("c"))
        assert plan.total_cost.total >= optimal.total_cost.total


class TestEffortCounters:
    def test_disabling_rules_reduces_effort(self):
        full, gid1 = _engine(_query2_tree())
        full.best_plan(gid1, PhysProps.of("c"))
        crippled, gid2 = _engine(
            _query2_tree(),
            OptimizerConfig().without(
                C.COLLAPSE_TO_INDEX_SCAN, C.MAT_TO_JOIN, C.MAT_PAST_JOIN
            ),
        )
        crippled.best_plan(gid2, PhysProps.of("c"))
        assert crippled.stats.total_effort < full.stats.total_effort

    def test_exploration_reaches_fixpoint(self):
        engine, _ = _engine(_query2_tree())
        assert engine.stats.exploration_rounds >= 2
        assert engine.stats.mexprs_generated > 3

    def test_mexprs_generated_counts_the_live_memo(self):
        """The figure is what the memo holds after exploration."""
        engine, _ = _engine(_chain_tree(5), with_index=False)
        memo = engine.ctx.memo
        assert engine.stats.mexprs_generated == sum(
            len(group.mexprs) for group in memo.groups()
        )

    def test_distinct_goals_counts_keys_not_tasks(self):
        """A failed goal searched again under a higher limit is a second
        task for the same (group, required) key."""
        engine, gid = _engine(_query2_tree())
        assert engine.optimize(gid, PhysProps.of("c"), limit=1e-9) is None
        tasks, goals = engine.stats.optimization_tasks, engine.stats.distinct_goals
        assert engine.optimize(gid, PhysProps.of("c")) is not None
        assert engine.stats.optimization_tasks > tasks
        assert engine.stats.distinct_goals >= goals
        assert engine.stats.distinct_goals == len(engine._winners)
        assert engine.stats.distinct_goals < engine.stats.optimization_tasks


class TestExplorationRoundCap:
    """No silent truncation: stopping at the round cap is recorded."""

    CHAIN5 = (
        "SELECT e.name FROM Employee e IN Employees, "
        "Department d IN extent(Department), Job j IN extent(Job), "
        "Task t IN Tasks, Country n IN extent(Country) "
        "WHERE e.department == d AND e.job == j AND t.time == 100 "
        "AND n.name != 'x'"
    )

    def _optimize(self, tracer=None):
        from repro.lang.parser import parse_query
        from repro.optimizer import Optimizer
        from repro.simplify.simplifier import simplify_full

        catalog = build_catalog()
        simplified = simplify_full(parse_query(self.CHAIN5), catalog)
        return Optimizer(
            catalog, OptimizerConfig().with_rewrites(False)
        ).optimize(
            simplified.tree, result_vars=simplified.result_vars, tracer=tracer
        )

    def test_fixpoint_is_not_flagged(self):
        assert not self._optimize().stats.exploration_truncated

    def test_round_cap_sets_flag_and_traces(self, monkeypatch):
        from repro.obs.tracer import Tracer
        from repro.optimizer import search

        exhaustive = self._optimize()
        monkeypatch.setattr(search, "_MAX_EXPLORATION_ROUNDS", 2)
        tracer = Tracer()
        capped = self._optimize(tracer)
        assert capped.stats.exploration_rounds == 2
        assert capped.stats.exploration_truncated
        (event,) = tracer.events_in("explore")
        assert event.name == "round-cap" and event.get("rounds") == 2
        # Still a valid plan for the goal, from a smaller memo.
        assert capped.plan.delivered.satisfies(capped.required)
        assert capped.stats.mexprs_generated < exhaustive.stats.mexprs_generated
        assert capped.cost.total >= exhaustive.cost.total


class TestOperatorIndexedRules:
    def test_undeclared_rule_is_offered_every_mexpr(self):
        from repro.optimizer.implementations import ALL_RULES, ImplementationRule

        seen = []

        class Spy(ImplementationRule):
            name = "spy"

            def candidates(self, mexpr, group, required, ctx):
                seen.append(type(mexpr.op))
                return iter(())

        engine, gid = _engine(_query2_tree(), with_index=False)
        spying = SearchEngine(engine.ctx, (), ALL_RULES + (Spy(),))
        spying.best_plan(gid, PhysProps.of("c"))
        assert {Get, Mat, Select} <= set(seen)

    def test_declared_rule_sees_only_its_operators(self):
        from repro.optimizer.implementations import ALL_RULES, ImplementationRule

        seen = []

        class GetSpy(ImplementationRule):
            name = "get-spy"
            operators = (Get,)

            def candidates(self, mexpr, group, required, ctx):
                seen.append(type(mexpr.op))
                return iter(())

        engine, gid = _engine(_query2_tree(), with_index=False)
        spying = SearchEngine(engine.ctx, (), ALL_RULES + (GetSpy(),))
        spying.best_plan(gid, PhysProps.of("c"))
        assert seen and set(seen) == {Get}


class _Tap(TransformationRule):
    """Wraps a rule and logs each (rule, m-expr, input m-expr) it matches
    (input None for a rule without one)."""

    def __init__(self, rule, log):
        self.rule, self.log = rule, log
        self.name, self.operators = rule.name, rule.operators
        self.input, self.not_after = rule.input, rule.not_after
        self.inner_not_from = rule.inner_not_from

    def apply(self, mexpr, memo, inners):
        if self.input is None:
            self.log.append((self.rule, mexpr, None))
        return self.rule.apply(mexpr, memo, self._tapped(mexpr, inners))

    def _tapped(self, mexpr, inners):
        for inner in inners:
            self.log.append((self.rule, mexpr, inner))
            yield inner


class TestSemiNaiveExploration:
    """Exploration generates instead of rediscovering."""

    def _tapped_chain4(self):
        log = []
        rules = tuple(_Tap(rule, log) for rule in ALL_TRANSFORMATIONS)
        engine, _ = _engine(_chain_tree(4), with_index=False, transformations=rules)
        return engine, log

    def test_no_rule_matches_an_input_mexpr_twice(self):
        engine, log = self._tapped_chain4()
        assert log
        assert len(set(log)) == len(log)

    def test_commutativity_never_receives_its_own_output(self):
        engine, log = self._tapped_chain4()
        commuted = [m for rule, m, _ in log if rule.name == C.JOIN_COMMUTATIVITY]
        assert commuted
        assert all(m.origin != C.JOIN_COMMUTATIVITY for m in commuted)
        produced = [
            m
            for group in engine.ctx.memo.groups()
            for m in group.mexprs
            if m.origin == C.JOIN_COMMUTATIVITY
        ]
        assert produced

    def test_a_grown_group_reoffers_only_its_new_mexprs(self):
        """Group ``a`` gains ``a2`` mid-exploration: its reader is offered
        ``a2`` and nothing it met before; the other reader meets ``b``
        alone."""
        seen: dict[str, list[str]] = {"b": [], "a": []}

        class Grow(TransformationRule):
            name, operators = "grow", (Get,)

            def apply(self, mexpr, memo, inners):
                if mexpr.op.var == "a":
                    yield (Get("Cities", "a2"), ())

        engine, _ = _engine(
            self._two_readers(), with_index=False,
            transformations=(Grow(), self._spy(seen)),
        )
        assert seen == {"b": ["b"], "a": ["a", "a2"]}

    def test_an_output_held_by_another_group_raises(self):
        """A rule whose output the memo already holds elsewhere disagrees
        with the group key on what it computes: a bug, never a merge."""

        class Fold(TransformationRule):
            name, operators = "fold", (Get,)

            def apply(self, mexpr, memo, inners):
                if mexpr.op.var == "a":
                    yield (Get("Cities", "b"), ())

        with pytest.raises(OptimizerError, match="fold"):
            _engine(
                self._two_readers(), with_index=False, transformations=(Fold(),)
            )

    @staticmethod
    def _two_readers():
        def named(var):
            return Conjunction.of(
                Comparison(FieldRef(var, "name"), CompOp.EQ, Const("x"))
            )

        return Join(
            Select(Get("Cities", "b"), named("b")),
            Select(Get("Cities", "a"), named("a")),
            Conjunction.of(),
        )

    @staticmethod
    def _spy(seen):
        class Spy(TransformationRule):
            name, operators, input = "spy", (Select,), 0

            def apply(self, mexpr, memo, inners):
                reader = next(iter(mexpr.op.predicate.vars))
                seen[reader].extend(inner.op.var for inner in inners)
                return iter(())

        return Spy()
