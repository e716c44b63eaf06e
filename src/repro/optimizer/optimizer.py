"""The optimizer facade: logical expression in, physical plan out."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dataclass_replace

from repro.algebra.operators import LogicalOp, Project, SetOp
from repro.catalog.catalog import Catalog
from repro.governor.context import QueryContext
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer
from repro.optimizer.config import ALL_REWRITES, REWRITE_MAT_CHAIN, OptimizerConfig
from repro.optimizer.context import OptimizeContext
from repro.optimizer.cost import Cost, CostModel
from repro.optimizer.implementations import ALL_RULES as IMPLS
from repro.optimizer.logical_props import build_query_vars
from repro.optimizer.memo import Memo
from repro.optimizer.physical_props import PhysProps, SortKey
from repro.optimizer.plans import PhysicalNode
from repro.optimizer.rewrite import rewrite_tree, traversal_outputs
from repro.optimizer.search import (
    SearchBudgetExhausted,
    SearchEngine,
    SearchStats,
)
from repro.optimizer.selectivity import SelectivityModel
from repro.optimizer.transformations import ALL_RULES as TRANSFORMS

_REWRITE_RULES = frozenset(ALL_REWRITES)  # the stage runs unless all are off


@dataclass
class OptimizationResult:
    """The chosen plan plus everything needed to reason about the search."""

    plan: PhysicalNode
    cost: Cost
    stats: SearchStats
    optimization_seconds: float
    groups: int
    logical: LogicalOp
    required: PhysProps
    # This run's tracer events, the only record of what the optimizer
    # did; empty unless an enabled tracer was passed in.
    trace_events: tuple[TraceEvent, ...] = ()

    def explain(self, costs: bool = False) -> str:
        """Header (time, cost, search size), each traced rewrite firing
        (what reshaped the plan), then the rendered plan."""
        lines = [
            f"-- optimized in {self.optimization_seconds * 1000:.1f} ms, "
            f"estimated cost {self.cost.total:.3f} s, "
            f"{self.groups} groups, {self.stats.mexprs_generated} expressions --"
        ]
        for event in self.trace_events:
            detail = event.get("detail")
            if event.category == "rewrite" and detail is not None:
                lines.append(f"-- rewrite: {event.name}: {detail} --")
        return "\n".join(lines) + "\n" + self.plan.pretty(costs=costs)


def default_required_props(
    tree: LogicalOp,
    result_vars: tuple[str, ...],
    order: tuple[str, str | None, bool] | None = None,
) -> PhysProps:
    """The root physical properties a query's consumer demands.

    Projection produces new objects (and carries any ORDER BY itself), so
    it needs nothing from above; a bare tree must deliver the user-visible
    range variables resident, in the requested order if any.
    """
    if isinstance(tree, Project):
        return PhysProps.none()
    if isinstance(tree, SetOp) and not result_vars:
        return PhysProps.none()
    sort_key = SortKey(order[0], order[1], order[2]) if order else None
    return PhysProps.of(*result_vars, order=sort_key)


class Optimizer:
    """A generated-optimizer instance for one catalog and configuration.

    Extensibility — the paper's central design goal — is first-class:
    pass additional transformation or implementation rules and they join
    the built-in rule sets (subject to the same enable/disable toggles,
    keyed by each rule's ``name``).
    """

    def __init__(
        self,
        catalog: Catalog,
        config: OptimizerConfig | None = None,
        extra_transformations: tuple = (),
        extra_implementations: tuple = (),
        feedback=None,
    ) -> None:
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        self.cost_model = CostModel(self.config.cost)
        self.extra_transformations = tuple(extra_transformations)
        self.extra_implementations = tuple(extra_implementations)
        # FeedbackStore of observed cardinalities; consulted only when
        # the config's feedback knob is on.
        self.feedback = feedback if self.config.feedback else None

    def optimize(
        self,
        logical: LogicalOp,
        required: PhysProps | None = None,
        result_vars: tuple[str, ...] = (),
        order: tuple[str, str | None, bool] | None = None,
        tracer: Tracer | None = None,
        query_ctx: QueryContext | None = None,
    ) -> OptimizationResult:
        """Optimize a logical expression into its cheapest physical plan.

        Passing an enabled ``tracer`` records every rewrite and rule
        firing, memo group creation, search task, branch-and-bound
        prune, and enforcer application; this run's events also land on
        the result's ``trace_events``.  Without one, nothing is
        recorded or rendered.

        A ``query_ctx`` with a search deadline makes the search
        *anytime*: when the budget runs out mid-search, a greedy descent
        over the memo explored so far, seeded with the subplans already
        proved, returns a plan, and the degradation is recorded on the
        context and its trace.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        first_event = len(tracer.events)  # a long-lived tracer holds more
        started = time.perf_counter()
        traversals: frozenset[str] = frozenset()
        if not _REWRITE_RULES <= self.config.disabled_rules:
            order_key = SortKey(order[0], order[1], order[2]) if order else None
            with tracer.span("phase", "rewrite"):
                logical = rewrite_tree(
                    logical,
                    self.catalog,
                    self.config,
                    result_vars=result_vars,
                    order=order_key,
                    required=required,
                    tracer=tracer,
                )
                if self.config.is_enabled(REWRITE_MAT_CHAIN):
                    traversals = traversal_outputs(
                        logical, result_vars, order_key, required, tracer
                    )
        query_vars = build_query_vars(logical, self.catalog)
        selectivity = SelectivityModel(self.catalog, query_vars)
        memo = Memo(
            self.catalog,
            selectivity,
            tracer=tracer,
            feedback=self.feedback,
            traversals=traversals,
        )
        root_gid = memo.insert_expression(logical)
        ctx = OptimizeContext(
            memo=memo,
            catalog=self.catalog,
            cost_model=self.cost_model,
            selectivity=selectivity,
            query_vars=query_vars,
            config=self.config,
            tracer=tracer,
            governor=query_ctx,
        )
        engine = SearchEngine(
            ctx,
            transformations=TRANSFORMS + self.extra_transformations,
            implementations=IMPLS + self.extra_implementations,
        )
        if query_ctx is not None:
            query_ctx.begin_search()
        with tracer.span("phase", "explore"):
            engine.explore()
        if required is None:
            required = default_required_props(logical, result_vars, order)
        with tracer.span("phase", "optimize"):
            try:
                plan = engine.best_plan(root_gid, required)
            except SearchBudgetExhausted:
                plan = self._anytime_fallback(engine, ctx, root_gid, required)
        elapsed = time.perf_counter() - started
        return OptimizationResult(
            plan=plan,
            cost=plan.total_cost,
            stats=engine.stats,
            optimization_seconds=elapsed,
            groups=len(memo.groups()),
            logical=logical,
            required=required,
            trace_events=tuple(tracer.events[first_event:]),
        )

    def _anytime_fallback(
        self,
        engine: SearchEngine,
        ctx: OptimizeContext,
        root_gid: int,
        required: PhysProps,
    ) -> PhysicalNode:
        """Best-effort plan when the search deadline expired mid-search.

        Re-run the top-down descent over the memo explored so far with
        ``candidate_cap=1`` and no deadline: pure greedy, linear in plan
        depth, done in microseconds.  Every complete winner the budgeted
        search proved seeds the descent, so it only fills in the goals the
        deadline cut short.  (The root goal is the last one a descent
        records, so an expired search never holds a root winner itself.)
        A descent that finds no plan raises ``NoPlanFoundError``, as the
        unbudgeted search does.
        """
        greedy_ctx = dataclass_replace(
            ctx,
            config=self.config.with_heuristics(candidate_cap=1),
            governor=None,
        )
        descent = SearchEngine(
            greedy_ctx,
            transformations=(),
            implementations=IMPLS + self.extra_implementations,
        )
        descent.fallback = True
        for key, won in engine._winners.items():
            if won.plan is not None:
                descent._winners[key] = won
        plan = descent.best_plan(root_gid, required)
        if ctx.governor is not None:
            ctx.governor.mark_degraded("search_timeout", fallback="greedy-descent")
        return plan


__all__ = ["OptimizationResult", "Optimizer", "default_required_props"]
