"""The Volcano-style search engine.

Two phases, both bounded and memoized:

1. **Exploration** applies the enabled transformation rules to every
   m-expr of every group until fixpoint, so each group comes to contain
   its full equivalence class (the paper performs exhaustive search:
   "exhaustive search and therefore truly optimal plans are feasible for
   moderately complex queries").

2. **Optimization** is top-down and *goal-directed by physical
   properties*: ``optimize(group, required, limit)`` considers every
   implementation rule of every m-expr, requests the child properties
   each algorithm needs, and additionally considers the assembly
   *enforcer* — optimizing the same group for a weaker property vector and
   assembling the missing component on top.  That enforcer step is what
   discovers the paper's Query 3 plan, which no purely algebraic
   optimizer can reach.  Results are memoized per (group, properties) and
   branch-and-bound limits prune dominated alternatives.

   The enforcer skips each sub-goal whose limit is below its group's
   **cost floor** (after Shapiro et al., IDEAS 2001): the cheapest
   candidate under no required properties over its inputs' floors.  A
   stronger goal only loses candidates and an enforcer only adds cost, so
   no plan of the group costs less, and the skipped sub-goal could only
   return None: an exact search keeps every plan, cost and tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from repro.errors import NoPlanFoundError, QueryCancelled
from repro.optimizer import config as rule_names
from repro.optimizer.context import OptimizeContext
from repro.optimizer.implementations import ALL_RULES as ALL_IMPLEMENTATIONS
from repro.optimizer.implementations import ImplementationRule
from repro.optimizer.physical_props import PhysProps
from repro.optimizer.plans import AssemblyNode, PhysicalNode, SortNode
from repro.optimizer.transformations import ALL_RULES as ALL_TRANSFORMATIONS
from repro.optimizer.transformations import TransformationRule

_MAX_EXPLORATION_ROUNDS = 64
_NO_PROPS = PhysProps.none()


class SearchBudgetExhausted(Exception):
    """Internal control flow: the governor's search deadline expired.

    Raised out of :meth:`SearchEngine.optimize` and caught by the
    :class:`~repro.optimizer.optimizer.Optimizer` facade, which falls
    back to the best plan discovered so far (anytime behavior).  Never
    escapes the optimizer, so it is not a :class:`~repro.errors.ReproError`.
    """


@dataclass
class SearchStats:
    """Effort counters (the basis of Table 2's '% of exhaustive search')."""

    exploration_rounds: int = 0
    rule_applications: int = 0
    # The m-exprs the memo holds after exploration (deduplicated).
    mexprs_generated: int = 0
    optimization_tasks: int = 0
    # The (group, required) keys behind those tasks (failed goals repeat).
    distinct_goals: int = 0
    candidates_costed: int = 0
    # Candidates the per-group cost floors were computed from (once each).
    floor_candidates: int = 0
    enforcer_applications: int = 0
    # Exploration stopped at the round cap, short of a fixpoint.
    exploration_truncated: bool = False

    @property
    def total_effort(self) -> int:
        """A single scalar summarizing search work."""
        return (
            self.rule_applications
            + self.mexprs_generated
            + self.optimization_tasks
            + self.candidates_costed
            + self.floor_candidates
        )


@dataclass(slots=True)
class _Winner:
    plan: PhysicalNode | None
    searched_limit: float


class SearchEngine:
    """Exploration + goal-directed optimization over one memo.

    Phase 2 assumes the memo no longer changes after :meth:`explore`;
    what it derives per group or per goal lives as long as the engine.
    """

    fallback = False  # the anytime fallback's descent: its tasks say so

    def __init__(
        self,
        ctx: OptimizeContext,
        transformations: tuple[TransformationRule, ...] = ALL_TRANSFORMATIONS,
        implementations: tuple[ImplementationRule, ...] = ALL_IMPLEMENTATIONS,
    ) -> None:
        self.ctx = ctx
        self.transformations = tuple(
            rule for rule in transformations if ctx.config.is_enabled(rule.name)
        )
        self.implementations = tuple(
            rule for rule in implementations if ctx.config.is_enabled(rule.name)
        )
        self.stats = SearchStats()
        # Only a feedback-on plan is monitored, so only its winners carry
        # their group's properties: a cached plan otherwise keeps none.
        self.marks_winners = ctx.memo.feedback is not None
        self._winners: dict[tuple[int, PhysProps], _Winner] = {}
        # Per group: the (rule, m-expr) pairs whose declaration matches,
        # rule-major (promise order: under a cap earlier rules go first).
        self._offers: dict[int, list] = {}
        # Per group: its cost floor (None while it is being computed).
        # Only an exact search skips by floors: a capped or epsilon-pruned
        # one answers a goal from what earlier goals happened to cache, and
        # a skipped sub-goal caches nothing, so it could break a tie anew.
        self._floors: dict[int, float | None] = {}
        config = ctx.config
        self._floored = config.prune and config.prune_factor == 1.0 and (
            config.candidate_cap is None
        )
        # Per goal that has failed so far: the candidates it generated,
        # replayed when the goal is searched again under a higher limit.
        self._unplanned: dict[tuple[int, PhysProps], list] = {}
        # Structured event sink (rule firings, tasks, prunes, enforcers);
        # the shared disabled tracer unless the caller asked for a trace.
        self.tracer = ctx.tracer

    # ------------------------------------------------------------------
    # Phase 1: exhaustive logical exploration
    # ------------------------------------------------------------------

    def explore(self) -> None:
        """Apply enabled transformation rules to fixpoint (phase 1).

        Semi-naive: a rule meets each (m-expr, input m-expr) pair once.
        A group only ever gains m-exprs at the end of its list (the memo
        keys groups by what they compute, so none is merged away), and
        per (m-expr, rule) exploration keeps how far along its input's
        list the rule has matched.  Rules without an input fire once per
        m-expr, and a rule never fires on the output of its inverse
        (``not_after``).  Each round visits, in memo order, only the
        m-exprs the memo marked pending: new ones, and readers of a group
        that gained m-exprs.
        """
        memo = self.ctx.memo
        stats = self.stats
        tracer = self.tracer
        pending = memo.pending
        # Rules by declared operator class (undeclared: in every entry).
        rules_for: dict[type, tuple] = {}
        matched: dict[tuple, int] = {}
        visited: set = set()
        governor = self.ctx.governor
        truncated = False
        while pending:
            if stats.exploration_rounds == _MAX_EXPLORATION_ROUNDS:
                # No silent truncation: the memo never reached its fixpoint.
                stats.exploration_truncated = True
                if tracer.enabled:
                    tracer.event(
                        "explore", "round-cap", rounds=stats.exploration_rounds
                    )
                break
            if governor is not None and governor.search_expired():
                # Anytime exploration: the memo always contains the
                # original expression, so stopping early only narrows
                # the space phase 2 searches — never breaks it.
                truncated = True
                break
            stats.exploration_rounds += 1
            for group in memo.groups():
                gid = group.gid
                for mexpr in list(group.mexprs):
                    if mexpr not in pending:
                        continue
                    pending.discard(mexpr)
                    first = mexpr not in visited
                    visited.add(mexpr)
                    op_type = type(mexpr.op)
                    if op_type not in rules_for:
                        rules_for[op_type] = tuple(
                            rule
                            for rule in self.transformations
                            if rule.operators is None
                            or isinstance(mexpr.op, rule.operators)
                        )
                    for rule in rules_for[op_type]:
                        if mexpr.origin in rule.not_after:
                            continue
                        if rule.input is None:
                            if not first:
                                continue
                            inners = ()
                        else:
                            inputs = memo.group(mexpr.children[rule.input]).mexprs
                            key = (mexpr, rule)
                            done = matched.get(key, 0)
                            if done == len(inputs):
                                continue
                            inners = islice(inputs, done, None)
                            skip = rule.inner_not_from
                            if skip is not None:
                                inners = (m for m in inners if m.origin != skip)
                        for tree in rule.apply(mexpr, memo, inners):
                            stats.rule_applications += 1
                            before = memo.mexpr_count
                            memo.insert_tree(tree, gid, rule.name)
                            if tracer.enabled:
                                tracer.event(
                                    "rule",
                                    rule.name,
                                    group=gid,
                                    expr=mexpr.op.describe(),
                                    new=memo.mexpr_count > before,
                                )
                        if rule.input is not None:
                            # The rule ran the input to its live end.
                            matched[key] = len(inputs)
        pending.clear()
        stats.mexprs_generated = memo.mexpr_count
        if truncated and governor is not None:
            governor.mark_degraded(
                "search_timeout",
                phase="explore",
                rounds=stats.exploration_rounds,
            )

    # ------------------------------------------------------------------
    # Phase 2: top-down, property-driven optimization
    # ------------------------------------------------------------------

    def optimize(
        self, gid: int, required: PhysProps, limit: float = math.inf
    ) -> PhysicalNode | None:
        """Cheapest plan for a group under required properties (phase 2).

        Memoized per (group, properties); ``limit`` is the branch-and-
        bound budget.  Returns None when no plan fits the properties
        within the limit.
        """
        ctx = self.ctx
        governor = ctx.governor
        if governor is not None:
            if governor.cancelled:
                raise QueryCancelled("query cancelled during optimization")
            if governor.search_expired():
                raise SearchBudgetExhausted
        group = ctx.memo.group(gid)
        scope = group.props.scope
        if not (required.in_memory <= scope.object_names):
            return None
        if required.order is not None and required.order.var not in scope.names:
            return None

        goal = (gid, required)
        cached = self._winners.get(goal)
        if cached is not None:
            if cached.plan is not None:
                return cached.plan if cached.plan.total_cost.total <= limit else None
            if cached.searched_limit >= limit:
                return None

        stats = self.stats
        stats.optimization_tasks += 1
        config = ctx.config
        prune = config.prune
        best: PhysicalNode | None = None
        best_cost = limit if prune else math.inf

        # A goal's candidates are generated once and replayed while the
        # goal keeps failing; under a candidate cap they are pulled lazily,
        # so a greedy descent stops generating where it stops costing.
        cap = config.candidate_cap
        candidates = self._unplanned.pop(goal, None)
        if candidates is None:
            candidates = (
                (rule.name, candidate)
                for rule, mexpr in self._offers_of(gid, group)
                for candidate in rule.candidates(mexpr, group, required, ctx)
            )
            if cap is None:
                candidates = list(candidates)
        completed = 0
        if cap is None or cap > 0:
            for rule_name, candidate in candidates:
                stats.candidates_costed += 1
                plan = self._complete_candidate(
                    candidate, best_cost, prune, rule_name
                )
                if plan is None or not plan.delivered.satisfies(required):
                    continue
                completed += 1
                cost = plan.total_cost.total
                if best is None or cost < best_cost:
                    best = plan
                    best_cost = cost
                if completed == cap:
                    break

        for enforce in (self._try_enforcers, self._try_sort_enforcer):
            enforced = enforce(gid, group, required, best_cost, prune)
            if enforced is not None and (
                best is None or enforced.total_cost.total < best_cost
            ):
                best = enforced
                best_cost = enforced.total_cost.total

        if goal not in self._winners:
            stats.distinct_goals += 1
        self._winners[goal] = _Winner(best, limit)
        if best is None and cap is None:
            self._unplanned[goal] = candidates
        if best is not None and self.marks_winners:
            # The winner implements the group: it carries the group's
            # properties, and so its key for cardinality feedback.
            best.props = group.props
        if self.tracer.enabled:
            self.tracer.event(
                "task",
                f"group-{gid}",
                op=group.mexprs[0].op.name if group.mexprs else "?",
                required=str(required),
                winner=best.algorithm if best is not None else None,
                cost=best_cost if best is not None else None,
                fallback=self.fallback,
            )
        if best is not None and best_cost > limit:
            return None
        return best

    def _offers_of(self, gid: int, group) -> list:
        offers = self._offers.get(gid)
        if offers is None:
            offers = self._offers[gid] = [
                (rule, mexpr)
                for rule in self.implementations
                for mexpr in group.mexprs
                if rule.operators is None or isinstance(mexpr.op, rule.operators)
            ]
        return offers

    def floor(self, gid: int) -> float:
        """A lower bound on the cost of every plan for every goal of a group.

        The cheapest candidate under no required properties, its inputs at
        their own floors, computed once per group and building no plan.
        Admissible: a stronger goal's candidates are a subset with the same
        local costs and input groups, and an enforcer adds its cost to a
        plan of the same group.  Shaded down by one part in 10^9, as a plan
        sums its cost per component and may round an ulp below the floor's
        sum.  A group without candidates, or re-entered through a cycle,
        has floor 0.
        """
        floors = self._floors
        if gid in floors:
            return floors[gid] or 0.0
        floors[gid] = None
        group = self.ctx.memo.group(gid)
        stats = self.stats
        best = math.inf
        for rule, mexpr in self._offers_of(gid, group):
            for candidate in rule.candidates(mexpr, group, _NO_PROPS, self.ctx):
                stats.floor_candidates += 1
                cost = candidate.local_cost.total
                for child_gid, _ in candidate.child_reqs:
                    cost += self.floor(child_gid)
                if cost < best:
                    best = cost
        floors[gid] = value = 0.0 if best == math.inf else best * (1 - 1e-9)
        return value

    def _complete_candidate(
        self, candidate, budget: float, prune: bool, rule_name: str = ""
    ):
        if prune:
            # prune_factor < 1 is the aggressive (epsilon) pruning knob:
            # alternatives must promise a real improvement to be pursued.
            budget = budget * self.ctx.config.prune_factor
        accumulated = candidate.local_cost.total
        if prune and accumulated > budget:
            self._trace_prune(candidate, rule_name, accumulated, budget, "local-cost")
            return None
        child_plans: list[PhysicalNode] = []
        for child_gid, child_req in candidate.child_reqs:
            child_limit = (budget - accumulated) if prune else math.inf
            plan = self.optimize(child_gid, child_req, child_limit)
            if plan is None:
                return None
            child_plans.append(plan)
            accumulated += plan.total_cost.total
            if prune and accumulated > budget:
                self._trace_prune(
                    candidate, rule_name, accumulated, budget, "accumulated"
                )
                return None
        return candidate.build(tuple(child_plans))

    def _trace_prune(
        self, candidate, rule_name: str, losing_cost: float, budget: float, why: str
    ) -> None:
        """Record one branch-and-bound prune with the cost that lost."""
        if self.tracer.enabled:
            name = rule_name or "candidate"
            if candidate.note:
                name = f"{name}[{candidate.note}]"
            self.tracer.event(
                "prune",
                name,
                losing_cost=losing_cost,
                budget=budget,
                reason=why,
            )

    # ------------------------------------------------------------------
    # Enforcers (assembly for presence-in-memory)
    # ------------------------------------------------------------------

    def _try_sort_enforcer(self, gid, group, required, budget: float, prune: bool):
        """Deliver a required sort order by sorting a weaker-goal plan.

        The order-property twin of the assembly enforcer: optimize the same
        group without the order requirement, then apply Sort on top.
        Sorting by an attribute needs the attribute's object resident, so
        that variable joins the weaker goal's residency set.
        """
        if not self.ctx.config.is_enabled(rule_names.SORT_ENFORCER):
            return None
        order = required.order
        if order is None:
            return None
        child_req = required.without_order()
        if order.attr is not None:
            if order.var not in group.props.scope.object_names:
                return None
            child_req = child_req.add(order.var)
        rows = group.props.cardinality
        width = self.ctx.scope_width(group.props.scope)
        sort_cost = self.ctx.cost_model.sort(rows, width)
        if prune and sort_cost.total > budget:
            return None
        child_limit = (budget - sort_cost.total) if prune else math.inf
        sub = self.optimize(gid, child_req, child_limit)
        if sub is None:
            return None
        if self.tracer.enabled:
            self.tracer.event(
                "enforcer",
                "sort",
                group=gid,
                order=str(order),
                cost=sort_cost.total,
            )
        return SortNode(
            children=(sub,),
            delivered=sub.delivered.with_order(order),
            rows=rows,
            local_cost=sort_cost,
        )

    def _try_enforcers(self, gid, group, required, budget: float, prune: bool):
        if not self.ctx.config.is_enabled(rule_names.ASSEMBLY_ENFORCER):
            return None
        if not required.in_memory:
            return None
        best: PhysicalNode | None = None
        best_cost = budget
        scope = group.props.scope
        window = self.ctx.config.cost.assembly_window
        for var in required:
            source = self.ctx.query_vars.source_of(var)
            if source is None or not scope.has(var):
                continue
            if not scope.has(source.var):
                continue
            child_req = required.remove(var)
            if source.attr is not None:
                child_req = child_req.add(source.var)
            if child_req == required:
                continue
            target_type = scope.binding(var).type_name
            target_pages = self.ctx.type_pages(target_type)
            refs = group.props.cardinality
            enforce_cost = self.ctx.cost_model.assembly(refs, target_pages, window)
            if prune and enforce_cost.total > best_cost:
                continue
            child_limit = (best_cost - enforce_cost.total) if prune else math.inf
            if self._floored and (floor := self.floor(gid)) > child_limit:
                # Every plan of the group costs at least its floor: the
                # sub-goal could only return None.
                if self.tracer.enabled:
                    self.tracer.event(
                        "prune", "assembly-enforcer", var=var, floor=floor,
                        budget=child_limit, reason="floor",
                    )
                continue
            sub = self.optimize(gid, child_req, child_limit)
            if sub is None:
                continue
            self.stats.enforcer_applications += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "enforcer",
                    "assembly",
                    group=gid,
                    var=var,
                    source=str(source),
                    cost=enforce_cost.total,
                )
            node = AssemblyNode(
                source,
                var,
                window,
                enforcer=True,
                children=(sub,),
                delivered=sub.delivered.add(var),
                rows=group.props.cardinality,
                local_cost=enforce_cost,
            )
            total = node.total_cost.total
            if best is None or total < best_cost:
                best = node
                best_cost = total
        return best

    # ------------------------------------------------------------------

    def best_plan(self, gid: int, required: PhysProps) -> PhysicalNode:
        """Like :meth:`optimize` but raises when no plan exists."""
        plan = self.optimize(gid, required)
        if plan is None:
            raise NoPlanFoundError(
                f"no plan delivers properties {required} for group {gid}"
            )
        return plan


__all__ = ["SearchBudgetExhausted", "SearchEngine", "SearchStats"]
