"""The search's per-group cost floor is admissible and prunes nothing live.

``SearchEngine.floor(gid)`` bounds from below the cost of every plan of
every goal of a group, and the assembly enforcer skips a sub-goal whose
limit is below it.  Two properties pin that down:

* *admissible*: for every goal a search solved, the floor of its group is
  at most the winner's total cost (``floor_violations``; also checked on
  every ``search_space.json`` entry by ``test_search_space.py``);
* *lossless*: the search with floors decides the same plan, cost and tie
  as the same search with every floor at 0, which skips nothing (the
  search before floors existed), on generated queries over the sample
  schema under rule subsets, candidate caps and prune factors, and on
  the 160 ``adhoc_plan`` statements (whose plans and costs
  ``search_space.json`` also pins as the search before floors found them).
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NoPlanFoundError
from repro.obs.tracer import Tracer
from repro.optimizer import OptimizerConfig
from repro.optimizer.search import SearchEngine

from tests.conftest import QUERY_1
from tests.integration.test_search_transcript import adhoc_shapes
from tests.property.test_prop_optimizer import (
    _db,
    city_queries,
    configs,
    task_queries,
)


def floor_violations(engine: SearchEngine) -> list[str]:
    """Each solved goal whose group's floor exceeds the winner's cost."""
    found = []
    for (gid, required), won in engine._winners.items():
        if won.plan is None:
            continue
        floor, cost = engine.floor(gid), won.plan.total_cost.total
        if floor > cost:
            found.append(f"group {gid} {required}: floor {floor!r} > {cost!r}")
    return found


@contextmanager
def after_search(hook):
    """Run ``hook(engine)`` each time a top-level search returns or fails."""
    original = SearchEngine.best_plan

    def best_plan(engine, gid, required):
        try:
            return original(engine, gid, required)
        finally:
            hook(engine)

    SearchEngine.best_plan = best_plan
    try:
        yield
    finally:
        SearchEngine.best_plan = original


@contextmanager
def floors_at_zero():
    """The search as it was before floors: no enforcer sub-goal skipped."""
    original = SearchEngine.floor
    SearchEngine.floor = lambda engine, gid: 0.0
    try:
        yield
    finally:
        SearchEngine.floor = original


def decided(db, sql, config=None):
    """Plan and cost of one search (or its failure), checking every floor."""
    violations: list[str] = []
    with after_search(lambda engine: violations.extend(floor_violations(engine))):
        try:
            result = db.optimize(sql, config)
        except NoPlanFoundError as failure:
            outcome = ["no plan", str(failure)]
        else:
            outcome = [result.plan.pretty(costs=True, props=True), repr(result.cost)]
    assert not violations, violations[:5]
    return outcome


def without_floors(db, sql, config=None):
    with floors_at_zero():
        return decided(db, sql, config)


heuristic_configs = st.tuples(
    configs,
    st.sampled_from([None, 1, 2, 3]),
    st.sampled_from([1.0, 0.9, 0.5]),
).map(
    lambda drawn: drawn[0].with_heuristics(
        candidate_cap=drawn[1], prune_factor=drawn[2]
    )
)


class TestFloor:
    @given(st.one_of(city_queries(), task_queries()), heuristic_configs)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_admissible_and_lossless_on_generated_queries(self, sql, config):
        assert decided(_db(), sql, config) == without_floors(_db(), sql, config)

    def test_adhoc_plan_decides_as_without_floors(self):
        db, texts = adhoc_shapes()
        assert len(texts) == 160
        for text in texts:
            assert decided(db, text) == without_floors(db, text), text

    def test_a_cycle_reentry_has_floor_zero(self):
        engine = SearchEngine.__new__(SearchEngine)
        engine._floors = {7: None}
        assert engine.floor(7) == 0.0

    def test_the_floor_skips_enforcer_sub_goals_of_query_1(self):
        db = _db()
        tracer = Tracer()
        result = db.optimize(QUERY_1, tracer=tracer)
        skipped = [
            e for e in tracer.events_in("prune") if e.get("reason") == "floor"
        ]
        assert skipped and result.stats.floor_candidates > 0
        for event in skipped:
            assert event.name == "assembly-enforcer" and event.get("var")
            assert event.get("floor") > event.get("budget")
        with floors_at_zero():
            plain = db.optimize(QUERY_1)
        assert result.stats.candidates_costed < plain.stats.candidates_costed
        assert result.plan.pretty(costs=True) == plain.plan.pretty(costs=True)

    def test_a_heuristic_search_computes_no_floor(self):
        """A capped or epsilon-pruned search answers a goal from what
        earlier goals cached, so a skipped sub-goal could break a tie
        anew (cap 1 does, on generated city queries): no floor there."""
        for config in (
            OptimizerConfig().with_heuristics(candidate_cap=1),
            OptimizerConfig().with_heuristics(prune_factor=0.9),
        ):
            assert _db().optimize(QUERY_1, config).stats.floor_candidates == 0
