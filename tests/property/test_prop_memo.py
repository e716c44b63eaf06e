"""Property-based memo invariants.

The deepest one: *estimate consistency*.  A group's cardinality is shared
by every expression in it, so re-deriving the cardinality from any member
m-expr and its child groups must reproduce the group's value — for every
group, after full exploration, on randomly composed queries.  This is the
invariant that makes Mat <-> Join rewriting safe inside one group.

The memo finds a group by its key, what it computes: re-deriving the key
from any member m-expr and its input groups' keys must reproduce the
group's, and no two groups may share one (:func:`key_violations`, which
``test_search_space.py`` also runs over every pinned statement).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.scopes import derive_scope
from repro.catalog.sample_db import (
    build_catalog,
    index_cities_mayor_name,
    index_employees_name,
    index_tasks_time,
)
from repro.errors import ReproError
from repro.fuzz.querygen import random_query
from repro.fuzz.worldgen import build_database, random_world
from repro.lang.parser import parse_query
from repro.optimizer import OptimizerConfig
from repro.optimizer.context import OptimizeContext
from repro.optimizer.cost import CostModel
from repro.optimizer.logical_props import (
    build_query_vars,
    derive_cardinality,
    derive_key,
)
from repro.optimizer.memo import Memo
from repro.optimizer.search import SearchEngine
from repro.optimizer.selectivity import SelectivityModel
from repro.simplify.simplifier import simplify_full

_CATALOG = None


def catalog():
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = build_catalog()
        _CATALOG.add_index(index_cities_mayor_name())
        _CATALOG.add_index(index_tasks_time())
        _CATALOG.add_index(index_employees_name())
    return _CATALOG


_CITY_CONDS = [
    'c.mayor.name == "Joe"',
    "c.population >= 500000",
    'c.country.name != "x"',
    "c.mayor.name == c.country.president.name",
]
_EMP_CONDS = [
    'e.name == "Fred"',
    "e.age >= 40",
    "e.department == d",
    "d.floor == 3",
]


@st.composite
def queries(draw):
    shape = draw(st.sampled_from(["city", "join", "task"]))
    if shape == "city":
        conds = draw(st.lists(st.sampled_from(_CITY_CONDS), min_size=1, max_size=3))
        return "SELECT c.name FROM City c IN Cities WHERE " + " AND ".join(
            dict.fromkeys(conds)
        )
    if shape == "join":
        conds = draw(st.lists(st.sampled_from(_EMP_CONDS), min_size=1, max_size=3))
        return (
            "SELECT e.name FROM Employee e IN Employees, "
            "Department d IN extent(Department) WHERE "
            + " AND ".join(dict.fromkeys(conds))
        )
    return (
        "SELECT * FROM Task t IN Tasks WHERE t.time == 100 AND EXISTS ("
        'SELECT m FROM Employee m IN t.team_members WHERE m.name == "Fred")'
    )


def _explored_memo(sql: str):
    cat = catalog()
    sq = simplify_full(parse_query(sql), cat)
    qvars = build_query_vars(sq.tree, cat)
    selectivity = SelectivityModel(cat, qvars)
    memo = Memo(cat, selectivity)
    root = memo.insert_expression(sq.tree)
    ctx = OptimizeContext(
        memo=memo,
        catalog=cat,
        cost_model=CostModel(),
        selectivity=selectivity,
        query_vars=qvars,
        config=OptimizerConfig(),
    )
    engine = SearchEngine(ctx)
    engine.explore()
    return memo


def key_violations(memo) -> list[str]:
    """Each m-expr whose key, derived from its operator and its inputs'
    keys, is not its group's, and each key two groups share."""
    found = []
    owner: dict = {}
    for group in memo.groups():
        first = owner.setdefault(group.props.key, group.gid)
        if first != group.gid:
            found.append(f"groups {first} and {group.gid} share a key")
        for mexpr in group.mexprs:
            inputs = tuple(memo.group(c).props for c in mexpr.children)
            scope = derive_scope(
                mexpr.op, tuple(p.scope for p in inputs), memo.catalog
            )
            if derive_key(mexpr.op, inputs, scope, memo.catalog) != group.props.key:
                found.append(f"{mexpr.op.describe()} in group {group.gid}")
    return found


class TestGroupKeys:
    @given(queries())
    @settings(max_examples=25, deadline=None)
    def test_every_mexpr_computes_its_groups_key(self, sql):
        assert not key_violations(_explored_memo(sql))

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_fuzz_queries_keep_one_key_per_group(self, seed, monkeypatch):
        """The fuzz generator's queries (up to three ranges), explored with
        the rewrite stage on and off."""
        explored, violations = [], []
        original = SearchEngine.explore

        def explore(engine):
            original(engine)
            explored.append(engine)
            violations.extend(key_violations(engine.ctx.memo))

        monkeypatch.setattr(SearchEngine, "explore", explore)
        world = random_world(random.Random(f"{seed}:keys"))
        db = build_database(world)
        for i in range(10):
            text = random_query(random.Random(f"{seed}:keys:{i}"), world).render()
            for config in (db.config, db.config.with_rewrites(False)):
                try:
                    db.optimize(text, config)
                except ReproError:
                    pass  # a query the world cannot plan keys nothing
        assert explored
        assert not violations, violations[:5]


class TestMemoInvariants:
    @given(queries())
    @settings(max_examples=25, deadline=None)
    def test_group_cardinality_consistent_across_members(self, sql):
        memo = _explored_memo(sql)
        for group in memo.groups():
            for mexpr in group.mexprs:
                child_rows = tuple(
                    memo.group(c).props.cardinality for c in mexpr.children
                )
                recomputed = derive_cardinality(
                    mexpr.op, child_rows, memo.selectivity, memo.catalog
                )
                assert recomputed == pytest.approx(
                    group.props.cardinality, rel=1e-6
                ), f"{mexpr.op.describe()} in group {group.gid}"

    @given(queries())
    @settings(max_examples=25, deadline=None)
    def test_group_scopes_consistent_across_members(self, sql):
        from repro.algebra.scopes import derive_scope

        memo = _explored_memo(sql)
        for group in memo.groups():
            for mexpr in group.mexprs:
                child_scopes = tuple(
                    memo.group(c).props.scope for c in mexpr.children
                )
                recomputed = derive_scope(mexpr.op, child_scopes, memo.catalog)
                assert recomputed == group.props.scope

    @given(queries())
    @settings(max_examples=15, deadline=None)
    def test_no_duplicate_mexprs_after_dedup(self, sql):
        memo = _explored_memo(sql)
        for group in memo.groups():
            keys = [m.key() for m in group.mexprs]
            assert len(keys) == len(set(keys))
