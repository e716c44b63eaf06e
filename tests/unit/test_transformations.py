"""Unit tests for individual transformation rules.

Strategy: build a memo with one expression, apply a single rule to a
specific m-expr, and check the produced alternative's shape.  Soundness
(same results on real data) is covered by the property and integration
suites; here we verify each rule fires exactly when its preconditions
hold.
"""

import pytest

from repro.algebra.operators import (
    Get,
    Join,
    Mat,
    RefSource,
    Select,
    Unnest,
)
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    RefAttr,
    SelfOid,
)
from repro.catalog.sample_db import build_catalog
from repro.optimizer import transformations as T
from repro.optimizer.logical_props import build_query_vars
from repro.optimizer.memo import Memo
from repro.optimizer.selectivity import SelectivityModel


def _memo_for(tree):
    catalog = build_catalog()
    qvars = build_query_vars(tree, catalog)
    memo = Memo(catalog, SelectivityModel(catalog, qvars))
    gid = memo.insert_expression(tree)
    return memo, gid


def _apply(rule, memo, gid):
    results = []
    for mexpr in list(memo.group(gid).mexprs):
        inners = (
            ()
            if rule.input is None
            else memo.group(mexpr.children[rule.input]).mexprs
        )
        results.extend(rule.apply(mexpr, memo, inners))
    return results


def _eq(l, r):
    return Conjunction.of(Comparison(l, CompOp.EQ, r))


MAYOR_JOE = _eq(FieldRef("c.mayor", "name"), Const("Joe"))
CITY_NAME = _eq(FieldRef("c", "name"), Const("x"))


class TestSelectRules:
    def test_select_past_mat_pushes_independent_conjunct(self):
        tree = Select(
            Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
            CITY_NAME,
        )
        memo, gid = _memo_for(tree)
        trees = _apply(T.SelectPastMat(), memo, gid)
        assert len(trees) == 1
        op, children = trees[0]
        assert isinstance(op, Mat)  # Select moved fully below

    def test_select_past_mat_blocked_by_dependency(self):
        tree = Select(
            Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
            MAYOR_JOE,
        )
        memo, gid = _memo_for(tree)
        assert _apply(T.SelectPastMat(), memo, gid) == []

    def test_select_past_mat_partial_split(self):
        tree = Select(
            Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
            MAYOR_JOE.conjoin(CITY_NAME),
        )
        memo, gid = _memo_for(tree)
        trees = _apply(T.SelectPastMat(), memo, gid)
        assert len(trees) == 1
        op, children = trees[0]
        assert isinstance(op, Select)  # dependent part stays above
        assert op.predicate == MAYOR_JOE

    def test_mat_past_select_pulls_up(self):
        tree = Mat(
            Select(Get("Cities", "c"), CITY_NAME),
            RefSource("c", "mayor"),
            "c.mayor",
        )
        memo, gid = _memo_for(tree)
        trees = _apply(T.MatPastSelect(), memo, gid)
        assert len(trees) == 1
        assert isinstance(trees[0][0], Select)

    def test_select_merge(self):
        tree = Select(Select(Get("Cities", "c"), CITY_NAME), _eq(FieldRef("c", "population"), Const(5)))
        memo, gid = _memo_for(tree)
        trees = _apply(T.SelectMerge(), memo, gid)
        assert len(trees) == 1
        assert len(trees[0][0].predicate.comparisons) == 2

    def test_select_past_unnest(self):
        tree = Select(
            Unnest(Get("Tasks", "t"), "t", "team_members", "m"),
            _eq(FieldRef("t", "time"), Const(100)),
        )
        memo, gid = _memo_for(tree)
        trees = _apply(T.SelectPastUnnest(), memo, gid)
        assert len(trees) == 1
        assert isinstance(trees[0][0], Unnest)

    def test_select_past_join_distributes(self):
        join = Join(
            Get("Employees", "e"),
            Get("extent(Department)", "d"),
            Conjunction.true(),
        )
        pred = _eq(FieldRef("d", "floor"), Const(3)).conjoin(
            _eq(RefAttr("e", "department"), SelfOid("d"))
        )
        memo, gid = _memo_for(Select(join, pred))
        trees = _apply(T.SelectPastJoin(), memo, gid)
        assert len(trees) == 1
        op, children = trees[0]
        assert isinstance(op, Join)
        # The spanning conjunct became the join predicate...
        assert len(op.predicate.comparisons) == 1
        # ...and the d-only conjunct moved to the right input.
        right = children[1]
        assert isinstance(right, tuple) and isinstance(right[0], Select)


class TestJoinRules:
    def _dept_join(self):
        return Join(
            Get("Employees", "e"),
            Get("extent(Department)", "d"),
            _eq(RefAttr("e", "department"), SelfOid("d")),
        )

    def test_commutativity(self):
        memo, gid = _memo_for(self._dept_join())
        trees = _apply(T.JoinCommutativity(), memo, gid)
        assert len(trees) == 1
        _, children = trees[0]
        assert children == tuple(reversed(memo.group(gid).mexprs[0].children))

    def test_associativity(self):
        inner = self._dept_join()
        outer = Join(
            inner,
            Get("extent(Job)", "j"),
            _eq(RefAttr("e", "job"), SelfOid("j")),
        )
        memo, gid = _memo_for(outer)
        trees = _apply(T.JoinAssociativity(), memo, gid)
        # (e ⋈ d) ⋈ j with predicates e-d and e-j: rotating would need a
        # d-j or cartesian inner join, which the rule declines to fabricate.
        assert trees == []

    def test_associativity_fires_with_chain_predicates(self):
        base = Join(
            Get("Cities", "c"),
            Get("extent(Country)", "n"),
            _eq(RefAttr("c", "country"), SelfOid("n")),
        )
        outer = Join(
            base,
            Get("extent(Person)", "p"),
            _eq(RefAttr("n", "president"), SelfOid("p")),
        )
        memo, gid = _memo_for(outer)
        trees = _apply(T.JoinAssociativity(), memo, gid)
        assert len(trees) == 1
        op, children = trees[0]
        assert isinstance(op, Join)
        inner_tree = children[1]
        assert isinstance(inner_tree[0], Join)  # (n ⋈ p) inner


class TestMatRules:
    def test_mat_commutativity_independent(self):
        tree = Mat(
            Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
            RefSource("c", "country"),
            "c.country",
        )
        memo, gid = _memo_for(tree)
        trees = _apply(T.MatCommutativity(), memo, gid)
        assert len(trees) == 1
        assert trees[0][0].out == "c.mayor"  # inner moved outside

    def test_mat_commutativity_blocked_by_dependency(self):
        """'country must be materialized before president' (Figure 2)."""
        tree = Mat(
            Mat(Get("Cities", "c"), RefSource("c", "country"), "c.country"),
            RefSource("c.country", "president"),
            "c.country.president",
        )
        memo, gid = _memo_for(tree)
        assert _apply(T.MatCommutativity(), memo, gid) == []

    def test_mat_to_join_with_extent(self):
        tree = Mat(Get("Cities", "c"), RefSource("c", "country"), "c.country")
        memo, gid = _memo_for(tree)
        trees = _apply(T.MatToJoin(), memo, gid)
        assert len(trees) == 1
        op, children = trees[0]
        assert isinstance(op, Join)
        get_tree = children[1]
        assert get_tree[0].collection == "extent(Country)"
        assert get_tree[0].var == "c.country"

    def test_mat_to_join_blocked_without_extent(self):
        """Plant has no extent: reference traversal cannot become a join."""
        tree = Mat(
            Get("extent(Department)", "d"), RefSource("d", "plant"), "d.plant"
        )
        memo, gid = _memo_for(tree)
        assert _apply(T.MatToJoin(), memo, gid) == []

    def test_join_to_mat_roundtrip(self):
        tree = Join(
            Get("Cities", "c"),
            Get("extent(Country)", "n"),
            _eq(RefAttr("c", "country"), SelfOid("n")),
        )
        memo, gid = _memo_for(tree)
        trees = _apply(T.JoinToMat(), memo, gid)
        assert len(trees) == 1
        op, children = trees[0]
        assert isinstance(op, Mat)
        assert op.out == "n"
        assert op.source == RefSource("c", "country")

    def test_join_to_mat_requires_extent_side(self):
        """A named set does not contain every referenced object, so a join
        against it must not be rewritten into a traversal."""
        from repro.algebra.predicates import VarRef

        tree = Join(
            Unnest(Get("Tasks", "t"), "t", "team_members", "m"),
            Get("Employees", "e"),  # named set, not the extent
            Conjunction.of(Comparison(VarRef("m"), CompOp.EQ, SelfOid("e"))),
        )
        memo, gid = _memo_for(tree)
        assert _apply(T.JoinToMat(), memo, gid) == []

    def test_mat_into_join(self):
        join = Join(
            Get("Employees", "e"),
            Get("extent(Job)", "j"),
            _eq(RefAttr("e", "job"), SelfOid("j")),
        )
        tree = Mat(join, RefSource("e", "department"), "e.department")
        memo, gid = _memo_for(tree)
        trees = _apply(T.MatIntoJoin(), memo, gid)
        assert len(trees) == 1
        op, children = trees[0]
        assert isinstance(op, Join)
        left = children[0]
        assert isinstance(left[0], Mat)  # pushed into the employee side

    def test_mat_out_of_join(self):
        inner = Mat(Get("Employees", "e"), RefSource("e", "department"), "e.department")
        tree = Join(
            inner,
            Get("extent(Job)", "j"),
            _eq(RefAttr("e", "job"), SelfOid("j")),
        )
        memo, gid = _memo_for(tree)
        trees = _apply(T.MatOutOfJoin(), memo, gid)
        assert len(trees) == 1
        assert isinstance(trees[0][0], Mat)

    def test_mat_out_of_join_blocked_by_predicate(self):
        """A Mat whose output the join predicate uses cannot move above it."""
        inner = Mat(Get("Employees", "e"), RefSource("e", "department"), "d")
        tree = Join(
            inner,
            Get("extent(Job)", "j"),
            _eq(FieldRef("d", "floor"), FieldRef("j", "pay_grade")),
        )
        memo, gid = _memo_for(tree)
        assert _apply(T.MatOutOfJoin(), memo, gid) == []


_CITY_MATS = Mat(
    Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
    RefSource("c", "country"),
    "c.country",
)
_DEPT_OVER_JOIN = Mat(
    Join(
        Get("Employees", "e"),
        Get("extent(Job)", "j"),
        _eq(RefAttr("e", "job"), SelfOid("j")),
    ),
    RefSource("e", "department"),
    "e.department",
)
_JOIN_OVER_DEPT = Join(
    Mat(Get("Employees", "e"), RefSource("e", "department"), "e.department"),
    Get("extent(Job)", "j"),
    _eq(RefAttr("e", "job"), SelfOid("j")),
)
_MAYOR_OVER_SELECT = Mat(
    Select(Get("Cities", "c"), CITY_NAME), RefSource("c", "mayor"), "c.mayor"
)


class TestTraversalGuard:
    """A Mat whose output is a traversal output stays where it is."""

    @pytest.mark.parametrize(
        "rule, tree, traversal",
        [
            (T.MatToJoin(), _CITY_MATS, "c.country"),
            (T.MatCommutativity(), _CITY_MATS, "c.country"),
            (T.MatCommutativity(), _CITY_MATS, "c.mayor"),
            (T.MatIntoJoin(), _DEPT_OVER_JOIN, "e.department"),
            (T.MatOutOfJoin(), _JOIN_OVER_DEPT, "e.department"),
            (T.MatPastSelect(), _MAYOR_OVER_SELECT, "c.mayor"),
        ],
        ids=["to-join", "commute-outer", "commute-inner", "into-join",
             "out-of-join", "past-select"],
    )
    def test_rule_leaves_a_traversal_mat_alone(self, rule, tree, traversal):
        memo, gid = _memo_for(tree)
        assert _apply(rule, memo, gid)
        memo.traversals = frozenset({traversal})
        assert _apply(rule, memo, gid) == []

    def test_selects_still_sink_below_a_traversal_mat(self):
        tree = Select(
            Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
            CITY_NAME,
        )
        memo, gid = _memo_for(tree)
        memo.traversals = frozenset({"c.mayor"})
        assert len(_apply(T.SelectPastMat(), memo, gid)) == 1
