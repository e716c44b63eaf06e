"""Unit tests for the memo: dedup, group keys, property derivation."""

import pytest

from repro.algebra.operators import (
    Get,
    Join,
    Mat,
    RefSource,
    Select,
    SetOp,
    SetOpKind,
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
    VarRef,
)
from repro.catalog.sample_db import build_catalog, index_cities_mayor_name
from repro.errors import OptimizerError
from repro.optimizer.logical_props import build_query_vars, derive_cardinality
from repro.optimizer.memo import Memo
from repro.optimizer.selectivity import SelectivityModel
from repro.optimizer.transformations import JoinAssociativity


def _memo(tree):
    catalog = build_catalog()
    catalog.add_index(index_cities_mayor_name())
    qvars = build_query_vars(tree, catalog)
    return Memo(catalog, SelectivityModel(catalog, qvars))


def _mayor_tree():
    return Select(
        Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor"),
        Conjunction.of(
            Comparison(FieldRef("c.mayor", "name"), CompOp.EQ, Const("Joe"))
        ),
    )


class TestInsertion:
    def test_tree_creates_group_per_operator(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        memo.insert_expression(tree)
        assert len(memo.groups()) == 3

    def test_duplicate_insertion_dedups(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        g1 = memo.insert_expression(tree)
        before = memo.mexpr_count
        g2 = memo.insert_expression(tree)
        assert g1 == g2
        assert memo.mexpr_count == before

    def test_common_subexpression_shared(self):
        """Two expressions over the same Get share the leaf group."""
        tree = _mayor_tree()
        memo = _memo(tree)
        memo.insert_expression(tree)
        other = Mat(Get("Cities", "c"), RefSource("c", "country"), "c.country")
        memo.insert_expression(other)
        get_groups = [
            g
            for g in memo.groups()
            if any(isinstance(m.op, Get) for m in g.mexprs)
        ]
        assert len(get_groups) == 1

    def test_insert_tree_with_group_reuse(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        root = memo.insert_expression(tree)
        mat_gid = next(
            g.gid
            for g in memo.groups()
            if any(isinstance(m.op, Mat) for m in g.mexprs)
        )
        # Insert the same Select over the existing Mat group: dedups into root.
        gid = memo.insert_tree((tree, (mat_gid,)), target_gid=None)
        assert gid == root


def _equals(left, right):
    return Conjunction.of(Comparison(left, CompOp.EQ, right))


def _team_members():
    """Each task's team members: ``m`` is a reference to an Employee."""
    return Unnest(Get("Tasks", "t"), "t", "team_members", "m")


class TestGroupKeys:
    """A group is found by what it computes, on insertion: what used to be
    found equivalent later and merged now lands in its group at once."""

    def test_associativity_output_lands_in_the_existing_group(self):
        cities, countries = Get("Cities", "c"), Get("extent(Country)", "n")
        people = Get("extent(Person)", "p")
        country = _equals(RefAttr("c", "country"), SelfOid("n"))
        president = _equals(RefAttr("n", "president"), SelfOid("p"))
        tree = Join(Join(cities, countries, country), people, president)
        memo = _memo(tree)
        root = memo.insert_expression(tree)
        right = memo.insert_expression(Join(countries, people, president))
        groups = len(memo.groups())
        (mexpr,) = memo.group(root).mexprs
        (left,) = memo.group(mexpr.children[0]).mexprs
        rule = JoinAssociativity()
        (output,) = rule.apply(mexpr, memo, [left])
        assert memo.insert_tree(output, root, rule.name) == root
        assert len(memo.groups()) == groups
        assert memo.group(root).mexprs[-1].children[1] == right

    def test_mat_and_its_extent_join_share_a_group(self):
        mat = Mat(Get("Cities", "c"), RefSource("c", "country"), "n")
        memo = _memo(mat)
        join = Join(
            Get("Cities", "c"),
            Get("extent(Country)", "n"),
            _equals(RefAttr("c", "country"), SelfOid("n")),
        )
        assert memo.insert_expression(join) == memo.insert_expression(mat)

    def test_a_named_set_join_does_not_share_it(self):
        """``Employees`` is not the Employee extent: a Mat of a member
        reference is the extent join, never the join with the named set."""
        mat = Mat(_team_members(), RefSource("m", None), "e")
        memo = _memo(mat)
        mat_gid = memo.insert_expression(mat)

        def join(collection):
            return Join(
                _team_members(),
                Get(collection, "e"),
                _equals(VarRef("m"), SelfOid("e")),
            )

        assert memo.insert_expression(join("extent(Employee)")) == mat_gid
        assert memo.insert_expression(join("Employees")) != mat_gid

    def test_a_conflicting_target_raises_and_names_the_rule(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        root = memo.insert_expression(tree)
        other = memo.insert_expression(
            Mat(Get("Cities", "c"), RefSource("c", "country"), "c.country")
        )
        select = memo.group(root).mexprs[0]
        with pytest.raises(OptimizerError, match="some-rule"):
            memo.insert_mexpr(select.op, select.children, other, "some-rule")
        assert memo.group(other).mexprs[0].op != select.op


class TestLogicalProps:
    def test_get_cardinality(self):
        tree = Get("Cities", "c")
        memo = _memo(tree)
        gid = memo.insert_expression(tree)
        assert memo.group(gid).props.cardinality == 10_000

    def test_mat_preserves_cardinality(self):
        tree = Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor")
        memo = _memo(tree)
        gid = memo.insert_expression(tree)
        assert memo.group(gid).props.cardinality == 10_000
        assert memo.group(gid).props.scope.names == {"c", "c.mayor"}

    def test_select_applies_selectivity(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        gid = memo.insert_expression(tree)
        # Path index distinct = 5000 -> 10000/5000 = 2 qualifying cities.
        assert memo.group(gid).props.cardinality == pytest.approx(2.0)

    def test_unnest_fanout(self):
        tree = Unnest(Get("Tasks", "t"), "t", "team_members", "m")
        memo = _memo(tree)
        gid = memo.insert_expression(tree)
        assert memo.group(gid).props.cardinality == pytest.approx(12_000 * 8)

    def test_mat_join_consistency(self):
        """The paper-critical invariant: Mat and its Join rewriting share a
        group, so each must estimate the group's cardinality."""
        mat_tree = Mat(Get("Cities", "c"), RefSource("c", "country"), "c.country")
        memo = _memo(mat_tree)
        mat_gid = memo.insert_expression(mat_tree)
        join_tree = Join(
            Get("Cities", "c"),
            Get("extent(Country)", "c.country"),
            Conjunction.of(
                Comparison(
                    RefAttr("c", "country"), CompOp.EQ, SelfOid("c.country")
                )
            ),
        )
        assert memo.insert_expression(join_tree) == mat_gid
        join = memo.group(mat_gid).mexprs[-1]
        rows = derive_cardinality(
            join.op,
            tuple(memo.group(c).props.cardinality for c in join.children),
            memo.selectivity,
            memo.catalog,
        )
        assert rows == pytest.approx(memo.group(mat_gid).props.cardinality)

    def test_setop_cardinalities(self):
        a = Get("Cities", "c")
        memo = _memo(a)
        union = memo.insert_expression(SetOp(SetOpKind.UNION, a, a))
        intersect = memo.insert_expression(SetOp(SetOpKind.INTERSECT, a, a))
        diff = memo.insert_expression(SetOp(SetOpKind.DIFFERENCE, a, a))
        assert memo.group(union).props.cardinality == 20_000
        assert memo.group(intersect).props.cardinality == 10_000
        assert memo.group(diff).props.cardinality == 10_000


class TestMExprIdentity:
    def test_key_is_built_once_and_dedups(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        root = memo.insert_expression(tree)
        (mexpr,) = memo.group(root).mexprs
        assert mexpr.key() is mexpr.key()
        assert mexpr.key() == (mexpr.op.signature(), mexpr.children)
        assert not hasattr(mexpr, "__dict__")
        # Re-inserting the same operator over the same inputs finds the key
        # without growing the group.
        gid, inserted = memo.insert_mexpr(mexpr.op, mexpr.children)
        assert (gid, inserted) == (root, False)
        assert memo.group(root).mexprs == [mexpr]

    def test_mexpr_is_its_own_identity(self):
        """Per-m-expr facts are keyed by the m-expr object: two entries
        with equal keys in different memos must not collide."""
        tree = _mayor_tree()
        first, second = _memo(tree), _memo(tree)
        (a,) = first.group(first.insert_expression(tree)).mexprs
        (b,) = second.group(second.insert_expression(tree)).mexprs
        assert a.key() == b.key()
        assert a != b and len({a, b}) == 2
