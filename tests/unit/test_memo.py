"""Unit tests for the memo: dedup, groups, merging, property derivation."""

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
)
from repro.catalog.sample_db import build_catalog, index_cities_mayor_name
from repro.optimizer.logical_props import build_query_vars
from repro.optimizer.memo import Memo
from repro.optimizer.selectivity import SelectivityModel


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
        assert memo.find(gid) == memo.find(root)


class TestMerging:
    def test_target_conflict_merges_groups(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        root = memo.insert_expression(tree)
        other = memo.insert_expression(
            Mat(Get("Cities", "c"), RefSource("c", "country"), "c.country")
        )
        assert memo.find(root) != memo.find(other)
        # Claim the root m-expr belongs in `other`'s group: they must merge.
        select_mexpr = memo.group(root).mexprs[0]
        memo.insert_mexpr(select_mexpr.op, select_mexpr.children, target_gid=other)
        assert memo.find(root) == memo.find(other)
        assert memo.merge_count == 1

    def test_dedup_group_after_merge(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        root = memo.insert_expression(tree)
        memo.dedup_group(root)
        keys = [
            (m.op.signature(), tuple(memo.find(c) for c in m.children))
            for m in memo.group(root).mexprs
        ]
        assert len(keys) == len(set(keys))


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
        """The paper-critical invariant: Mat and its Join rewriting land in
        (potentially) different groups with the SAME cardinality."""
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
        join_gid = memo.insert_expression(join_tree)
        assert memo.group(mat_gid).props.cardinality == pytest.approx(
            memo.group(join_gid).props.cardinality
        )

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

    def test_group_and_find_agree_after_merges(self):
        tree = _mayor_tree()
        memo = _memo(tree)
        root = memo.insert_expression(tree)
        leaf = memo.insert_expression(Get("Cities", "c"))
        memo.insert_tree((Get("Cities", "c"), ()), target_gid=root)
        assert memo.find(leaf) == memo.find(root)
        assert memo.group(leaf) is memo.group(root)
        assert memo.group(leaf).gid == memo.find(leaf)
