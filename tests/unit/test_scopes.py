"""Unit tests for scope derivation — the algebra's type checker."""

import pytest

from repro.algebra.operators import (
    Get,
    Join,
    Mat,
    Project,
    ProjectItem,
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
    ObjectTerm,
    RefAttr,
    SelfOid,
    VarRef,
)
from repro.algebra.scopes import BindingKind, Scope, VarBinding, derive_scope_tree
from repro.catalog.sample_db import build_catalog
from repro.errors import AlgebraError


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def _eq(left, right):
    return Conjunction.of(Comparison(left, CompOp.EQ, right))


class TestScopeContainer:
    def test_duplicate_name_rejected(self):
        b = VarBinding("c", "City", BindingKind.OBJECT)
        with pytest.raises(AlgebraError):
            Scope.of(b, b)

    def test_merge_disjoint(self):
        a = Scope.of(VarBinding("c", "City", BindingKind.OBJECT))
        b = Scope.of(VarBinding("d", "Department", BindingKind.OBJECT))
        assert a.merge(b).names == {"c", "d"}

    def test_merge_overlap_rejected(self):
        a = Scope.of(VarBinding("c", "City", BindingKind.OBJECT))
        with pytest.raises(AlgebraError):
            a.merge(a)

    def test_object_names_excludes_refs(self):
        s = Scope.of(
            VarBinding("t", "Task", BindingKind.OBJECT),
            VarBinding("m", "Employee", BindingKind.REF),
        )
        assert s.object_names == {"t"}
        assert s.names == {"t", "m"}


class TestScopeRules:
    def test_get_binds_object(self, catalog):
        scope = derive_scope_tree(Get("Cities", "c"), catalog)
        assert scope.binding("c").type_name == "City"
        assert scope.binding("c").kind is BindingKind.OBJECT

    def test_mat_extends_scope(self, catalog):
        tree = Mat(Get("Cities", "c"), RefSource("c", "mayor"), "c.mayor")
        scope = derive_scope_tree(tree, catalog)
        assert scope.binding("c.mayor").type_name == "Person"

    def test_mat_of_scalar_rejected(self, catalog):
        tree = Mat(Get("Cities", "c"), RefSource("c", "name"), "x")
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_mat_unknown_source_rejected(self, catalog):
        tree = Mat(Get("Cities", "c"), RefSource("z", "mayor"), "x")
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_mat_duplicate_out_rejected(self, catalog):
        tree = Mat(
            Mat(Get("Cities", "c"), RefSource("c", "mayor"), "m"),
            RefSource("c", "country"),
            "m",
        )
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_unnest_binds_reference(self, catalog):
        tree = Unnest(Get("Tasks", "t"), "t", "team_members", "m")
        scope = derive_scope_tree(tree, catalog)
        assert scope.binding("m").kind is BindingKind.REF
        assert scope.binding("m").type_name == "Employee"

    def test_unnest_of_single_ref_rejected(self, catalog):
        tree = Unnest(Get("Cities", "c"), "c", "mayor", "m")
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_mat_of_unnest_ref(self, catalog):
        tree = Mat(
            Unnest(Get("Tasks", "t"), "t", "team_members", "m"),
            RefSource("m", None),
            "e",
        )
        scope = derive_scope_tree(tree, catalog)
        assert scope.binding("e").kind is BindingKind.OBJECT
        assert scope.binding("e").type_name == "Employee"

    def test_bare_mat_of_object_rejected(self, catalog):
        tree = Mat(Get("Cities", "c"), RefSource("c", None), "e")
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)


class TestPredicateChecking:
    def test_select_over_unbound_var_rejected(self, catalog):
        pred = _eq(FieldRef("z", "name"), Const("x"))
        with pytest.raises(AlgebraError):
            derive_scope_tree(Select(Get("Cities", "c"), pred), catalog)

    def test_field_access_on_ref_binding_rejected(self, catalog):
        tree = Select(
            Unnest(Get("Tasks", "t"), "t", "team_members", "m"),
            _eq(FieldRef("m", "name"), Const("Fred")),
        )
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_varref_on_ref_binding_ok(self, catalog):
        tree = Join(
            Unnest(Get("Tasks", "t"), "t", "team_members", "m"),
            Get("extent(Employee)", "e"),
            _eq(VarRef("m"), SelfOid("e")),
        )
        derive_scope_tree(tree, catalog)

    def test_varref_on_object_binding_rejected(self, catalog):
        tree = Select(Get("Cities", "c"), _eq(VarRef("c"), Const(1)))
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_fieldref_on_reference_attr_rejected(self, catalog):
        tree = Select(
            Get("Cities", "c"), _eq(FieldRef("c", "mayor"), Const(1))
        )
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_refattr_on_scalar_rejected(self, catalog):
        tree = Select(
            Get("Cities", "c"), _eq(RefAttr("c", "name"), Const(1))
        )
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_objectterm_in_predicate_rejected(self, catalog):
        from repro.algebra.predicates import ObjectTerm

        pred = Conjunction.of(
            Comparison(ObjectTerm("c"), CompOp.EQ, Const(1))
        )
        with pytest.raises(AlgebraError):
            derive_scope_tree(Select(Get("Cities", "c"), pred), catalog)


class TestJoinProjectSetOp:
    def test_join_merges_scopes(self, catalog):
        tree = Join(
            Get("Employees", "e"),
            Get("extent(Department)", "d"),
            _eq(RefAttr("e", "department"), SelfOid("d")),
        )
        assert derive_scope_tree(tree, catalog).names == {"e", "d"}

    def test_join_overlapping_vars_rejected(self, catalog):
        tree = Join(Get("Cities", "c"), Get("Cities", "c"), Conjunction.true())
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_project_empties_scope(self, catalog):
        tree = Project(
            Get("Cities", "c"),
            (ProjectItem("name", FieldRef("c", "name")),),
        )
        assert derive_scope_tree(tree, catalog).names == frozenset()

    def test_project_validates_items(self, catalog):
        tree = Project(
            Get("Cities", "c"), (ProjectItem("x", FieldRef("z", "name")),)
        )
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_setop_requires_same_scope(self, catalog):
        tree = SetOp(
            SetOpKind.UNION, Get("Cities", "c"), Get("Capitals", "k")
        )
        with pytest.raises(AlgebraError):
            derive_scope_tree(tree, catalog)

    def test_setop_same_scope_ok(self, catalog):
        tree = SetOp(SetOpKind.UNION, Get("Cities", "c"), Get("Cities", "c"))
        # Same var over the same element type: scopes match exactly.
        assert derive_scope_tree(tree, catalog).names == {"c"}


class TestComputedOnce:
    def _scope(self):
        return Scope.of(
            VarBinding("c", "City", BindingKind.OBJECT),
            VarBinding("m_ref", "Employee", BindingKind.REF),
            VarBinding("c.mayor", "Person", BindingKind.OBJECT),
        )

    def test_name_sets_and_lookup(self):
        scope = self._scope()
        assert scope.names == {"c", "m_ref", "c.mayor"}
        assert scope.object_names == {"c", "c.mayor"}
        assert scope.names is scope.names  # derived once, not per access
        assert scope.binding("m_ref").kind is BindingKind.REF
        assert scope.has("c") and not scope.has("zzz")
        with pytest.raises(AlgebraError):
            scope.binding("zzz")

    def test_derived_values_follow_the_bindings(self):
        import copy
        import dataclasses
        import pickle

        scope = self._scope()
        assert not hasattr(scope, "__dict__")
        assert [f.name for f in dataclasses.fields(scope)] == ["bindings"]
        smaller = dataclasses.replace(scope, bindings=scope.bindings[:1])
        assert smaller.names == {"c"} and not smaller.has("c.mayor")
        for clone in (pickle.loads(pickle.dumps(scope)), copy.deepcopy(scope)):
            assert clone == scope and clone.object_names == scope.object_names
        assert scope.extend(
            VarBinding("n", "Country", BindingKind.OBJECT)
        ).names == scope.names | {"n"}
