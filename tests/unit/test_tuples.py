"""Unit tests for runtime tuples and term evaluation."""

import pytest

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
from repro.engine.tuples import (
    Obj,
    lower,
    lower_key,
    row_key,
    value_key,
)
from repro.errors import ExecutionError
from repro.storage.objects import Oid


@pytest.fixture()
def row():
    mayor = Oid("Person", 7)
    return {
        "c": Obj(Oid("City", 1), {"name": "springfield", "mayor": mayor}),
        "m": mayor,  # a REF binding
        "ghost": Obj(Oid("City", 2), None),  # in scope, not resident
    }


class TestEvalTerm:
    def test_const(self, row):
        assert lower(Const(5))(row) == 5

    def test_field_ref(self, row):
        assert lower(FieldRef("c", "name"))(row) == "springfield"

    def test_ref_attr(self, row):
        assert lower(RefAttr("c", "mayor"))(row) == Oid("Person", 7)

    def test_self_oid(self, row):
        assert lower(SelfOid("c"))(row) == Oid("City", 1)

    def test_var_ref(self, row):
        assert lower(VarRef("m"))(row) == Oid("Person", 7)

    def test_object_term(self, row):
        obj = lower(ObjectTerm("c"))(row)
        assert obj.oid == Oid("City", 1)

    def test_field_of_nonresident_raises(self, row):
        with pytest.raises(ExecutionError):
            lower(FieldRef("ghost", "name"))(row)

    def test_object_term_nonresident_raises(self, row):
        with pytest.raises(ExecutionError):
            lower(ObjectTerm("ghost"))(row)

    def test_missing_var_raises(self, row):
        with pytest.raises(ExecutionError):
            lower(FieldRef("zzz", "name"))(row)

    def test_missing_attribute_is_none(self, row):
        assert lower(FieldRef("c", "salary"))(row) is None


class TestEvalPredicate:
    def test_comparison_true_false(self, row):
        eq = Comparison(FieldRef("c", "name"), CompOp.EQ, Const("springfield"))
        ne = Comparison(FieldRef("c", "name"), CompOp.EQ, Const("shelbyville"))
        assert lower(eq)(row)
        assert not lower(ne)(row)

    def test_oid_equality(self, row):
        comp = Comparison(RefAttr("c", "mayor"), CompOp.EQ, VarRef("m"))
        assert lower(comp)(row)

    def test_null_comparisons_false(self, row):
        comp = Comparison(FieldRef("c", "salary"), CompOp.EQ, Const(None))
        assert not lower(comp)(row)

    def test_type_mismatch_false_not_raise(self, row):
        comp = Comparison(FieldRef("c", "name"), CompOp.LT, Const(5))
        assert not lower(comp)(row)

    def test_conjunction_all_semantics(self, row):
        good = Comparison(FieldRef("c", "name"), CompOp.EQ, Const("springfield"))
        bad = Comparison(FieldRef("c", "name"), CompOp.EQ, Const("x"))
        assert lower(Conjunction.of(good))(row)
        assert not lower(Conjunction.of(good, bad))(row)
        assert lower(Conjunction.true())(row)

    @pytest.mark.parametrize(
        "comparison",
        [
            Comparison(FieldRef("x", "v"), CompOp.GE, Const(0)),
            Comparison(FieldRef("x", "w"), CompOp.EQ, Const(None)),
            Comparison(FieldRef("x", "s"), CompOp.LT, Const(6)),
        ],
        ids=["null-attribute", "null-constant", "type-error"],
    )
    def test_conjunction_null_and_type_mismatch_false(self, comparison):
        row = {"x": Obj(Oid("T", 0), {"v": None, "w": 1, "s": "five"})}
        always = Comparison(FieldRef("x", "w"), CompOp.EQ, Const(1))
        for expr in (comparison, Conjunction.of(comparison), Conjunction.of(always, comparison)):
            assert lower(expr)(row) is False
        assert lower(Conjunction.of(always))(row) is True
        assert lower(Conjunction.true())(row) is True


class TestKeys:
    def test_lowered_key_is_a_tuple_of_value_keys(self, row):
        terms = (ObjectTerm("c"), FieldRef("c", "salary"), VarRef("m"))
        assert lower_key(terms)(row) == (Oid("City", 1), None, Oid("Person", 7))
        assert lower_key(terms[:1])(row) == (Oid("City", 1),)
        assert lower_key(())(row) == ()

    def test_value_key_obj_by_identity(self, row):
        assert value_key(row["c"]) == Oid("City", 1)
        assert value_key(42) == 42

    def test_row_key_order_insensitive(self, row):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert row_key(a) == row_key(b)

    def test_row_key_distinguishes_objects(self):
        a = {"c": Obj(Oid("City", 1), {})}
        b = {"c": Obj(Oid("City", 2), {})}
        assert row_key(a) != row_key(b)
