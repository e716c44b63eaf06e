"""Unit tests for the Lesson 9 argument transformation rules."""

from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    RefAttr,
    SelfOid,
)
from repro.simplify.argument_rules import ALL_RULES, normalize_predicate

POP = FieldRef("c", "population")
NAME = FieldRef("c", "name")
SELF = SelfOid("c")


def comp(l, op, r):
    return Comparison(l, op, r)


def conj(*comps):
    return Conjunction.from_iterable(comps)


class TestFoldConstants:
    def test_true_constant_dropped(self):
        result = normalize_predicate(
            conj(comp(Const(1), CompOp.LT, Const(2)), comp(POP, CompOp.EQ, Const(5)))
        )
        assert not result.contradiction
        assert len(result.predicate.comparisons) == 1

    def test_false_constant_poisons(self):
        result = normalize_predicate(conj(comp(Const(2), CompOp.LT, Const(1))))
        assert result.contradiction

    def test_type_mismatch_is_false(self):
        result = normalize_predicate(conj(comp(Const("a"), CompOp.LT, Const(1))))
        assert result.contradiction

    def test_null_constant_poisons(self):
        for op in CompOp:
            for left, right in ((POP, Const(None)), (Const(None), POP)):
                assert normalize_predicate(conj(comp(left, op, right))).contradiction
        both = normalize_predicate(conj(comp(Const(None), CompOp.EQ, Const(None))))
        assert both.contradiction


class TestDropTautologies:
    def test_t_eq_t_dropped(self):
        # A field may be null, and null == null is false: the comparison
        # is a null test and stays.  An identity is never null.
        kept = normalize_predicate(conj(comp(POP, CompOp.EQ, POP)))
        assert kept.predicate == conj(comp(POP, CompOp.EQ, POP))
        dropped = normalize_predicate(conj(comp(SELF, CompOp.EQ, SELF)))
        assert not dropped.contradiction
        assert dropped.predicate.is_true

    def test_t_ne_t_poisons(self):
        result = normalize_predicate(conj(comp(POP, CompOp.NE, POP)))
        assert result.contradiction

    def test_le_ge_self_true(self):
        for op in (CompOp.LE, CompOp.GE):
            kept = normalize_predicate(conj(comp(POP, op, POP)))
            assert kept.predicate == conj(comp(POP, op, POP))
            assert normalize_predicate(conj(comp(SELF, op, SELF))).predicate.is_true


class TestTightenBounds:
    def test_redundant_lower_bound_dropped(self):
        result = normalize_predicate(
            conj(comp(POP, CompOp.GT, Const(3)), comp(POP, CompOp.GT, Const(5)))
        )
        assert result.predicate == conj(comp(POP, CompOp.GT, Const(5)))

    def test_equalities_conflict(self):
        result = normalize_predicate(
            conj(comp(POP, CompOp.EQ, Const(1)), comp(POP, CompOp.EQ, Const(2)))
        )
        assert result.contradiction

    def test_empty_interval(self):
        result = normalize_predicate(
            conj(comp(POP, CompOp.LT, Const(2)), comp(POP, CompOp.GT, Const(7)))
        )
        assert result.contradiction

    def test_touching_strict_bounds_empty(self):
        result = normalize_predicate(
            conj(comp(POP, CompOp.LT, Const(5)), comp(POP, CompOp.GE, Const(5)))
        )
        assert result.contradiction

    def test_touching_inclusive_bounds_become_equality(self):
        result = normalize_predicate(
            conj(comp(POP, CompOp.LE, Const(5)), comp(POP, CompOp.GE, Const(5)))
        )
        assert result.predicate == conj(comp(POP, CompOp.EQ, Const(5)))

    def test_eq_excluded_by_ne(self):
        result = normalize_predicate(
            conj(comp(POP, CompOp.EQ, Const(5)), comp(POP, CompOp.NE, Const(5)))
        )
        assert result.contradiction

    def test_distinct_terms_independent(self):
        result = normalize_predicate(
            conj(
                comp(POP, CompOp.GT, Const(3)),
                comp(NAME, CompOp.EQ, Const("x")),
            )
        )
        assert len(result.predicate.comparisons) == 2

    def test_mixed_type_bounds_survive(self):
        """Unorderable constants disable the analysis but keep semantics."""
        result = normalize_predicate(
            conj(comp(POP, CompOp.GT, Const(3)), comp(POP, CompOp.GT, Const("a")))
        )
        assert not result.contradiction
        assert len(result.predicate.comparisons) == 2

    def test_flipped_constant_side(self):
        result = normalize_predicate(
            conj(comp(Const(5), CompOp.GT, POP), comp(Const(2), CompOp.GT, POP))
        )
        assert result.predicate == conj(comp(POP, CompOp.LT, Const(2)))


class TestPropagateEqualities:
    def test_transitive_closure_added(self):
        a = RefAttr("e", "department")
        b = SelfOid("d")
        c = RefAttr("x", "department")
        result = normalize_predicate(
            conj(comp(a, CompOp.EQ, b), comp(b, CompOp.EQ, c)),
            rules=ALL_RULES,
        )
        assert comp(a, CompOp.EQ, c).canonical() in result.predicate.comparisons

    def test_off_by_default(self):
        a = RefAttr("e", "department")
        b = SelfOid("d")
        c = RefAttr("x", "department")
        result = normalize_predicate(
            conj(comp(a, CompOp.EQ, b), comp(b, CompOp.EQ, c))
        )
        assert len(result.predicate.comparisons) == 2

    def test_constants_not_unioned(self):
        result = normalize_predicate(
            conj(comp(POP, CompOp.EQ, Const(5))), rules=ALL_RULES
        )
        assert len(result.predicate.comparisons) == 1


class TestEngine:
    def test_fixpoint_idempotent(self):
        predicate = conj(
            comp(POP, CompOp.GT, Const(3)),
            comp(POP, CompOp.GT, Const(5)),
            comp(NAME, CompOp.EQ, Const("x")),
        )
        once = normalize_predicate(predicate)
        twice = normalize_predicate(once.predicate)
        assert once.predicate == twice.predicate

    def test_true_stays_true(self):
        result = normalize_predicate(Conjunction.true())
        assert result.predicate.is_true
        assert not result.contradiction

    def test_contradiction_short_circuits(self):
        result = normalize_predicate(
            conj(
                comp(Const(1), CompOp.EQ, Const(2)),
                comp(POP, CompOp.GT, Const(3)),
            )
        )
        assert result.contradiction
        assert result.predicate.is_true  # payload cleared


class TestSimplifierIntegration:
    def test_contradictory_query_yields_false_filter(self, indexed_db):
        result = indexed_db.query(
            "SELECT * FROM c IN Cities "
            "WHERE c.population == 1 AND c.population == 2"
        )
        assert result.rows == []
        assert result.optimization.plan.rows == 0

    def test_redundant_bounds_simplified_in_tree(self, indexed_db):
        sq = indexed_db.simplify(
            "SELECT * FROM c IN Cities "
            "WHERE c.population > 3 AND c.population > 500000"
        )
        from repro.algebra.operators import Select

        select = sq.tree
        while not isinstance(select, Select):
            select = select.children[0]
        assert len(select.predicate.comparisons) == 1
