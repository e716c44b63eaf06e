"""Unit tests for the simple predicate language."""

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
    showing,
    term_memory_vars,
    term_vars,
)


class TestTerms:
    def test_term_vars(self):
        assert term_vars(Const(5)) == frozenset()
        assert term_vars(FieldRef("c", "name")) == {"c"}
        assert term_vars(VarRef("m")) == {"m"}

    def test_memory_vars(self):
        assert term_memory_vars(Const(5)) == frozenset()
        assert term_memory_vars(FieldRef("c", "name")) == {"c"}
        assert term_memory_vars(RefAttr("c", "mayor")) == {"c"}
        assert term_memory_vars(ObjectTerm("c")) == {"c"}
        assert term_memory_vars(SelfOid("c")) == {"c"}  # conservative
        assert term_memory_vars(VarRef("m")) == frozenset()

    def test_str_forms(self):
        assert str(FieldRef("c.mayor", "name")) == "c.mayor.name"
        assert str(SelfOid("d")) == "d.self"
        assert str(Const("Dallas")) == "'Dallas'"


class TestComparison:
    def test_canonical_swaps_symmetric(self):
        a = Comparison(FieldRef("c", "name"), CompOp.EQ, Const("x"))
        b = Comparison(Const("x"), CompOp.EQ, FieldRef("c", "name"))
        assert a.canonical() == b.canonical()

    def test_canonical_flips_inequalities(self):
        a = Comparison(FieldRef("c", "age"), CompOp.LT, Const(5))
        b = Comparison(Const(5), CompOp.GT, FieldRef("c", "age"))
        assert a.canonical() == b.canonical()

    def test_flipped_ops(self):
        assert CompOp.LT.flipped() is CompOp.GT
        assert CompOp.LE.flipped() is CompOp.GE
        assert CompOp.EQ.flipped() is CompOp.EQ

    def test_equijoin_detection(self):
        comp = Comparison(RefAttr("e", "department"), CompOp.EQ, SelfOid("d"))
        assert comp.is_equijoin_between(frozenset({"e"}), frozenset({"d"}))
        assert comp.is_equijoin_between(frozenset({"d"}), frozenset({"e"}))
        assert not comp.is_equijoin_between(frozenset({"e"}), frozenset({"x"}))

    def test_const_comparison_not_equijoin(self):
        comp = Comparison(FieldRef("e", "name"), CompOp.EQ, Const("Fred"))
        assert not comp.is_equijoin_between(frozenset({"e"}), frozenset({"d"}))

    def test_non_eq_not_equijoin(self):
        comp = Comparison(FieldRef("e", "age"), CompOp.LT, FieldRef("d", "floor"))
        assert not comp.is_equijoin_between(frozenset({"e"}), frozenset({"d"}))


class TestConjunction:
    def _abc(self):
        a = Comparison(FieldRef("c", "name"), CompOp.EQ, Const("x"))
        b = Comparison(FieldRef("c", "age"), CompOp.GE, Const(30))
        c = Comparison(FieldRef("d", "floor"), CompOp.EQ, Const(3))
        return a, b, c

    def test_order_insensitive_equality(self):
        a, b, c = self._abc()
        assert Conjunction.of(a, b, c) == Conjunction.of(c, a, b)
        assert hash(Conjunction.of(a, b)) == hash(Conjunction.of(b, a))

    def test_duplicates_collapse(self):
        a, _, _ = self._abc()
        flipped = Comparison(a.right, CompOp.EQ, a.left)
        assert len(Conjunction.of(a, flipped).comparisons) == 1

    def test_true_conjunction(self):
        assert Conjunction.true().is_true
        assert str(Conjunction.true()) == "true"

    def test_vars_and_memory_vars(self):
        a, b, c = self._abc()
        conj = Conjunction.of(a, b, c)
        assert conj.vars == {"c", "d"}
        assert conj.memory_vars == {"c", "d"}

    def test_conjoin(self):
        a, b, c = self._abc()
        merged = Conjunction.of(a).conjoin(Conjunction.of(b, c))
        assert len(merged.comparisons) == 3

    def test_split_by_vars(self):
        a, b, c = self._abc()
        conj = Conjunction.of(a, b, c)
        inside, outside = conj.split_by_vars(frozenset({"c"}))
        assert inside == Conjunction.of(a, b)
        assert outside == Conjunction.of(c)

    def test_split_everything_in(self):
        a, b, _ = self._abc()
        inside, outside = Conjunction.of(a, b).split_by_vars(frozenset({"c"}))
        assert outside.is_true

    def test_without(self):
        a, b, _ = self._abc()
        conj = Conjunction.of(a, b)
        assert conj.without(a) == Conjunction.of(b)
        # Removing by a flipped-but-equal comparison also works.
        flipped = Comparison(a.right, CompOp.EQ, a.left)
        assert conj.without(flipped) == Conjunction.of(b)


def _sample_terms(rng):
    from repro.storage.objects import Oid

    constants = [
        rng.randrange(1000), rng.random(), f"s{rng.randrange(50)}", None, True,
        Oid("City", rng.randrange(100)),
    ]
    var = rng.choice(["c", "c.mayor", "e", "d"])
    return [
        Const(rng.choice(constants)),
        # a plan-cache template's slots
        rng.choice([Const(rng.randrange(1000), 0), Const(f"t{rng.randrange(50)}", 1)]),
        FieldRef(var, rng.choice(["name", "age"])),
        RefAttr(var, rng.choice(["mayor", "department"])),
        SelfOid(var),
        VarRef(var),
    ]


def _sample_comparisons(seed=7, count=200):
    import random

    rng = random.Random(seed)
    return [
        Comparison(
            rng.choice(_sample_terms(rng)),
            rng.choice(list(CompOp)),
            rng.choice(_sample_terms(rng)),
        )
        for _ in range(count)
    ]


class TestComputedOnce:
    """Derived sets, ordering keys and hashes are computed once, on first
    read, into slots — same values as the recomputing definitions they
    replaced, nothing in an instance ``__dict__``, nothing copied by
    ``replace``."""

    def test_hash_is_the_field_tuple_hash(self):
        # Equal to the generated dataclass __hash__, so every set and dict
        # of predicates iterates in the order it always did.
        for comp in _sample_comparisons():
            assert hash(comp) == hash((comp.left, comp.op, comp.right))
        comps = _sample_comparisons()
        for start in range(0, len(comps), 3):
            conj = Conjunction.from_iterable(comps[start:start + 3])
            assert hash(conj) == hash((conj.comparisons,))

    def test_derived_sets_match_the_term_functions(self):
        for comp in _sample_comparisons():
            assert comp.vars == term_vars(comp.left) | term_vars(comp.right)
            assert comp.memory_vars == (
                term_memory_vars(comp.left) | term_memory_vars(comp.right)
            )
        comps = _sample_comparisons()
        conj = Conjunction.from_iterable(comps[:5])
        assert conj.vars == frozenset().union(*(c.vars for c in conj.comparisons))
        assert conj.memory_vars == frozenset().union(
            *(c.memory_vars for c in conj.comparisons)
        )
        assert Conjunction.true().vars == frozenset()

    def test_canonical_and_conjunct_order_unchanged(self):
        def key(term):
            return (type(term).__name__, str(term))

        comps = _sample_comparisons()
        # A conjunct's place must not depend on whose constants are shown.
        with showing((7, "shown")):
            ordered = Conjunction.from_iterable(_sample_comparisons())
        assert ordered.comparisons == Conjunction.from_iterable(comps).comparisons
        for comp in comps:
            canon = comp.canonical()
            assert key(canon.left) <= key(canon.right)
            assert canon.canonical() is canon
            if key(comp.left) <= key(comp.right):
                assert canon is comp
            else:
                assert canon == Comparison(comp.right, comp.op.flipped(), comp.left)
        conj = Conjunction.from_iterable(comps)
        assert list(conj.comparisons) == sorted(
            {c.canonical() for c in comps},
            key=lambda c: (key(c.left), c.op.value, key(c.right)),
        )
        assert str(conj) == " and ".join(str(c) for c in conj.comparisons)

    def test_no_instance_dict_and_frozen(self):
        import pytest

        comp = _sample_comparisons()[0]
        conj = Conjunction.of(comp)
        for obj in (comp, conj):
            assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            comp.left = Const(1)
        with pytest.raises(AttributeError):
            conj.comparisons = ()
        with pytest.raises(AttributeError):
            comp.no_such_attribute

    def test_pickle_and_deepcopy_round_trip(self):
        import copy
        import pickle

        comps = _sample_comparisons(count=20)
        conj = Conjunction.from_iterable(comps)
        for obj in comps + [conj]:
            for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert clone == obj and hash(clone) == hash(obj)
                assert clone.vars == obj.vars
                assert clone.memory_vars == obj.memory_vars

    def test_replace_recomputes_derived_values(self):
        import dataclasses

        comp = Comparison(FieldRef("c", "name"), CompOp.EQ, Const("x"))
        assert comp.vars == {"c"} and comp.vars is comp.vars  # filled, kept
        moved = dataclasses.replace(comp, left=FieldRef("d", "name"))
        assert moved.vars == {"d"} and moved.memory_vars == {"d"}
        assert hash(moved) == hash((moved.left, moved.op, moved.right))
        assert [f.name for f in dataclasses.fields(comp)] == ["left", "op", "right"]
        assert [f.name for f in dataclasses.fields(Conjunction)] == ["comparisons"]
