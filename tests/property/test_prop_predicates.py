"""Property-based tests for the predicate language (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

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
from repro.engine.tuples import Obj, lower
from repro.storage.objects import Oid

VARS = ("a", "b", "c", "d")
ATTRS = ("x", "y", "z")

terms = st.one_of(
    st.integers(-5, 5).map(Const),
    st.sampled_from(VARS).flatmap(
        lambda v: st.sampled_from(ATTRS).map(lambda a: FieldRef(v, a))
    ),
    st.sampled_from(VARS).flatmap(
        lambda v: st.sampled_from(ATTRS).map(lambda a: RefAttr(v, a))
    ),
    st.sampled_from(VARS).map(SelfOid),
    st.sampled_from(VARS).map(VarRef),
)

comparisons = st.builds(
    Comparison, terms, st.sampled_from(list(CompOp)), terms
)

conjunctions = st.lists(comparisons, max_size=6).map(
    Conjunction.from_iterable
)


class TestCanonicalisation:
    @given(comparisons)
    def test_canonical_idempotent(self, comp):
        assert comp.canonical() == comp.canonical().canonical()

    @given(comparisons)
    def test_canonical_preserves_vars(self, comp):
        assert comp.canonical().vars == comp.vars
        assert comp.canonical().memory_vars == comp.memory_vars

    @given(st.lists(comparisons, max_size=6))
    def test_conjunction_order_insensitive(self, comps):
        forward = Conjunction.from_iterable(comps)
        backward = Conjunction.from_iterable(reversed(comps))
        assert forward == backward
        assert hash(forward) == hash(backward)

    @given(conjunctions)
    def test_conjoin_identity(self, conj):
        assert conj.conjoin(Conjunction.true()) == conj

    @given(conjunctions, conjunctions)
    def test_conjoin_commutative(self, a, b):
        assert a.conjoin(b) == b.conjoin(a)


class TestSplitLaws:
    @given(conjunctions, st.frozensets(st.sampled_from(VARS)))
    def test_split_partitions(self, conj, available):
        inside, outside = conj.split_by_vars(available)
        assert inside.conjoin(outside) == conj

    @given(conjunctions, st.frozensets(st.sampled_from(VARS)))
    def test_split_respects_availability(self, conj, available):
        inside, outside = conj.split_by_vars(available)
        assert inside.vars <= available
        for comp in outside.comparisons:
            assert not (comp.vars <= available)

    @given(conjunctions)
    def test_without_each_comparison(self, conj):
        for comp in conj.comparisons:
            reduced = conj.without(comp)
            assert len(reduced.comparisons) == len(conj.comparisons) - 1
            assert comp not in reduced.comparisons


@st.composite
def rows(draw):
    row = {}
    for i, var in enumerate(VARS):
        data = {attr: draw(st.integers(-5, 5)) for attr in ATTRS}
        row[var] = Obj(Oid("T", i), data)
    return row


class TestEvaluationConsistency:
    @given(comparisons.filter(lambda c: "z" not in str(c)), rows())
    def test_canonical_evaluates_identically(self, comp, row):
        assert lower(comp)(row) == lower(comp.canonical())(row)

    @given(st.lists(comparisons.filter(lambda c: "z" not in str(c)), max_size=4), rows())
    def test_conjunction_is_logical_and(self, comps, row):
        conj = Conjunction.from_iterable(comps)
        assert lower(conj)(row) == all(
            lower(c)(row) for c in conj.comparisons
        )


# Two variables, each with an int field ``i``, a str field ``s`` and a
# field ``m`` of either kind; any field may be null.
RULE_VARS = ("a", "b")
INTS = st.integers(-3, 3)
STRS = st.sampled_from(("a", "b", "c"))
OPS = st.sampled_from(list(CompOp))

rule_terms = st.one_of(
    st.one_of(st.none(), INTS, STRS).map(Const),
    st.sampled_from([FieldRef(v, a) for v in RULE_VARS for a in ("i", "s", "m")]),
    st.sampled_from([SelfOid(v) for v in RULE_VARS]),
)
# Any two terms — null constants and mixed kinds included — and, drawn
# on purpose because two random terms rarely coincide, a term with itself.
rule_comparisons = st.one_of(
    st.builds(Comparison, rule_terms, OPS, rule_terms),
    st.builds(lambda term, op: Comparison(term, op, term), rule_terms, OPS),
)


@st.composite
def rule_rows(draw):
    return {
        var: Obj(
            Oid("T", n),
            {
                "i": draw(st.none() | INTS),
                "s": draw(st.none() | STRS),
                "m": draw(st.none() | INTS | STRS),
            },
        )
        for n, var in enumerate(RULE_VARS)
    }


class TestArgumentRulesKeepEvaluation:
    """The argument rules may change what a predicate costs, never which
    rows it keeps: the normalized conjunction (a contradiction keeps
    none) agrees with the engine's evaluation of the original."""

    @given(
        st.lists(rule_comparisons, min_size=1, max_size=5),
        st.lists(rule_rows(), min_size=1, max_size=4),
    )
    def test_normalized_predicate_keeps_the_same_rows(self, comps, rows):
        from repro.simplify.argument_rules import normalize_predicate

        conj = Conjunction.from_iterable(comps)
        normalized = normalize_predicate(conj)
        original = lower(conj)
        rewritten = None if normalized.contradiction else lower(normalized.predicate)
        for row in rows:
            kept = rewritten is not None and rewritten(row)
            assert kept == original(row), (str(conj), str(normalized.predicate))
