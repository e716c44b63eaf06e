"""Argument transformation rules (the paper's Lesson 9).

"We found it sometimes necessary to transform logical operator arguments
in a way that is similar to the algebraic operator transformations.
These logical argument transformations may be subject to rules completely
different than the algebraic operator transformations."

This module is that second rule engine: rules over *predicates* rather
than operators.  Each rule rewrites a conjunction into an equivalent one;
the engine runs the enabled rules to fixpoint.  Shipped rules:

``fold-constants``
    decide every comparison that needs no row (``Comparison.truth``):
    constant-vs-constant, and ``x op null`` — false for every row, as a
    comparison over None always is; true conjuncts vanish, false ones
    poison the conjunction (contradiction);
``drop-tautologies``
    ``t != t`` / ``t < t`` / ``t > t`` poison; ``t == t`` / ``t <= t`` /
    ``t >= t`` vanish only on an object's identity (``x.self``, never
    null) — on a field or a reference that may be null such a comparison
    is a null test and stays;
``tighten-bounds``
    per-term interval analysis over constant comparisons: redundant
    bounds are dropped (``x > 3 AND x > 5`` -> ``x > 5``), incompatible
    ones poison (``x == 1 AND x == 2``, ``x < 2 AND x > 7``);
``propagate-equalities``
    transitive closure of term equalities (``a == b AND b == c`` implies
    ``a == c``) — off by default because extra conjuncts skew the naive
    product-rule selectivity, but available for experimentation exactly
    as Lesson 9 envisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    SelfOid,
    Term,
)

@dataclass(frozen=True)
class NormalizedPredicate:
    """The result of argument normalization.

    ``contradiction`` means the predicate is unsatisfiable; callers may
    replace the whole subquery with an empty result.
    """

    predicate: Conjunction
    contradiction: bool = False

    @staticmethod
    def false() -> "NormalizedPredicate":
        return NormalizedPredicate(Conjunction.true(), contradiction=True)


class ArgumentRule:
    """Base class: rewrite a conjunction, possibly detecting contradiction."""

    name: str = ""

    def apply(self, normalized: NormalizedPredicate) -> NormalizedPredicate:
        """Rewrite the conjunction into an equivalent (possibly poisoned)
        one; rules run to fixpoint and must be monotone-terminating."""
        raise NotImplementedError


class FoldConstants(ArgumentRule):
    """Decide the comparisons no row is needed for, exactly."""

    name = "fold-constants"

    def apply(self, normalized: NormalizedPredicate) -> NormalizedPredicate:
        kept: list[Comparison] = []
        for comp in normalized.predicate.comparisons:
            if comp.truth is None:
                kept.append(comp)
            elif not comp.truth:
                return NormalizedPredicate.false()
            # a true conjunct contributes nothing
        return NormalizedPredicate(
            Conjunction.from_iterable(kept), normalized.contradiction
        )


class DropTautologies(ArgumentRule):
    """Poison ``t != t`` and friends; remove ``x.self == x.self`` and
    friends (a self-comparison of a nullable term is a null test)."""

    name = "drop-tautologies"

    def apply(self, normalized: NormalizedPredicate) -> NormalizedPredicate:
        kept: list[Comparison] = []
        for comp in normalized.predicate.comparisons:
            if comp.left == comp.right and not isinstance(comp.left, Const):
                if comp.op in (CompOp.NE, CompOp.LT, CompOp.GT):
                    return NormalizedPredicate.false()  # false, null or not
                if isinstance(comp.left, SelfOid):
                    continue  # an identity is never null: always true
            kept.append(comp)
        return NormalizedPredicate(
            Conjunction.from_iterable(kept), normalized.contradiction
        )


@dataclass
class _Interval:
    # None: no bound yet.  A null constant is never a bound (see apply).
    low: object | None = None
    low_strict: bool = False
    high: object | None = None
    high_strict: bool = False
    not_equal: tuple = ()

    def add(self, op: CompOp, value) -> bool:
        """Intersect with one bound; returns False if now empty.

        Raises TypeError on unorderable mixed-type bounds; the caller must
        then keep the original comparison verbatim (dropping it would
        weaken the predicate).
        """
        if op is CompOp.EQ:
            ok = self.add(CompOp.GE, value) and self.add(CompOp.LE, value)
            return ok and value not in self.not_equal
        if op is CompOp.NE:
            self.not_equal = self.not_equal + (value,)
        elif op in (CompOp.GT, CompOp.GE):
            strict = op is CompOp.GT
            if self.low is None or value > self.low or (
                value == self.low and strict and not self.low_strict
            ):
                self.low, self.low_strict = value, strict
        elif op in (CompOp.LT, CompOp.LE):
            strict = op is CompOp.LT
            if self.high is None or value < self.high or (
                value == self.high and strict and not self.high_strict
            ):
                self.high, self.high_strict = value, strict
        return not self.empty()

    def empty(self) -> bool:
        if self.low is None or self.high is None:
            return False
        try:
            if self.low > self.high:
                return True
            if self.low == self.high:
                if self.low_strict or self.high_strict:
                    return True
                return self.low in self.not_equal
        except TypeError:
            return False
        return False

    def comparisons(self, term: Term) -> list[Comparison]:
        out: list[Comparison] = []
        if (
            self.low is not None
            and self.high is not None
            and self.low == self.high
            and not (self.low_strict or self.high_strict)
        ):
            out.append(Comparison(term, CompOp.EQ, Const(self.low)))
        else:
            if self.low is not None:
                op = CompOp.GT if self.low_strict else CompOp.GE
                out.append(Comparison(term, op, Const(self.low)))
            if self.high is not None:
                op = CompOp.LT if self.high_strict else CompOp.LE
                out.append(Comparison(term, op, Const(self.high)))
        for value in dict.fromkeys(self.not_equal):
            out.append(Comparison(term, CompOp.NE, Const(value)))
        return out


class TightenBounds(ArgumentRule):
    """Per-term interval analysis over term-vs-constant comparisons."""

    name = "tighten-bounds"

    def apply(self, normalized: NormalizedPredicate) -> NormalizedPredicate:
        intervals: dict[Term, _Interval] = {}
        others: list[Comparison] = []
        for comp in normalized.predicate.comparisons:
            view = comp.term_const
            if view is None or comp.truth is not None or view[2].slot is not None:
                # Not a bound: no constant, a null one (fold-constants'), or
                # a slot, whose value changes with every binding of the
                # template — never merged by value; the plan cache lifts a
                # constant only where there is nothing to merge.
                others.append(comp)
                continue
            term, op, const = view
            interval = intervals.setdefault(term, _Interval())
            try:
                satisfiable = interval.add(op, const.value)
            except TypeError:
                # Unorderable mixed-type bound: keep the comparison as-is.
                others.append(comp)
                continue
            if not satisfiable:
                return NormalizedPredicate.false()
        rebuilt: list[Comparison] = list(others)
        for term, interval in intervals.items():
            if interval.empty():
                return NormalizedPredicate.false()
            rebuilt.extend(interval.comparisons(term))
        return NormalizedPredicate(
            Conjunction.from_iterable(rebuilt), normalized.contradiction
        )


class PropagateEqualities(ArgumentRule):
    """Transitive closure of term equalities (off by default).

    Adding implied equalities exposes extra join alternatives (the
    optimizer may match either conjunct), at the price of skewing the
    naive product-rule selectivity — the trade-off Lesson 9 invites
    experimenting with.
    """

    name = "propagate-equalities"

    def apply(self, normalized: NormalizedPredicate) -> NormalizedPredicate:
        comparisons = list(normalized.predicate.comparisons)
        parent: dict[Term, Term] = {}

        def find(t: Term) -> Term:
            parent.setdefault(t, t)
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        members: list[Term] = []
        for comp in comparisons:
            if comp.op is CompOp.EQ and not isinstance(comp.left, Const) and not isinstance(comp.right, Const):
                members.extend((comp.left, comp.right))
                ra, rb = find(comp.left), find(comp.right)
                if ra != rb:
                    parent[ra] = rb
        groups: dict[Term, list[Term]] = {}
        for term in dict.fromkeys(members):
            groups.setdefault(find(term), []).append(term)
        for group in groups.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    comparisons.append(Comparison(a, CompOp.EQ, b))
        return NormalizedPredicate(
            Conjunction.from_iterable(comparisons), normalized.contradiction
        )


DEFAULT_RULES: tuple[ArgumentRule, ...] = (
    FoldConstants(),
    DropTautologies(),
    TightenBounds(),
)

ALL_RULES: tuple[ArgumentRule, ...] = DEFAULT_RULES + (PropagateEqualities(),)

_MAX_ROUNDS = 8


def normalize_predicate(
    predicate: Conjunction,
    rules: tuple[ArgumentRule, ...] = DEFAULT_RULES,
) -> NormalizedPredicate:
    """Run argument rules to fixpoint."""
    state = NormalizedPredicate(predicate)
    for _ in range(_MAX_ROUNDS):
        before = state.predicate
        for rule in rules:
            state = rule.apply(state)
            if state.contradiction:
                return NormalizedPredicate.false()
        if state.predicate == before:
            break
    return state


__all__ = [
    "ALL_RULES",
    "ArgumentRule",
    "DEFAULT_RULES",
    "DropTautologies",
    "FoldConstants",
    "NormalizedPredicate",
    "PropagateEqualities",
    "TightenBounds",
    "normalize_predicate",
]
