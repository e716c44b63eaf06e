"""The simple predicate language of the optimizer-input algebra.

Predicates are conjunctions of comparisons between *terms*.  A term never
contains a path expression — simplification has already decomposed paths
into Mat operators — so each atom mentions exactly one link:

``Const``
    a literal value;
``FieldRef(var, attr)``
    a scalar attribute of an in-scope object variable (evaluating it
    requires that variable's object to be present in memory);
``RefAttr(var, attr)``
    the OID stored in a single-valued reference attribute (requires the
    *holding* object in memory, not the referenced one — this is what lets
    ``e.department == d`` be evaluated without fetching departments);
``SelfOid(var)``
    the OID of an in-scope object variable (the paper's ``n.self``);
``VarRef(var)``
    the value of a reference-kind binding produced by Unnest.

Conjunctions canonicalise their comparison order (and the operand order of
symmetric comparisons) so that logically identical predicates hash equally
— a requirement for memo deduplication.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Any, Iterable, Union


class CompOp(enum.Enum):
    """The comparison operators of the simple predicate language."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def symmetric(self) -> bool:
        return self in (CompOp.EQ, CompOp.NE)

    def flipped(self) -> "CompOp":
        """The operator with its operands swapped (a < b  <=>  b > a)."""
        flip = {
            CompOp.LT: CompOp.GT,
            CompOp.LE: CompOp.GE,
            CompOp.GT: CompOp.LT,
            CompOp.GE: CompOp.LE,
        }
        return flip.get(self, self)


#: The one comparison-operator table: constant folding, selectivity and
#: the engine evaluate a :class:`CompOp` through it.
COMPARISON_OPS = {
    CompOp.EQ: operator.eq,
    CompOp.NE: operator.ne,
    CompOp.LT: operator.lt,
    CompOp.LE: operator.le,
    CompOp.GT: operator.gt,
    CompOp.GE: operator.ge,
}


@dataclass(frozen=True)
class Const:
    value: Any

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class FieldRef:
    var: str
    attr: str

    def __str__(self) -> str:
        return f"{self.var}.{self.attr}"


@dataclass(frozen=True)
class RefAttr:
    var: str
    attr: str

    def __str__(self) -> str:
        return f"{self.var}.{self.attr}"


@dataclass(frozen=True)
class SelfOid:
    var: str

    def __str__(self) -> str:
        return f"{self.var}.self"


@dataclass(frozen=True)
class VarRef:
    var: str

    def __str__(self) -> str:
        return self.var


@dataclass(frozen=True)
class ObjectTerm:
    """The whole object bound to a variable (projection of ``SELECT c``).

    Valid only in Project items, never in comparisons; evaluating it
    requires the object to be present in memory.
    """

    var: str

    def __str__(self) -> str:
        return self.var


Term = Union[Const, FieldRef, RefAttr, SelfOid, VarRef, ObjectTerm]


def term_vars(term: Term) -> frozenset[str]:
    """Variables a term mentions."""
    if isinstance(term, Const):
        return frozenset()
    return frozenset({term.var})


def term_memory_vars(term: Term) -> frozenset[str]:
    """Variables whose object must be resident to evaluate the term.

    ``SelfOid`` is included conservatively: an object's OID is derivable
    without a fetch only in special cases (e.g. from the parent's reference
    attribute), and every plan in the paper compares ``x.self`` against
    objects that a scan already delivered, so requiring residency is sound
    and never costs the optimizer a paper plan.
    """
    if isinstance(term, (FieldRef, RefAttr, ObjectTerm, SelfOid)):
        return frozenset({term.var})
    return frozenset()


def _term_key(term: Term) -> tuple:
    return (type(term).__name__, str(term))


@dataclass(frozen=True)
class Comparison:
    left: Term
    op: CompOp
    right: Term

    def canonical(self) -> "Comparison":
        """Stable operand order for symmetric (and flippable) operators."""
        if _term_key(self.left) <= _term_key(self.right):
            return self
        return Comparison(self.right, self.op.flipped(), self.left)

    @property
    def vars(self) -> frozenset[str]:
        return term_vars(self.left) | term_vars(self.right)

    @property
    def memory_vars(self) -> frozenset[str]:
        return term_memory_vars(self.left) | term_memory_vars(self.right)

    def is_equijoin_between(self, left_vars: frozenset[str], right_vars: frozenset[str]) -> bool:
        """True if this is an equality with one side in each variable set."""
        if self.op is not CompOp.EQ:
            return False
        lv, rv = term_vars(self.left), term_vars(self.right)
        if not lv or not rv:
            return False
        return (lv <= left_vars and rv <= right_vars) or (
            lv <= right_vars and rv <= left_vars
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class Conjunction:
    """An immutable, canonically ordered conjunction of comparisons."""

    comparisons: tuple[Comparison, ...]

    @staticmethod
    def of(*comparisons: Comparison) -> "Conjunction":
        return Conjunction.from_iterable(comparisons)

    @staticmethod
    def from_iterable(comparisons: Iterable[Comparison]) -> "Conjunction":
        """Build a canonically ordered, deduplicated conjunction."""
        canon = sorted(
            {c.canonical() for c in comparisons},
            key=lambda c: (_term_key(c.left), c.op.value, _term_key(c.right)),
        )
        return Conjunction(tuple(canon))

    @staticmethod
    def true() -> "Conjunction":
        return Conjunction(())

    @property
    def is_true(self) -> bool:
        return not self.comparisons

    @property
    def vars(self) -> frozenset[str]:
        """All variables any conjunct mentions."""
        out: frozenset[str] = frozenset()
        for comp in self.comparisons:
            out |= comp.vars
        return out

    @property
    def memory_vars(self) -> frozenset[str]:
        """Variables that must be present in memory for evaluation."""
        out: frozenset[str] = frozenset()
        for comp in self.comparisons:
            out |= comp.memory_vars
        return out

    def conjoin(self, other: "Conjunction") -> "Conjunction":
        return Conjunction.from_iterable(self.comparisons + other.comparisons)

    def split_by_vars(
        self, available: frozenset[str]
    ) -> tuple["Conjunction", "Conjunction"]:
        """(conjuncts referencing only `available` vars, the rest)."""
        inside = [c for c in self.comparisons if c.vars <= available]
        outside = [c for c in self.comparisons if not (c.vars <= available)]
        return Conjunction.from_iterable(inside), Conjunction.from_iterable(outside)

    def without(self, comparison: Comparison) -> "Conjunction":
        """The conjunction minus one comparison (canonical-form match)."""
        canon = comparison.canonical()
        return Conjunction.from_iterable(
            c for c in self.comparisons if c != canon
        )

    def __str__(self) -> str:
        if self.is_true:
            return "true"
        return " and ".join(str(c) for c in self.comparisons)


__all__ = [
    "COMPARISON_OPS",
    "CompOp",
    "Comparison",
    "Conjunction",
    "Const",
    "FieldRef",
    "ObjectTerm",
    "RefAttr",
    "SelfOid",
    "Term",
    "VarRef",
    "term_memory_vars",
    "term_vars",
]
