"""The simple predicate language of the optimizer-input algebra.

Predicates are conjunctions of comparisons between *terms*.  A term never
contains a path expression — simplification has already decomposed paths
into Mat operators — so each atom mentions exactly one link:

``Const``
    a literal value, or — in a plan-cache template — a *slot*: the value
    then travels beside the plan in the statement's ``consts`` tuple, and
    the term keeps the first binding's value for costing only;
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

import contextlib
import enum
import operator
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Iterator, Union

from repro.errors import ExecutionError


class CompOp(enum.Enum):
    """The comparison operators of the simple predicate language."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flipped(self) -> "CompOp":
        """The operator with its operands swapped (a < b  <=>  b > a)."""
        flip = {
            CompOp.LT: CompOp.GT,
            CompOp.LE: CompOp.GE,
            CompOp.GT: CompOp.LT,
            CompOp.GE: CompOp.LE,
        }
        return flip.get(self, self)


_OPERATORS = {
    CompOp.EQ: operator.eq,
    CompOp.NE: operator.ne,
    CompOp.LT: operator.lt,
    CompOp.LE: operator.le,
    CompOp.GT: operator.gt,
    CompOp.GE: operator.ge,
}


def comparison_test(
    op: CompOp, left: Callable[[Any], Any], right: Any, constant: bool = False
) -> Callable[[Any], bool]:
    """``left(x) op right(x)`` as a test of ``x`` — the comparison rule,
    written once: a comparison over None, or between values that do not
    order, is false.  With ``constant``, ``right`` is a bound value (on the
    right, as ``Comparison.term_const`` reads it): one side is read per
    test, and a null constant makes it always false.  The engine lowers
    each comparison of a row through it; what decides one without a row
    asks :func:`comparison_holds`."""
    compare = _OPERATORS[op]
    if constant and right is None:
        return lambda x: False

    def holds(x) -> bool:
        a, b = left(x), right if constant else right(x)
        if a is None or b is None:
            return False
        try:
            return compare(a, b)
        except TypeError:
            return False

    return holds


_PAIR_TESTS = {
    op: comparison_test(op, operator.itemgetter(0), operator.itemgetter(1))
    for op in CompOp
}


def comparison_holds(op: CompOp, a: Any, b: Any) -> bool:
    """``a op b`` for two known values, by :func:`comparison_test`'s rule."""
    return _PAIR_TESTS[op]((a, b))


# The ``consts`` of the statement being shown: a cached plan is shared by
# every statement of its shape, so only the renderer knows whose constants
# to print.
_SHOWN_CONSTS: ContextVar[tuple] = ContextVar("shown_consts", default=())


@contextlib.contextmanager
def showing(consts: tuple) -> Iterator[None]:
    """Within the block, ``str()`` of a slotted :class:`Const` is the value
    ``consts`` binds to it — for EXPLAIN output and feedback fingerprints
    of a plan-cache template.  Per thread (a context variable)."""
    token = _SHOWN_CONSTS.set(consts)
    try:
        yield
    finally:
        _SHOWN_CONSTS.reset(token)


@dataclass(frozen=True)
class Const:
    value: Any
    slot: int | None = None

    def bound(self, consts: tuple) -> Any:
        """The value to compute with: ``consts[slot]``, or the literal."""
        if self.slot is None:
            return self.value
        try:
            return consts[self.slot]
        except IndexError:
            raise ExecutionError(
                f"plan template needs a constant for slot {self.slot}; "
                f"{len(consts)} were given"
            ) from None

    def __str__(self) -> str:
        if self.slot is not None and (consts := _SHOWN_CONSTS.get()):
            return repr(consts[self.slot])
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


def _term_key(term: Term, constant: bool) -> tuple:
    # Not ``str`` for a constant: conjunct order must not depend on whose
    # constants happen to be shown while a key is first derived.
    return (type(term).__name__, repr(term.value) if constant else str(term))


class DerivedOnFirstUse:
    """Fills a frozen dataclass's non-field slots the first time one is
    read: reading an unset slot raises AttributeError, which lands here.
    ``dataclasses.replace`` and unpickling leave
    them unset, so a derived value is recomputed, never copied."""

    __slots__ = ()

    def __getattr__(self, name: str):
        if name not in type(self).__slots__:
            raise AttributeError(name)
        self._derive()
        return object.__getattribute__(self, name)

    def __reduce__(self) -> tuple:  # by fields: hashes are per process
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Comparison(DerivedOnFirstUse):
    """One comparison between two terms.  Derived once: variable sets,
    conjunct ordering key, canonical form, the generated field-tuple hash,
    ``term_const`` — ``(term, op, constant)``, read with the constant on
    the right (``3 < x`` is ``(x, >, 3)``), when exactly one side is a
    :class:`Const` — and ``truth``, its value for every row when that
    needs no row: two constants, or a null constant (false).  Else None.
    """

    __slots__ = ("left", "op", "right")  # the fields, then what is derived
    __slots__ += ("vars", "memory_vars", "_key", "_flipped", "_hash")
    __slots__ += ("term_const", "truth")

    left: Term
    op: CompOp
    right: Term

    def _derive(self) -> None:
        left, right = self.left, self.right
        left_const, right_const = isinstance(left, Const), isinstance(right, Const)
        left_key = _term_key(left, left_const)
        right_key = _term_key(right, right_const)
        all_vars = term_vars(left) | term_vars(right)
        resident = term_memory_vars(left) | term_memory_vars(right)
        derived = object.__setattr__
        derived(self, "vars", all_vars)
        # One set object where the two are equal: cached plans keep them.
        derived(self, "memory_vars", all_vars if resident == all_vars else resident)
        derived(self, "_key", (left_key, self.op.value, right_key))
        flipped = None
        if left_key > right_key:
            flipped = Comparison(right, self.op.flipped(), left)
        derived(self, "_flipped", flipped)
        derived(self, "_hash", hash((left, self.op, right)))
        term_const = truth = None
        if left_const and right_const:
            truth = comparison_holds(self.op, left.value, right.value)
        elif right_const:
            term_const = (left, self.op, right)
        elif left_const:
            term_const = (right, self.op.flipped(), left)
        if term_const is not None and term_const[2].value is None:
            truth = False
        derived(self, "term_const", term_const)
        derived(self, "truth", truth)

    def __hash__(self) -> int:
        return self._hash

    def canonical(self) -> "Comparison":
        """Stable operand order for symmetric (and flippable) operators."""
        return self if self._flipped is None else self._flipped

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


_conjunct_key = operator.attrgetter("_key")


def _union(sets: list[frozenset[str]]) -> frozenset[str]:
    """The union — the set itself, not a copy, when there is only one."""
    return sets[0].union(*sets[1:]) if sets else frozenset()


@dataclass(frozen=True)
class Conjunction(DerivedOnFirstUse):
    """An immutable, canonically ordered conjunction of comparisons."""

    __slots__ = ("comparisons", "vars", "memory_vars", "_hash")

    comparisons: tuple[Comparison, ...]

    def _derive(self) -> None:
        all_vars = _union([c.vars for c in self.comparisons])
        resident = _union([c.memory_vars for c in self.comparisons])
        object.__setattr__(self, "vars", all_vars)
        object.__setattr__(
            self, "memory_vars", all_vars if resident == all_vars else resident
        )
        object.__setattr__(self, "_hash", hash((self.comparisons,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(*comparisons: Comparison) -> "Conjunction":
        return Conjunction.from_iterable(comparisons)

    @staticmethod
    def from_iterable(comparisons: Iterable[Comparison]) -> "Conjunction":
        """Build a canonically ordered, deduplicated conjunction."""
        canon = {c.canonical() for c in comparisons}
        if not canon:
            return _TRUE
        if len(canon) > 1:
            canon = sorted(canon, key=_conjunct_key)
        return Conjunction(tuple(canon))

    @staticmethod
    def true() -> "Conjunction":
        return _TRUE

    @property
    def is_true(self) -> bool:
        return not self.comparisons

    def conjoin(self, other: "Conjunction") -> "Conjunction":
        return Conjunction.from_iterable(self.comparisons + other.comparisons)

    def split_by_vars(
        self, available: frozenset[str]
    ) -> tuple["Conjunction", "Conjunction"]:
        """(conjuncts referencing only `available` vars, the rest)."""
        inside, outside = [], []
        for comp in self.comparisons:
            (inside if comp.vars <= available else outside).append(comp)
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


_TRUE = Conjunction(())


__all__ = [
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
    "comparison_holds",
    "comparison_test",
    "showing",
    "term_memory_vars",
    "term_vars",
]
