"""Runtime tuples and term evaluation.

A row maps scope variable names to values: an
:class:`~repro.storage.objects.Obj` for object bindings (OID plus the
record when the object is present in memory, re-exported here), or a
bare :class:`~repro.storage.objects.Oid` for reference bindings produced
by Unnest.  Variables that a plan has not yet brought into scope are simply
absent from the row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    ObjectTerm,
    RefAttr,
    SelfOid,
    Term,
    VarRef,
    comparison_test,
)
from repro.errors import ExecutionError
from repro.storage.objects import Obj, Oid


Row = dict[str, Any]


def _lower_term(term: Term, consts: tuple = ()) -> Callable[[Row], Any]:
    if isinstance(term, Const):
        constant = term.bound(consts)
        return lambda row: constant
    var = term.var
    if isinstance(term, VarRef):
        def evaluate(row: Row) -> Any:
            if var not in row:
                raise ExecutionError(f"variable {var!r} not in row")
            return row[var]
    elif isinstance(term, (FieldRef, RefAttr)):
        attr = term.attr

        def evaluate(row: Row) -> Any:
            value = row.get(var)
            if type(value) is not Obj:
                raise ExecutionError(f"variable {var!r} is not an object binding")
            data = value.data  # read once: a tuple field is not a slot
            if data is None:
                return value.field(attr)  # raises: not resident
            return data.get(attr)
    elif isinstance(term, SelfOid):
        def evaluate(row: Row) -> Oid:
            value = row.get(var)
            if type(value) is not Obj:
                raise ExecutionError(f"variable {var!r} is not an object binding")
            return value.oid
    elif isinstance(term, ObjectTerm):
        def evaluate(row: Row) -> Obj:
            value = row.get(var)
            if type(value) is not Obj or value.data is None:
                raise ExecutionError(f"object {var!r} not resident for projection")
            return value
    else:
        raise ExecutionError(f"unknown term {term!r}")
    return evaluate


def lower(
    expr: Term | Comparison | Conjunction, consts: tuple = ()
) -> Callable[[Row], Any]:
    """Lower a term, comparison or conjunction to a ``row -> value`` callable.

    Operators lower their expressions once per instantiation and call the
    result per row: all dispatch on the expression's shape happens here,
    none in the row loop.  A comparison becomes
    :func:`~repro.algebra.predicates.comparison_test`, where the SQL-style
    rule — a comparison over None, or between values that do not order, is
    false — is written once for the whole stack.  It is also where a plan
    template meets its statement: a slotted constant lowers to
    ``consts[slot]``.
    """
    if isinstance(expr, Conjunction):
        tests = tuple([lower(c, consts) for c in expr.comparisons])
        if len(tests) == 1:
            return tests[0]

        def every(row: Row) -> bool:
            for test in tests:
                if not test(row):
                    return False
            return True

        return every
    if not isinstance(expr, Comparison):
        return _lower_term(expr, consts)
    if expr.term_const is not None:
        term, op, constant = expr.term_const
        return comparison_test(op, _lower_term(term), constant.bound(consts), True)
    return comparison_test(
        expr.op, _lower_term(expr.left, consts), _lower_term(expr.right, consts)
    )


def _key_term(term: Term) -> Callable[[Row], Any]:
    """A key term's ``row -> value``, an object keyed by its OID."""
    get = _lower_term(term)
    if isinstance(term, (FieldRef, RefAttr, SelfOid)):
        return get  # never an Obj

    def identity(row: Row) -> Any:
        value = get(row)
        return value.oid if type(value) is Obj else value

    return identity


def lower_key(terms: Iterable[Term]) -> Callable[[Row], tuple]:
    """Lower grouping terms to ``row -> tuple``; null is a group of its own."""
    getters = tuple(map(_key_term, terms))
    if len(getters) == 1:
        (get,) = getters
        return lambda row: (get(row),)
    return lambda row: tuple([get(row) for get in getters])


def join_key(terms: Iterable[Term]) -> Callable[[Row], Any]:
    """Lower equi-join key terms to ``row -> key``: one term's value, or
    several terms' tuple; None if any is null (null never equi-joins)."""
    getters = tuple(map(_key_term, terms))
    if len(getters) == 1:
        return getters[0]

    def key(row: Row) -> tuple | None:
        values = tuple([get(row) for get in getters])
        return None if None in values else values

    return key


def value_key(value: Any) -> Any:
    """A hashable identity for result comparison and set operations."""
    if isinstance(value, Obj):
        return value.oid
    return value


class ReversedKey:
    """Wraps a sort-key component so ascending comparison runs backwards."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "ReversedKey") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReversedKey) and self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReversedKey({self.value!r})"


def _ranked(value: Any, ascending: bool) -> tuple:
    # None ranks after every value in BOTH directions (SQL "nulls last"),
    # so a descending sort never compares None against a real value.
    if value is None:
        return (1, 0)
    return (0, value if ascending else ReversedKey(value))


def ordering_key(
    var: str,
    attr: str | None,
    ascending: bool = True,
    tie_vars: tuple[str, ...] = (),
):
    """The engine's one total-order sort key: row -> comparable tuple.

    Shared by the in-memory and spilling sort enforcers so every plan
    shape agrees on the exact output sequence.  None sort values order
    after all real values in *both* directions (SQL "nulls last")
    instead of raising ``TypeError`` out of :func:`sorted`; the sorted-on
    binding's identity is the first tie-break.

    ``tie_vars`` are the plan's iteration variables (scan and unnest
    bindings): their identity vector determines every other value in the
    row, is bound identically by every plan shape for the same query,
    and is unique per output row — so appending it makes the order total
    in a plan-invariant way.  Ties that survive even this (a variable
    absent at a mid-plan sort) are unobservable in the final output.
    """

    def key(row: Row) -> tuple:
        value = row.get(var)
        identity = value_key(value)
        if attr is None:
            raw = identity
        elif isinstance(value, Obj):
            raw = value.field(attr)
        elif value is None:
            raw = None
        else:
            raise ExecutionError(
                f"sort key {var}.{attr}: not an object binding"
            )
        parts = [_ranked(raw, ascending), _ranked(identity, ascending)]
        parts.extend(
            _ranked(value_key(row.get(name)), True) for name in tie_vars
        )
        return tuple(parts)

    return key


def row_key(row: Row) -> tuple:
    """Canonical hashable identity of a whole row."""
    return tuple(sorted((name, value_key(value)) for name, value in row.items()))


__all__ = [
    "Obj",
    "ReversedKey",
    "Row",
    "join_key",
    "lower",
    "lower_key",
    "ordering_key",
    "row_key",
    "value_key",
]
