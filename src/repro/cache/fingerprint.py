"""Query fingerprinting: normalize an AST so bindings share one plan.

The plan cache must answer "have I optimized this query shape before?"
while queries arrive with concrete constants baked in (``c.floor == 3``
today, ``c.floor == 7`` tomorrow).  This module lifts literal constants
out of the AST into *parameter slots* (``$?0``, ``$?1``, ...), producing

* a **template** AST in which eligible constants became :class:`ParamAst`
  placeholders — its canonical rendering is the cache fingerprint, so
  textually different but structurally identical queries collide; and
* the extracted **values**, in slot order: the statement's ``consts``.

A statement is the pair (template, ``consts``) from then on.  The first
statement of a shape is optimized from :func:`bind_template`'s tree, whose
constants carry their slot; the slots survive simplification and the
search, so the finished plan is itself a template, shared unchanged by
every later statement of the shape.  Execution resolves each slot from
the statement's own ``consts`` (``engine.tuples.lower``); the value a
slotted term still holds is the first binding's, and only costing reads
it.  :func:`rebind_plan`, the bind step of a cache hit, therefore has
nothing to rebuild: it checks that the ``consts`` fit the template.

Eligibility is deliberately conservative, because the simplifier's
argument rules rewrite predicates *by constant value* (``fold-constants``
evaluates const-vs-const comparisons; ``tighten-bounds`` merges multiple
constant bounds on one term).  A constant is lifted only when

* it is compared against a path (never const-vs-const), and
* its value is an ``int``, ``float``, or ``str`` (``bool``/``None`` stay
  literal: two-valued literals make poor parameters, and ``null``
  comparisons are decided by kind, not value), and
* its path is the target of exactly one constant comparison in the whole
  statement (so ``tighten-bounds`` has nothing to merge), or of exactly
  two forming a range — one lower and one upper bound, either operand
  order — under the guard ``consts[lo] < consts[hi]``: the two merge by
  value exactly when it fails (a contradiction, an equality, kinds that do
  not order).  The first binding must pass it; a later one that fails it
  is planned as its literal text.

Constants that fail the test simply stay literal and become part of the
fingerprint — correct, just a cache entry per distinct value.  A *user*
parameter (``$name`` in a prepared query) that fails the test cannot fall
back to a literal, so the whole query is marked uncacheable and every
execution optimizes afresh (a ``$lo``/``$hi`` range is lifted, guarded).

:func:`digest_entry` is what lets a repeated statement skip all of the
above: it records, for a text that parsed, which of its literals went to
which slot, keyed by the literal-stripped digest ``lang.lexer`` takes in
one pass (see :class:`Digested` and ``PlanCache.recall``); a write's
entry is its validated plan (``algebra.dml``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Union

from repro.algebra.predicates import CompOp, comparison_holds
from repro.errors import ParameterBindingError
from repro.lang.ast import (
    ComparisonAst,
    Condition,
    ConstAst,
    ExistsAst,
    ParamAst,
    PathAst,
    QueryAst,
    SetQueryAst,
)
from repro.lang.lexer import literal_positions

QueryNode = Union[QueryAst, SetQueryAst]


def bindable(value: Any) -> bool:
    """Can ``value`` fill a parameter slot?"""
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def admits(guards: tuple[tuple[int, int], ...], consts: tuple) -> bool:
    """Does every guarded range keep its lower bound strictly below its
    upper bound under ``consts``?  Kinds that do not order fail."""
    return all(
        comparison_holds(CompOp.LT, consts[lo], consts[hi]) for lo, hi in guards
    )


# ---------------------------------------------------------------------------
# Parameterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSlot:
    """One parameter of a normalized query.

    ``auto`` slots were lifted out of literal constants and carry the
    extracted ``value`` and where in the text it stood; user slots
    (``$name`` in the query text) have no value until ``execute(...)``
    binds one.
    """

    name: str
    index: int
    auto: bool
    value: Any = None
    position: int | None = None


@dataclass(frozen=True)
class ParameterizedQuery:
    """A normalized statement: template, slots, and its fingerprint text.

    ``guards`` pairs each lifted range's (lower, upper) slots;
    ``literal_ranges``: a range failed its guard.  A write's template is
    its plan (``algebra.dml``), valid at ``catalog_version`` only.
    """

    template: Any
    slots: tuple[ParamSlot, ...]
    text_key: str
    cacheable: bool
    reason: str | None = None
    guards: tuple[tuple[int, int], ...] = ()
    literal_ranges: bool = False
    catalog_version: int | None = None

    @property
    def user_param_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots if not s.auto)

    @property
    def consts(self) -> tuple:
        """The literal values lifted out of the text this was built from,
        in slot order (every slot is ``auto`` on the ``query`` path)."""
        return tuple([s.value for s in self.slots])


class _Parameterizer:
    def __init__(self, auto: bool, bound_counts: Counter, ends: dict) -> None:
        self.auto = auto
        self.bound_counts = bound_counts
        self.ends = ends
        self.slots: list[ParamSlot] = []
        self.user_slots: dict[str, ParamSlot] = {}
        self.cacheable = True
        self.reason: str | None = None
        self.lifted: dict[tuple[str, bool], int] = {}
        self.guards: tuple[tuple[int, int], ...] = ()
        self.literal_ranges = False

    def _uncacheable(self, reason: str) -> None:
        if self.cacheable:
            self.cacheable = False
            self.reason = reason

    def query(self, node: QueryNode) -> QueryNode:
        if isinstance(node, SetQueryAst):
            return SetQueryAst(node.kind, self.query(node.left), self.query(node.right))  # type: ignore[arg-type]
        where = tuple(self.condition(c) for c in node.where)
        having = tuple(self.comparison(c) for c in node.having)
        return replace(node, where=where, having=having)

    def condition(self, cond: Condition) -> Condition:
        if isinstance(cond, ExistsAst):
            return ExistsAst(self.query(cond.query), cond.negated)  # type: ignore[arg-type]
        return self.comparison(cond)

    def comparison(self, comp: ComparisonAst) -> ComparisonAst:
        left = self.operand(comp.left, partner=comp.right)
        right = self.operand(comp.right, partner=comp.left)
        if left is comp.left and right is comp.right:
            return comp
        return ComparisonAst(left, comp.op, right)

    def operand(self, operand, partner):
        if isinstance(operand, ParamAst):
            if operand.name not in self.user_slots:
                slot = ParamSlot(operand.name, len(self.slots), auto=False)
                self.slots.append(slot)
                self.user_slots[operand.name] = slot
            if not isinstance(partner, PathAst):
                self._uncacheable(
                    f"parameter ${operand.name} is not compared against a path"
                )
            elif (count := self.bound_counts[str(partner)]) > 1 and (
                count > 2
                or not self._range(
                    partner, operand, self.user_slots[operand.name].index
                )
            ):
                self._uncacheable(
                    f"{partner} has several constant bounds, which the "
                    "simplifier may merge by value"
                )
            return operand
        if (
            self.auto
            and isinstance(operand, ConstAst)
            and isinstance(partner, PathAst)
            and bindable(operand.value)
        ):
            count = self.bound_counts[str(partner)]
            if count == 1 or (
                count == 2 and self._range(partner, operand, len(self.slots))
            ):
                slot = ParamSlot(
                    f"?{len(self.slots)}", len(self.slots), auto=True,
                    value=operand.value, position=operand.position,
                )
                self.slots.append(slot)
                return ParamAst(slot.name)
        return operand

    def _range(self, path: PathAst, operand, index: int) -> bool:
        """May ``operand``, one of ``path``'s two bounds, take slot ``index``?
        Only in a range of two ``$params``, or of two literals that pass the
        guard (recorded once both ends have their slot)."""
        key = str(path)
        lower, upper = self.ends.get((key, True)), self.ends.get((key, False))
        if not (isinstance(lower, ParamAst) and isinstance(upper, ParamAst)):
            if not (
                isinstance(lower, ConstAst) and isinstance(upper, ConstAst)
                and bindable(lower.value) and bindable(upper.value)
            ):
                return False
            if not admits(((0, 1),), (lower.value, upper.value)):
                self.literal_ranges = True
                return False
        self.lifted[key, operand is lower] = index
        if (key, operand is not lower) in self.lifted:
            self.guards += ((self.lifted[key, True], self.lifted[key, False]),)
        return True


def _count_constant_bounds(node: QueryNode, counts: Counter, ends: dict) -> None:
    """How many const-or-param comparisons target each path, statement-wide,
    and in ``ends[path, lower]`` the operand of its lower / upper bound.

    Statement-wide (not per block) because EXISTS unnesting flattens
    subquery conjuncts into the outer conjunction before the argument
    rules run over it.
    """
    if isinstance(node, SetQueryAst):
        _count_constant_bounds(node.left, counts, ends)
        _count_constant_bounds(node.right, counts, ends)
        return
    conditions: tuple[Condition, ...] = node.where + node.having
    for cond in conditions:
        if isinstance(cond, ExistsAst):
            _count_constant_bounds(cond.query, counts, ends)
            continue
        # ``lower``: the operator that makes ``other`` a lower bound of
        # ``path`` from where ``path`` stands.
        for path, other, lower in (
            (cond.left, cond.right, ">"), (cond.right, cond.left, "<")
        ):
            if isinstance(path, PathAst) and isinstance(other, (ConstAst, ParamAst)):
                key = str(path)
                counts[key] += 1
                if cond.op[0] in "<>":
                    ends[key, cond.op[0] == lower] = other


def parameterize(ast: QueryNode, auto: bool = True) -> ParameterizedQuery:
    """Normalize a query AST into a cache-ready template.

    ``auto=True`` (the ``Database.query`` path) lifts eligible literal
    constants into parameter slots; ``auto=False`` (the prepared path)
    leaves literals alone and only collects the explicit ``$name``
    parameters.
    """
    counts: Counter = Counter()
    ends: dict = {}
    _count_constant_bounds(ast, counts, ends)
    builder = _Parameterizer(auto, counts, ends)
    template = builder.query(ast)
    return ParameterizedQuery(
        template=template,
        slots=tuple(builder.slots),
        text_key=str(template),
        cacheable=builder.cacheable,
        reason=builder.reason,
        guards=builder.guards,
        literal_ranges=builder.literal_ranges,
    )


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------


class _Binder:
    def __init__(self, substitutions: dict[str, ConstAst]) -> None:
        self.substitutions = substitutions

    def query(self, node: QueryNode) -> QueryNode:
        if isinstance(node, SetQueryAst):
            return SetQueryAst(node.kind, self.query(node.left), self.query(node.right))  # type: ignore[arg-type]
        where = tuple(self.condition(c) for c in node.where)
        having = tuple(self.comparison(c) for c in node.having)
        return replace(node, where=where, having=having)

    def condition(self, cond: Condition) -> Condition:
        if isinstance(cond, ExistsAst):
            return ExistsAst(self.query(cond.query), cond.negated)  # type: ignore[arg-type]
        return self.comparison(cond)

    def comparison(self, comp: ComparisonAst) -> ComparisonAst:
        return ComparisonAst(
            self.operand(comp.left), comp.op, self.operand(comp.right)
        )

    def operand(self, operand):
        if isinstance(operand, ParamAst):
            return self.substitutions[operand.name]
        return operand


def _check_consts(slots: int, consts: tuple) -> None:
    if len(consts) != slots:
        raise ParameterBindingError(
            f"the statement has {slots} parameter slots; "
            f"{len(consts)} values were bound"
        )
    for value in consts:
        if not bindable(value):
            raise ParameterBindingError(
                f"parameter values must be int, float, or str; got "
                f"{type(value).__name__!s}"
            )


def bind_template(param: ParameterizedQuery, consts: tuple) -> QueryNode:
    """The miss-path bind: the template with every slot a constant again.

    Each constant keeps its slot number beside its value, so the plan
    optimized from this tree is a template too (see the module docstring);
    ``consts`` is in slot order.  Consts that fail a guard bind the ranges
    as plain literals: the statement is planned as its literal text.
    """
    _check_consts(len(param.slots), consts)
    literal = () if not param.guards or admits(param.guards, consts) else {
        index for pair in param.guards for index in pair
    }
    return _Binder(
        {
            slot.name: ConstAst(value, None if slot.index in literal else slot.index)
            for slot, value in zip(param.slots, consts)
        }
    ).query(param.template)


def rebind_plan(param_count: int, consts: tuple) -> None:
    """The hit-path bind: check ``consts`` against the cached template.

    A cached plan is never rebuilt — its slots resolve from ``consts`` as
    it runs — so binding is O(slots): the template takes ``param_count``
    values of bindable type, or the statement is rejected before it runs.
    """
    _check_consts(param_count, consts)


# ---------------------------------------------------------------------------
# Statement digests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Digested:
    """What parsing one text taught the plan cache about its digest.

    ``order[i]`` is the ordinal (among the text's literals) of the literal
    that fills slot ``i``.  ``fixed`` lists the literals that stayed in
    the template, as (ordinal, source text): the skeleton only serves a
    later text that spells those the same way.
    """

    parameterized: ParameterizedQuery
    order: tuple[int, ...]
    fixed: tuple[tuple[int, str], ...]


def digest_entry(
    parameterized: ParameterizedQuery, digest: tuple[str, ...], raws: list[str]
) -> Digested:
    """Match a parsed text's slots to its literals — ``lang.lexer``'s
    ``strip_literals(text)`` — by source position."""
    ordinal = {
        position: k for k, position in enumerate(literal_positions(digest, raws))
    }
    order = tuple(ordinal[slot.position] for slot in parameterized.slots)
    lifted = set(order)
    fixed = tuple((k, raw) for k, raw in enumerate(raws) if k not in lifted)
    return Digested(parameterized, order, fixed)


__all__ = [
    "Digested",
    "ParamSlot",
    "ParameterizedQuery",
    "admits",
    "bind_template",
    "bindable",
    "digest_entry",
    "parameterize",
    "rebind_plan",
]
