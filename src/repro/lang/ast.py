"""Abstract syntax of the ZQL dialect.

This is the *user* algebra side of the paper's separation: operator
arguments here are arbitrarily rich (multi-link paths, nested subqueries).
Simplification reduces these trees to the optimizer-input algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union


@dataclass(frozen=True)
class PathAst:
    """``root.link1.link2...`` — a range variable and zero or more links."""

    root: str
    links: tuple[str, ...] = ()

    def __str__(self) -> str:
        return ".".join((self.root, *self.links))

    @property
    def is_bare_var(self) -> bool:
        return not self.links


@dataclass(frozen=True)
class ConstAst:
    """A literal.  ``slot`` is set when the plan cache bound the constant
    into a template (``bind_template``): the value then travels beside the
    plan, in the statement's ``consts``.  ``position`` is where the parser
    found a STRING or NUMBER literal in the text; it is not part of the
    tree's identity."""

    value: Any
    slot: int | None = None
    position: int | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ParamAst:
    """``$name`` — a placeholder bound to a value at execution time.

    Written explicitly in prepared queries (``Database.prepare``), and also
    produced by auto-parameterization when the plan cache lifts literal
    constants out of a query so different bindings share one cache entry.
    A ``ParamAst`` must be substituted by a ``ConstAst`` before
    simplification; the simplifier rejects unbound parameters.
    """

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


Operand = Union[PathAst, ConstAst, ParamAst]


@dataclass(frozen=True)
class ComparisonAst:
    left: Operand
    op: str  # "==", "!=", "<", "<=", ">", ">="
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class ExistsAst:
    """``[NOT] EXISTS (SELECT ...)`` — a quantified subquery."""

    query: "QueryAst"
    negated: bool = False

    def __str__(self) -> str:
        prefix = "not exists" if self.negated else "exists"
        return f"{prefix}({self.query})"


Condition = Union[ComparisonAst, ExistsAst]


@dataclass(frozen=True)
class RangeAst:
    """One FROM item: ``TypeName var IN source`` or ``var IN source``.

    ``source`` is either the name of a collection or a path to a
    set-valued attribute of an earlier range variable (a correlated
    range, as in ranging over ``t.team_members``).
    """

    var: str
    source: Union[str, PathAst]
    type_name: str | None = None

    def __str__(self) -> str:
        prefix = f"{self.type_name} " if self.type_name else ""
        return f"{prefix}{self.var} in {self.source}"


@dataclass(frozen=True)
class SelectItemAst:
    path: PathAst
    alias: str | None = None

    def __str__(self) -> str:
        return str(self.path) if self.alias is None else f"{self.path} as {self.alias}"


@dataclass(frozen=True)
class AggregateAst:
    """``FUNC(path)`` / ``COUNT(*)`` in the select list."""

    func: str  # "count" | "sum" | "avg" | "min" | "max"
    path: PathAst | None = None  # None = COUNT(*)
    alias: str | None = None

    def __str__(self) -> str:
        arg = "*" if self.path is None else str(self.path)
        text = f"{self.func}({arg})"
        return text if self.alias is None else f"{text} as {self.alias}"


@dataclass(frozen=True)
class OrderByAst:
    """``ORDER BY path [ASC|DESC]`` — one sort key."""

    path: PathAst
    ascending: bool = True

    def __str__(self) -> str:
        return f"{self.path}{'' if self.ascending else ' desc'}"


SelectItem = Union[SelectItemAst, "AggregateAst"]


@dataclass(frozen=True)
class QueryAst:
    """A single SELECT-FROM-WHERE[-GROUP BY][-ORDER BY] block.

    ``where`` is a flat tuple of conjuncts — the dialect (like the paper's
    simplification) is defined for arbitrary *conjunctive* conditions, so
    the parser flattens ``&&``/``AND`` chains here.
    """

    select_items: tuple[SelectItem, ...]
    ranges: tuple[RangeAst, ...]
    where: tuple[Condition, ...] = ()
    distinct: bool = False
    order_by: OrderByAst | None = None
    group_by: tuple[PathAst, ...] = ()
    having: tuple[ComparisonAst, ...] = ()

    def __str__(self) -> str:
        sel = ", ".join(str(i) for i in self.select_items) or "*"
        frm = ", ".join(str(r) for r in self.ranges)
        out = f"select {'distinct ' if self.distinct else ''}{sel} from {frm}"
        if self.where:
            out += " where " + " and ".join(str(c) for c in self.where)
        if self.group_by:
            out += " group by " + ", ".join(str(p) for p in self.group_by)
        if self.having:
            out += " having " + " and ".join(str(c) for c in self.having)
        if self.order_by is not None:
            out += f" order by {self.order_by}"
        return out


@dataclass(frozen=True)
class InsertAst:
    """``INSERT INTO collection (cols...) VALUES (...), (...)``.

    Each value is a :class:`ConstAst` or :class:`ParamAst`; attributes of
    the element type not named in ``columns`` default to null (empty set
    for set-valued attributes).
    """

    collection: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Operand, ...], ...]

    def __str__(self) -> str:
        cols = ", ".join(self.columns)
        rows = ", ".join(
            "(" + ", ".join(str(v) for v in row) + ")" for row in self.rows
        )
        return f"insert into {self.collection} ({cols}) values {rows}"


@dataclass(frozen=True)
class AssignmentAst:
    """``var.attr = operand`` — one SET clause of an UPDATE."""

    target: PathAst  # range variable plus exactly one attribute link
    value: Operand

    def __str__(self) -> str:
        return f"{self.target} = {self.value}"


@dataclass(frozen=True)
class UpdateAst:
    """``UPDATE [Type] var IN source SET assignments [WHERE ...]``.

    The range and WHERE reuse the query grammar, so target selection
    runs through the normal optimizer (index plans included).
    """

    range: RangeAst
    assignments: tuple[AssignmentAst, ...]
    where: tuple[Condition, ...] = ()

    def __str__(self) -> str:
        out = f"update {self.range} set " + ", ".join(
            str(a) for a in self.assignments
        )
        if self.where:
            out += " where " + " and ".join(str(c) for c in self.where)
        return out


@dataclass(frozen=True)
class DeleteAst:
    """``DELETE [Type] var IN source [WHERE ...]``."""

    range: RangeAst
    where: tuple[Condition, ...] = ()

    def __str__(self) -> str:
        out = f"delete {self.range}"
        if self.where:
            out += " where " + " and ".join(str(c) for c in self.where)
        return out


DmlAst = Union[InsertAst, UpdateAst, DeleteAst]


@dataclass(frozen=True)
class SetQueryAst:
    """``query UNION query`` etc. — left-associative chains."""

    kind: str  # "union" | "intersect" | "except"
    left: Union["SetQueryAst", QueryAst]
    right: QueryAst

    def __str__(self) -> str:
        return f"({self.left}) {self.kind} ({self.right})"


__all__ = [
    "AggregateAst",
    "AssignmentAst",
    "ComparisonAst",
    "Condition",
    "ConstAst",
    "DeleteAst",
    "DmlAst",
    "ExistsAst",
    "InsertAst",
    "Operand",
    "OrderByAst",
    "ParamAst",
    "PathAst",
    "QueryAst",
    "RangeAst",
    "SelectItem",
    "SelectItemAst",
    "SetQueryAst",
    "UpdateAst",
]
