"""Logical algebra operators.

Operators are immutable trees.  ``signature()`` returns the operator's
identity *excluding* its children — the memo keys a logical expression by
``(signature, child group ids)``, which is what makes global common
subexpression factorization fall out of the framework for free (one of
the paper's observations about using the Volcano optimizer generator).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    RefAttr,
    SelfOid,
    Term,
    VarRef,
)
from repro.errors import AlgebraError


@dataclass(frozen=True)
class RefSource:
    """The reference a Mat operator resolves.

    Either an attribute of an in-scope object variable (``var.attr``, e.g.
    ``c.mayor``) or a bare reference-kind binding produced by Unnest
    (``attr is None``, e.g. the paper's ``m`` in ``Mat m.employee: e``).
    """

    var: str
    attr: str | None = None

    def __str__(self) -> str:
        return self.var if self.attr is None else f"{self.var}.{self.attr}"

    def oid_join(self, out: str) -> Conjunction:
        """``var.attr == out.self``: the join that equals resolving this
        reference into ``out`` (Mat-to-Join's predicate)."""
        term = VarRef(self.var) if self.attr is None else RefAttr(self.var, self.attr)
        return Conjunction.from_iterable((Comparison(term, CompOp.EQ, SelfOid(out)),))


def ref_path(
    var: str, root: str, links: dict[str, RefSource]
) -> tuple[str, ...] | None:
    """Attribute path from ``root`` to ``var``, following ``links`` (each
    materialized variable's source); None when the way crosses a bare
    reference or leaves the links."""
    path: list[str] = []
    current = var
    while current != root:
        source = links.get(current)
        if source is None or source.attr is None:
            return None
        path.append(source.attr)
        current = source.var
    return tuple(reversed(path))


class LogicalOp:
    """Base class for logical operators (immutability via dataclasses)."""

    children: tuple["LogicalOp", ...]

    def signature(self) -> tuple:
        raise NotImplementedError

    def with_children(self, children: tuple["LogicalOp", ...]) -> "LogicalOp":
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        """One-line rendering in the paper's figure style."""
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        """Render the whole tree, one operator per line (figure style)."""
        lines = [" " * indent + self.describe()]
        for child in self.children:
            lines.append(child.pretty(indent + 2))
        return "\n".join(lines)


@dataclass(frozen=True)
class Get(LogicalOp):
    """Scan a named collection, binding each member to ``var``."""

    collection: str
    var: str
    children: tuple[LogicalOp, ...] = field(default=(), init=False)

    def signature(self) -> tuple:
        return ("Get", self.collection, self.var)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Get":
        """Get is a leaf; rebuilding with children is an error."""
        if children:
            raise AlgebraError("Get takes no children")
        return self

    def describe(self) -> str:
        return f"Get {self.collection}: {self.var}"


@dataclass(frozen=True)
class Mat(LogicalOp):
    """Materialize: bring the object referenced by ``source`` into scope.

    The paper's novel operator.  It represents one link of a path
    expression and is the locus of both the Mat-to-Join transformation and
    the assembly/pointer-join implementation choices.
    """

    child: LogicalOp
    source: RefSource
    out: str

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.child,)

    def signature(self) -> tuple:
        return ("Mat", self.source.var, self.source.attr, self.out)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Mat":
        (child,) = children
        return Mat(child, self.source, self.out)

    def describe(self) -> str:
        if str(self.source) == self.out:
            return f"Mat {self.source}"
        return f"Mat {self.source}: {self.out}"


@dataclass(frozen=True)
class Unnest(LogicalOp):
    """Flatten a set-valued attribute into one output tuple per element.

    The output binding ``out`` is a *reference* value (the paper's ``m`` —
    "a set of pairs [t, m]" where m is a reference to an employee), which a
    subsequent Mat resolves to an object.
    """

    child: LogicalOp
    var: str
    attr: str
    out: str

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.child,)

    def signature(self) -> tuple:
        return ("Unnest", self.var, self.attr, self.out)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Unnest":
        (child,) = children
        return Unnest(child, self.var, self.attr, self.out)

    def describe(self) -> str:
        return f"Unnest {self.var}.{self.attr}: {self.out}"


@dataclass(frozen=True)
class Select(LogicalOp):
    """Filter by a conjunction of simple comparisons."""

    child: LogicalOp
    predicate: Conjunction

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.child,)

    def signature(self) -> tuple:
        return ("Select", self.predicate)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def describe(self) -> str:
        return f"Select {self.predicate}"


@dataclass(frozen=True)
class ProjectItem:
    """One output column: a name and the term that produces its value."""

    name: str
    term: Term

    def __str__(self) -> str:
        return f"{self.term}" if self.name == str(self.term) else f"{self.name}={self.term}"


@dataclass(frozen=True)
class Project(LogicalOp):
    """Produce new result objects from terms over the input scope.

    Corresponds to ZQL's ``SELECT Newobject(...)`` — results carry new
    identity, so scope does not flow through a Project.  ``distinct``
    requests set semantics on the output; ``order_by`` (a ``(var, attr,
    ascending)`` triple matching :class:`repro.optimizer.physical_props.
    SortKey`) demands the input stream arrive in that order — a *logical*
    requirement realised through the physical sort-order property.
    """

    child: LogicalOp
    items: tuple[ProjectItem, ...]
    distinct: bool = False
    order_by: tuple[str, str | None, bool] | None = None

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.child,)

    def signature(self) -> tuple:
        return ("Project", self.items, self.distinct, self.order_by)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Project":
        (child,) = children
        return Project(child, self.items, self.distinct, self.order_by)

    def describe(self) -> str:
        cols = ", ".join(str(item) for item in self.items)
        prefix = "Project distinct" if self.distinct else "Project"
        text = f"{prefix} {cols}"
        if self.order_by is not None:
            var, attr, ascending = self.order_by
            key = var if attr is None else f"{var}.{attr}"
            text += f" order by {key}{'' if ascending else ' desc'}"
        return text


@dataclass(frozen=True)
class Join(LogicalOp):
    """Value-based join of two independent scopes."""

    left: LogicalOp
    right: LogicalOp
    predicate: Conjunction

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.left, self.right)

    def signature(self) -> tuple:
        return ("Join", self.predicate)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Join":
        left, right = children
        return Join(left, right, self.predicate)

    def describe(self) -> str:
        return f"Join {self.predicate}"


class AggFunc(enum.Enum):
    """The supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output column: ``name = func(term)``.

    ``term is None`` means ``COUNT(*)``.
    """

    name: str
    func: AggFunc
    term: Term | None = None

    def __str__(self) -> str:
        arg = "*" if self.term is None else str(self.term)
        return f"{self.name}={self.func.value}({arg})"


@dataclass(frozen=True)
class HavingClause:
    """One post-aggregation filter: ``column op constant``.

    Columns name GroupBy outputs (key names or aggregate aliases), so the
    ordinary variable-scoped predicate language does not apply here.
    """

    column: str
    op: CompOp
    constant: Const  # a term, so a cached plan can hold it as a slot

    def __str__(self) -> str:
        return f"{self.column} {self.op.value} {self.constant}"


@dataclass(frozen=True)
class GroupBy(LogicalOp):
    """Grouped aggregation.

    An extension beyond the paper's simplification scope ("arbitrary
    conjunctive Boolean expressions ... but no aggregates") — the kind of
    new logical operator the framework is built to absorb: it needed one
    operator definition, one implementation rule, one cost formula, and
    one iterator.  Like Project, it produces values with new identity, so
    scope ends here.  ``having`` filters emitted groups by output columns;
    ``order_output`` optionally sorts them.
    """

    child: LogicalOp
    keys: tuple[ProjectItem, ...]
    aggregates: tuple[AggSpec, ...]
    order_output: tuple[str, bool] | None = None
    having: tuple[HavingClause, ...] = ()

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.child,)

    def signature(self) -> tuple:
        """Identity of the operator excluding its child."""
        return (
            "GroupBy",
            self.keys,
            self.aggregates,
            self.order_output,
            self.having,
        )

    def with_children(self, children: tuple[LogicalOp, ...]) -> "GroupBy":
        """Rebuild over a new input, keeping all grouping arguments."""
        (child,) = children
        return GroupBy(
            child, self.keys, self.aggregates, self.order_output, self.having
        )

    def describe(self) -> str:
        """One-line rendering: keys; aggregates; having; ordering."""
        keys = ", ".join(str(k) for k in self.keys)
        aggs = ", ".join(str(a) for a in self.aggregates)
        body = "; ".join(part for part in (keys, aggs) if part)
        text = f"GroupBy {body}"
        if self.having:
            text += " having " + " and ".join(str(h) for h in self.having)
        if self.order_output is not None:
            name, ascending = self.order_output
            text += f" order by {name}{'' if ascending else ' desc'}"
        return text


@dataclass(frozen=True)
class AntiJoin(LogicalOp):
    """Anti-semi-join: left tuples with *no* matching right tuple.

    The NOT EXISTS translation (an extension: the paper's simplification
    handles only existentially quantified subqueries, which flatten).  The
    right input is a decorrelated rebuild of the subquery; the predicate
    matches the cloned outer objects by identity.  Output scope is the
    left scope.
    """

    left: LogicalOp
    right: LogicalOp
    predicate: Conjunction

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.left, self.right)

    def signature(self) -> tuple:
        return ("AntiJoin", self.predicate)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "AntiJoin":
        left, right = children
        return AntiJoin(left, right, self.predicate)

    def describe(self) -> str:
        return f"AntiJoin {self.predicate}"


class SetOpKind(enum.Enum):
    """The three identity-based set operations."""

    UNION = "union"
    INTERSECT = "intersect"
    DIFFERENCE = "difference"


@dataclass(frozen=True)
class SetOp(LogicalOp):
    """Union / intersection / difference of scope-compatible inputs.

    Membership is decided by the OID vector of the inputs' object
    bindings — object identity, the natural equality for OODB sets.
    """

    kind: SetOpKind
    left: LogicalOp
    right: LogicalOp

    @property
    def children(self) -> tuple[LogicalOp, ...]:  # type: ignore[override]
        return (self.left, self.right)

    def signature(self) -> tuple:
        return ("SetOp", self.kind)

    def with_children(self, children: tuple[LogicalOp, ...]) -> "SetOp":
        left, right = children
        return SetOp(self.kind, left, right)

    def describe(self) -> str:
        return self.kind.value.capitalize()


__all__ = [
    "AggFunc",
    "AggSpec",
    "AntiJoin",
    "Get",
    "GroupBy",
    "Join",
    "LogicalOp",
    "Mat",
    "Project",
    "ProjectItem",
    "RefSource",
    "Select",
    "SetOp",
    "SetOpKind",
    "Unnest",
    "ref_path",
]
