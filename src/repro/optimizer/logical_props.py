"""Logical properties of memo groups, and query-wide variable origins.

A group's logical properties — its scope and estimated output cardinality
— are shared by every expression in the group, so the derivations here are
deliberately *composition-order independent* (selectivities multiply, Mat
is 1:1, and the reference-equality selectivity is defined so that
``Mat c.country`` and ``Join(..., Get extent(Country))`` estimate the same
cardinality).

Variable *origins* are computed once from the initial expression: every
scope variable traces back to a root collection and an attribute path
(``c.mayor`` -> (Cities, ("mayor",))).  Origins power index-assisted
selectivity, unnest fan-outs, enforcer sources, and the
collapse-to-index-scan match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.operators import (
    AntiJoin,
    Get,
    GroupBy,
    Join,
    LogicalOp,
    Mat,
    MatChain,
    Project,
    RefSource,
    Select,
    SetOp,
    SetOpKind,
    Unnest,
)
from repro.algebra.scopes import Scope, BindingKind
from repro.catalog.catalog import Catalog
from repro.errors import OptimizerError

if TYPE_CHECKING:  # selectivity builds on this module's QueryVars
    from repro.optimizer.selectivity import SelectivityModel


@dataclass(frozen=True)
class VarOrigin:
    """Where a variable's objects come from.

    ``collection`` is the root collection scanned, ``path`` the attribute
    links followed from it, and ``type_name`` the variable's object type.
    """

    collection: str
    path: tuple[str, ...]
    type_name: str


@dataclass(frozen=True)
class QueryVars:
    """Query-wide variable information, fixed before exploration starts."""

    origins: dict[str, VarOrigin]
    # The reference each Mat-introduced object variable resolves — used by
    # the assembly *enforcer* to know how to bring a variable into memory.
    enforce_sources: dict[str, RefSource]

    def origin(self, var: str) -> VarOrigin:
        """A variable's origin; raises OptimizerError when untracked."""
        if var not in self.origins:
            raise OptimizerError(f"unknown variable origin for {var!r}")
        return self.origins[var]

    def source_of(self, var: str) -> RefSource | None:
        return self.enforce_sources.get(var)


def build_query_vars(tree: LogicalOp, catalog: Catalog) -> QueryVars:
    """Trace every variable of the initial expression to its origin."""
    origins: dict[str, VarOrigin] = {}
    sources: dict[str, RefSource] = {}

    def materialize(link, what: str) -> None:
        """Trace one Mat link's output (a lone Mat, or a MatChain link)."""
        src = link.source
        parent = origins.get(src.var)
        if parent is None:
            raise OptimizerError(f"{what} source {src.var!r} has no origin")
        if src.attr is None:
            origins[link.out] = parent
        else:
            attr = catalog.attribute(parent.type_name, src.attr)
            origins[link.out] = VarOrigin(
                parent.collection,
                parent.path + (src.attr,),
                attr.target_type or "",
            )
        sources[link.out] = src

    def walk(op: LogicalOp) -> None:
        for child in op.children:
            walk(child)
        if isinstance(op, Get):
            element = catalog.collection(op.collection).element_type
            origins[op.var] = VarOrigin(op.collection, (), element)
        elif isinstance(op, Mat):
            materialize(op, "Mat")
        elif isinstance(op, MatChain):
            for link in op.links:
                materialize(link, "MatChain")
        elif isinstance(op, Unnest):
            parent = origins.get(op.var)
            if parent is None:
                raise OptimizerError(f"Unnest source {op.var!r} has no origin")
            attr = catalog.attribute(parent.type_name, op.attr)
            origins[op.out] = VarOrigin(
                parent.collection,
                parent.path + (op.attr,),
                attr.target_type or "",
            )

    walk(tree)
    return QueryVars(origins, sources)


def derive_cardinality(
    op: LogicalOp,
    child_rows: tuple[float, ...],
    selectivity: SelectivityModel,
    catalog: Catalog,
) -> float:
    """An operator's estimated output rows, from its inputs' rows.

    The memo derives each group's estimate with it, and the rewrite stage
    each subtree's; both therefore agree on every estimate.
    """
    if isinstance(op, Get):
        if not catalog.has_stats(op.collection):
            raise OptimizerError(f"no statistics for collection {op.collection!r}")
        return float(catalog.cardinality(op.collection))
    if isinstance(op, (Mat, MatChain)):
        # Every link is 1:1 (references resolve to at most one object),
        # matching the single-Mat estimate so fusion never changes a
        # group's cardinality.
        return child_rows[0]
    if isinstance(op, Unnest):
        return child_rows[0] * selectivity.unnest_fanout(op.var, op.attr)
    if isinstance(op, Select):
        return child_rows[0] * selectivity.predicate(op.predicate)
    if isinstance(op, Project):
        return child_rows[0]
    if isinstance(op, GroupBy):
        groups = selectivity.grouping_cardinality(op.keys, child_rows[0])
        # Post-aggregation HAVING filters: a flat 50% per clause (no
        # distribution information exists for aggregate outputs).
        return groups * (0.5 ** len(op.having))
    if isinstance(op, Join):
        left, right = child_rows
        return left * right * selectivity.predicate(op.predicate)
    if isinstance(op, AntiJoin):
        left, right = child_rows
        matches = left * right * selectivity.predicate(op.predicate)
        # Crude anti-join estimate: survivors = left minus matched (each
        # match eliminates at most one left tuple), floored.
        return max(left - min(matches, left), 0.05 * left)
    if isinstance(op, SetOp):
        left, right = child_rows
        if op.kind is SetOpKind.UNION:
            return left + right
        if op.kind is SetOpKind.INTERSECT:
            return min(left, right)
        return left
    raise OptimizerError(f"cannot derive cardinality for {op!r}")


@dataclass(frozen=True)
class LogicalProps:
    """Scope and estimated cardinality of one memo group.

    With feedback on, the search marks every winning plan node with the
    properties of the group it implements, so a node's subplan identity
    is its group's.
    """

    scope: Scope
    cardinality: float
    # Semantic subplan fingerprint (repro.feedback.fingerprint), or None
    # when the group has no stable identity.  Derived whether or not
    # feedback is on — it is pure structure.
    fingerprint: object = None
    # True when ``cardinality`` came from an observed execution (the
    # feedback store) rather than catalog statistics.
    fed: bool = False
    # The operator and input properties ``fingerprint`` was derived from:
    # the cardinality monitor re-derives the key under a cached plan's
    # running constants (``repro.feedback.fingerprint.group_key``).
    op: LogicalOp | None = field(default=None, compare=False, repr=False)
    inputs: tuple["LogicalProps", ...] = field(
        default=(), compare=False, repr=False
    )

    def __str__(self) -> str:
        source = " (fed)" if self.fed else ""
        return f"{self.scope} ~{self.cardinality:.0f} rows{source}"


def tuple_width_bytes(scope: Scope, catalog: Catalog, overhead: int = 16) -> float:
    """Approximate width of a tuple carrying the scope's objects."""
    width = float(overhead)
    for binding in scope.bindings:
        if binding.kind is BindingKind.OBJECT:
            width += catalog.type_of(binding.type_name).object_size
        else:
            width += 8.0  # a bare reference value
    return width


__all__ = [
    "LogicalProps",
    "QueryVars",
    "VarOrigin",
    "build_query_vars",
    "derive_cardinality",
    "tuple_width_bytes",
]
