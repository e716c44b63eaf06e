"""Logical properties of memo groups, and query-wide variable origins.

A group's logical properties — its key, scope and estimated output
cardinality — are shared by every expression in the group, so the
derivations here are deliberately *composition-order independent*.  The
key (:func:`derive_key`) is what the group computes: the variables bound,
each with its source; the conjuncts applied; and the operators the form
does not open.  Selectivities multiply, Mat is 1:1, and the
reference-equality selectivity is defined so that ``Mat c.country`` and
``Join(..., Get extent(Country))`` — one key — estimate the same
cardinality.

Variable *origins* are computed once from the initial expression: every
scope variable traces back to a root collection and an attribute path
(``c.mayor`` -> (Cities, ("mayor",))).  Origins power index-assisted
selectivity, unnest fan-outs, enforcer sources, and the
collapse-to-index-scan match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algebra.operators import (
    AntiJoin,
    Get,
    GroupBy,
    Join,
    LogicalOp,
    Mat,
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

    def walk(op: LogicalOp) -> None:
        for child in op.children:
            walk(child)
        if isinstance(op, Get):
            element = catalog.collection(op.collection).element_type
            origins[op.var] = VarOrigin(op.collection, (), element)
        elif isinstance(op, Mat):
            src = op.source
            parent = origins.get(src.var)
            if parent is None:
                raise OptimizerError(f"Mat source {src.var!r} has no origin")
            if src.attr is None:
                origins[op.out] = parent
            else:
                attr = catalog.attribute(parent.type_name, src.attr)
                origins[op.out] = VarOrigin(
                    parent.collection,
                    parent.path + (src.attr,),
                    attr.target_type or "",
                )
            sources[op.out] = src
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
    if isinstance(op, Mat):
        # 1:1: a reference resolves to at most one object.
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


# ``(bindings, conjuncts, atoms)``: ``(var, source)`` pairs, canonical
# Comparisons, and one atom per Unnest or unopened operator.
GroupKey = tuple[frozenset, frozenset, frozenset]

_EMPTY: frozenset = frozenset()


def derive_key(
    op: LogicalOp,
    child_props: tuple["LogicalProps", ...],
    scope: Scope,
    catalog: Catalog,
) -> GroupKey:
    """What ``op`` over inputs with ``child_props`` computes (``scope`` is
    its output scope): the memo's group key.

    ``Get v: C`` binds ``(v, C)``; Select and Join add their conjuncts to
    the union of their inputs' keys.  A Mat ``src: w`` binds ``w`` to
    its target type's extent (``("type", T)`` without one) and applies
    ``src.oid_join(w)``, the predicate Mat-to-Join writes, so a Mat and
    its extent join share a key and a Get of a named set never does.
    Project, GroupBy, AntiJoin and SetOp are opaque: one atom of their
    signature and input keys (unordered where the operator commutes).
    """
    if isinstance(op, Get):
        return frozenset({(op.var, op.collection)}), _EMPTY, _EMPTY
    if isinstance(op, Select):
        bindings, conjuncts, atoms = child_props[0].key
        return bindings, conjuncts.union(op.predicate.comparisons), atoms
    if isinstance(op, Join):
        (lb, lc, la), (rb, rc, ra) = child_props[0].key, child_props[1].key
        return lb | rb, lc.union(rc, op.predicate.comparisons), la | ra
    if isinstance(op, Mat):
        bindings, conjuncts, atoms = child_props[0].key
        target = scope.binding(op.out).type_name
        extent = catalog.extent_of(target)
        source = ("type", target) if extent is None else extent.name
        return (
            bindings | {(op.out, source)},
            conjuncts.union(op.source.oid_join(op.out).comparisons),
            atoms,
        )
    if isinstance(op, Unnest):
        bindings, conjuncts, atoms = child_props[0].key
        return bindings, conjuncts, atoms | {("unnest", op.var, op.attr, op.out)}
    inputs = tuple(p.key for p in child_props)
    if isinstance(op, SetOp) and op.kind is not SetOpKind.DIFFERENCE:
        inputs = frozenset(inputs)
    return _EMPTY, _EMPTY, frozenset({(op.signature(), inputs)})


@dataclass(frozen=True)
class LogicalProps:
    """Key, scope and estimated cardinality of one memo group.

    With feedback on, the search marks every winning plan node with the
    properties of the group it implements, so a node's subplan identity
    is its group's key (``repro.feedback.fingerprint.group_key``).
    """

    scope: Scope
    cardinality: float
    key: GroupKey
    # True when ``cardinality`` came from an observed execution (the
    # feedback store) rather than catalog statistics.
    fed: bool = False

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
    "GroupKey",
    "LogicalProps",
    "QueryVars",
    "VarOrigin",
    "build_query_vars",
    "derive_cardinality",
    "derive_key",
    "tuple_width_bytes",
]
