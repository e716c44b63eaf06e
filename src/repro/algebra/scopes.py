"""Scope rules of the optimizer-input algebra.

The paper: "The scoping rules in the optimizer input algebra are very
simple.  An object component gets into scope either by being scanned
(captured using the logical Get operator in the leaves of expression
trees) or by being referenced (captured in the Mat operator).  Components
remain in scope until a projection discards them."

A *scope* maps variable names to bindings.  A binding is either an OBJECT
(a component that can be present in memory) or a REF (a bare reference
value produced by Unnest, which must be materialized before its target's
attributes can be touched).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
    Unnest,
)
from repro.algebra.predicates import (
    DerivedOnFirstUse,
    Conjunction,
    Const,
    FieldRef,
    ObjectTerm,
    RefAttr,
    SelfOid,
    VarRef,
)
from repro.catalog.catalog import Catalog
from repro.catalog.schema import AttrKind
from repro.errors import AlgebraError


class BindingKind(enum.Enum):
    """How a scope variable binds: a whole object, or a bare reference."""

    OBJECT = "object"
    REF = "ref"


@dataclass(frozen=True)
class VarBinding:
    name: str
    type_name: str
    kind: BindingKind


@dataclass(frozen=True)
class Scope(DerivedOnFirstUse):
    """An immutable set of variable bindings (name sets derived once)."""

    __slots__ = ("bindings", "names", "object_names", "_by_name")

    bindings: tuple[VarBinding, ...]

    def _derive(self) -> None:
        by_name = {b.name: b for b in self.bindings}
        derived = object.__setattr__
        derived(self, "_by_name", by_name)
        derived(self, "names", frozenset(by_name))
        #: Names of OBJECT bindings (the ones residency can apply to).
        objects = (n for n, b in by_name.items() if b.kind is BindingKind.OBJECT)
        derived(self, "object_names", frozenset(objects))

    @staticmethod
    def of(*bindings: VarBinding) -> "Scope":
        """Build a scope, rejecting duplicate variable names."""
        ordered = tuple(sorted(bindings, key=lambda b: b.name))
        names = [b.name for b in ordered]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate variable in scope: {names}")
        return Scope(ordered)

    def binding(self, name: str) -> VarBinding:
        """Look a variable up; raises AlgebraError when absent."""
        found = self._by_name.get(name)
        if found is None:
            raise AlgebraError(f"variable {name!r} not in scope")
        return found

    def has(self, name: str) -> bool:
        return name in self._by_name

    def extend(self, binding: VarBinding) -> "Scope":
        """A new scope with one more binding (name must be fresh)."""
        if self.has(binding.name):
            raise AlgebraError(f"variable {binding.name!r} already in scope")
        return Scope.of(*self.bindings, binding)

    def merge(self, other: "Scope") -> "Scope":
        """Union of two scopes; overlapping names are an error."""
        overlap = self.names & other.names
        if overlap:
            raise AlgebraError(f"scopes overlap on {sorted(overlap)}")
        return Scope.of(*self.bindings, *other.bindings)

    def __str__(self) -> str:
        return "{" + ", ".join(b.name for b in self.bindings) + "}"


def _check_term(term, scope: Scope, catalog: Catalog) -> None:
    """Validate one predicate term against a scope."""
    if isinstance(term, Const):
        return
    if isinstance(term, VarRef):
        binding = scope.binding(term.var)
        if binding.kind is not BindingKind.REF:
            raise AlgebraError(
                f"VarRef {term.var!r} must name a reference binding; use "
                "SelfOid or ObjectTerm for object bindings"
            )
        return
    if isinstance(term, ObjectTerm):
        binding = scope.binding(term.var)
        if binding.kind is not BindingKind.OBJECT:
            raise AlgebraError(f"ObjectTerm {term.var!r} is not an object binding")
        return
    if isinstance(term, SelfOid):
        binding = scope.binding(term.var)
        if binding.kind is not BindingKind.OBJECT:
            raise AlgebraError(f"{term.var}.self requires an object binding")
        return
    if isinstance(term, (FieldRef, RefAttr)):
        binding = scope.binding(term.var)
        if binding.kind is not BindingKind.OBJECT:
            raise AlgebraError(
                f"attribute access {term} on reference binding {term.var!r}; "
                "materialize it first"
            )
        attr = catalog.attribute(binding.type_name, term.attr)
        if isinstance(term, FieldRef) and attr.kind is not AttrKind.SCALAR:
            raise AlgebraError(f"{term} is not a scalar attribute")
        if isinstance(term, RefAttr) and attr.kind is not AttrKind.REF:
            raise AlgebraError(f"{term} is not a single-valued reference")
        return
    raise AlgebraError(f"unknown term {term!r}")


def check_predicate(pred: Conjunction, scope: Scope, catalog: Catalog) -> None:
    """Validate every term of a predicate against a scope."""
    for comp in pred.comparisons:
        for term in (comp.left, comp.right):
            if isinstance(term, ObjectTerm):
                raise AlgebraError(
                    f"whole-object term {term} not allowed in predicates"
                )
            _check_term(term, scope, catalog)


def link_target(source: RefSource, scope: Scope, catalog: Catalog) -> str:
    """The object type a Mat resolves ``source`` to in ``scope``.

    A bare source must name a reference binding (Unnest's output); an
    attribute source must be a single-valued reference of an object
    binding.
    """
    binding = scope.binding(source.var)
    if source.attr is None:
        if binding.kind is not BindingKind.REF:
            raise AlgebraError(
                f"Mat {source}: bare source must be a reference binding"
            )
        return binding.type_name
    if binding.kind is not BindingKind.OBJECT:
        raise AlgebraError(f"Mat {source}: source variable is not an object")
    attr = catalog.attribute(binding.type_name, source.attr)
    if attr.kind is not AttrKind.REF:
        raise AlgebraError(f"Mat {source}: not a single-valued reference")
    return attr.target_type  # type: ignore[return-value]


def derive_scope(
    op: LogicalOp, child_scopes: tuple[Scope, ...], catalog: Catalog
) -> Scope:
    """The output scope of an operator, validating its arguments.

    This is the algebra's type checker: every scope violation (a Mat whose
    source is not in scope, a predicate over an unbound variable, a Join of
    overlapping scopes) is rejected here, both when the simplifier builds
    the initial expression and when a transformation rule proposes a new
    one.
    """
    if isinstance(op, Get):
        coll = catalog.collection(op.collection)
        return Scope.of(VarBinding(op.var, coll.element_type, BindingKind.OBJECT))

    if isinstance(op, Mat):
        (scope,) = child_scopes
        target = link_target(op.source, scope, catalog)
        return scope.extend(VarBinding(op.out, target, BindingKind.OBJECT))

    if isinstance(op, Unnest):
        (scope,) = child_scopes
        binding = scope.binding(op.var)
        if binding.kind is not BindingKind.OBJECT:
            raise AlgebraError(f"Unnest {op.var}.{op.attr}: source is not an object")
        attr = catalog.attribute(binding.type_name, op.attr)
        if attr.kind is not AttrKind.SET_REF:
            raise AlgebraError(
                f"Unnest {op.var}.{op.attr}: not a set-valued attribute"
            )
        return scope.extend(
            VarBinding(op.out, attr.target_type, BindingKind.REF)  # type: ignore[arg-type]
        )

    if isinstance(op, Select):
        (scope,) = child_scopes
        check_predicate(op.predicate, scope, catalog)
        return scope

    if isinstance(op, Project):
        (scope,) = child_scopes
        for item in op.items:
            _check_term(item.term, scope, catalog)
        if op.order_by is not None:
            order_var, order_attr, _ = op.order_by
            binding = scope.binding(order_var)
            if order_attr is not None:
                if binding.kind is not BindingKind.OBJECT:
                    raise AlgebraError(
                        f"order by {order_var}.{order_attr}: not an object"
                    )
                catalog.attribute(binding.type_name, order_attr)
        # Projection creates objects with new identity; upstream scope ends.
        return Scope.of()

    if isinstance(op, GroupBy):
        (scope,) = child_scopes
        for key in op.keys:
            _check_term(key.term, scope, catalog)
        for agg in op.aggregates:
            if agg.term is not None:
                _check_term(agg.term, scope, catalog)
        names = {k.name for k in op.keys} | {a.name for a in op.aggregates}
        if op.order_output is not None:
            column, _ = op.order_output
            if column not in names:
                raise AlgebraError(
                    f"GroupBy order column {column!r} is not an output column"
                )
        for clause in op.having:
            if clause.column not in names:
                raise AlgebraError(
                    f"HAVING column {clause.column!r} is not an output column"
                )
        # Aggregation produces values with new identity; scope ends.
        return Scope.of()

    if isinstance(op, Join):
        left, right = child_scopes
        merged = left.merge(right)
        check_predicate(op.predicate, merged, catalog)
        return merged

    if isinstance(op, AntiJoin):
        left, right = child_scopes
        merged = left.merge(right)  # also rejects overlapping variables
        check_predicate(op.predicate, merged, catalog)
        return left  # only non-matching LEFT tuples survive

    if isinstance(op, SetOp):
        left, right = child_scopes
        if left != right:
            raise AlgebraError(
                f"set operation over incompatible scopes {left} vs {right}"
            )
        return left

    raise AlgebraError(f"unknown operator {op!r}")


def derive_scope_tree(op: LogicalOp, catalog: Catalog) -> Scope:
    """Recursively derive (and thereby validate) the scope of a whole tree."""
    child_scopes = tuple(derive_scope_tree(c, catalog) for c in op.children)
    return derive_scope(op, child_scopes, catalog)


__all__ = [
    "BindingKind",
    "Scope",
    "VarBinding",
    "check_predicate",
    "derive_scope",
    "derive_scope_tree",
    "link_target",
]
