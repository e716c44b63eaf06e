"""DML validation and normalization: the logical layer of the write path.

The read side of the stack separates a rich user algebra from a small
optimizer-input algebra; DML gets the same treatment in miniature.  This
module type-checks an INSERT/UPDATE/DELETE AST against the catalog and
reduces it to a *write plan*:

* :class:`InsertPlan` — fully normalized records (every attribute of the
  element type present: unnamed scalars/refs default to null, unnamed
  set-valued attributes to the empty tuple);
* :class:`UpdatePlan` / :class:`DeletePlan` — the validated assignments
  plus a **target query**: an ordinary SELECT built from the statement's
  range and WHERE.  The target query runs through the normal simplify →
  optimize → execute pipeline, so index selection, plan caching, and the
  governor all apply to finding the rows a write touches.

A write plan is a template: each SET / VALUES literal that may vary is a
:class:`ParamSlot` (listed in ``values``) ahead of the target query's
slots in the statement's consts, so the digest memo can keep the plan.

Actual application of the buffered writes lives in
:mod:`repro.engine.dml`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cache.fingerprint import ParamSlot, bindable
from repro.catalog.catalog import Catalog
from repro.catalog.schema import AttrKind, AttributeDef
from repro.errors import CatalogError, QueryTypeError, SchemaError
from repro.lang.ast import (
    ConstAst,
    DeleteAst,
    InsertAst,
    Operand,
    ParamAst,
    PathAst,
    QueryAst,
    SelectItemAst,
    UpdateAst,
)


@dataclass(frozen=True)
class InsertPlan:
    """A validated INSERT: the collection and full normalized records."""

    operation = "insert"
    target = None
    collection: str
    records: tuple[dict[str, Any], ...]
    values: tuple[ParamSlot, ...] = ()


@dataclass(frozen=True)
class Assignment:
    """One validated SET clause: the attribute and its value operand.

    ``value`` is a plain constant, a :class:`ParamSlot` of the statement's
    consts, or a :class:`PathAst` rooted at the update's range variable
    (evaluated per target object at apply time).
    """

    attr: str
    value: Any
    is_path: bool = False


@dataclass(frozen=True)
class UpdatePlan:
    """A validated UPDATE: target query, range variable, assignments."""

    operation = "update"
    target: Any  # the QueryAst, or its parameterized template
    var: str
    collection: str
    assignments: tuple[Assignment, ...]
    values: tuple[ParamSlot, ...] = ()


@dataclass(frozen=True)
class DeletePlan:
    """A validated DELETE: target query and range variable."""

    operation = "delete"
    values = ()
    target: Any  # the QueryAst, or its parameterized template
    var: str
    collection: str


def _lift(values: list[ParamSlot], operand: ConstAst, value: Any) -> Any:
    """A validated literal ``value`` as the next slot of ``values``, when
    it may vary from one statement of the shape to the next."""
    if not bindable(value):
        return value
    slot = ParamSlot(f"?{len(values)}", len(values), True, value, operand.position)
    values.append(slot)
    return slot


def _element_type(catalog: Catalog, collection: str):
    try:
        coll = catalog.collection(collection)
    except CatalogError as exc:
        raise QueryTypeError(str(exc)) from exc
    return coll, catalog.type_of(coll.element_type)


def _attribute(element, name: str) -> AttributeDef:
    try:
        return element.attribute(name)
    except SchemaError as exc:
        raise QueryTypeError(str(exc)) from exc


def _check_const(attr: AttributeDef, value: Any, context: str) -> Any:
    """Type-check a literal against an attribute; returns the stored value."""
    if value is None:
        return () if attr.kind is AttrKind.SET_REF else None
    if attr.kind is not AttrKind.SCALAR:
        raise QueryTypeError(
            f"{context}: attribute {attr.name!r} is a reference; only null "
            "literals may be assigned to references in ZQL text"
        )
    if not isinstance(value, (int, float, str, bool)):
        raise QueryTypeError(
            f"{context}: unsupported literal {value!r} for {attr.name!r}"
        )
    return value


def plan_insert(ast: InsertAst, catalog: Catalog) -> InsertPlan:
    """Validate an INSERT and normalize its rows to full records."""
    coll, element = _element_type(catalog, ast.collection)
    if len(set(ast.columns)) != len(ast.columns):
        raise QueryTypeError(
            f"INSERT INTO {coll.name}: duplicate column names"
        )
    column_attrs = [_attribute(element, name) for name in ast.columns]
    records: list[dict[str, Any]] = []
    values: list[ParamSlot] = []
    for row in ast.rows:
        if len(row) != len(ast.columns):
            raise QueryTypeError(
                f"INSERT INTO {coll.name}: row has {len(row)} values for "
                f"{len(ast.columns)} columns"
            )
        record: dict[str, Any] = {
            a.name: (() if a.kind is AttrKind.SET_REF else None)
            for a in element.attributes
        }
        for attr, operand in zip(column_attrs, row):
            if isinstance(operand, ParamAst):
                raise QueryTypeError(
                    f"INSERT INTO {coll.name}: unbound parameter "
                    f"${operand.name}"
                )
            assert isinstance(operand, ConstAst)
            record[attr.name] = _lift(values, operand, _check_const(
                attr, operand.value, f"INSERT INTO {coll.name}"
            ))
        records.append(record)
    return InsertPlan(coll.name, tuple(records), tuple(values))


def _target_query(range_ast, where, catalog: Catalog) -> QueryAst:
    """The SELECT that finds the objects an UPDATE/DELETE touches."""
    if not isinstance(range_ast.source, str):
        raise QueryTypeError(
            "DML ranges must name a collection, not a correlated path"
        )
    return QueryAst(
        select_items=(SelectItemAst(PathAst(range_ast.var)),),
        ranges=(range_ast,),
        where=tuple(where),
    )


def _validate_range(range_ast, catalog: Catalog, statement: str):
    coll, element = _element_type(catalog, range_ast.source)
    if range_ast.type_name is not None and range_ast.type_name != coll.element_type:
        raise QueryTypeError(
            f"{statement}: range type {range_ast.type_name!r} does not match "
            f"{coll.name!r} element type {coll.element_type!r}"
        )
    return coll, element


def _validate_assignment(
    assignment, element, catalog: Catalog, var: str, values: list[ParamSlot]
) -> Assignment:
    target: PathAst = assignment.target
    if target.root != var:
        raise QueryTypeError(
            f"UPDATE: assignment target {target} must start at range "
            f"variable {var!r}"
        )
    attr = _attribute(element, target.links[0])
    if attr.kind is AttrKind.SET_REF:
        raise QueryTypeError(
            f"UPDATE: cannot assign set-valued attribute {attr.name!r}"
        )
    value: Operand = assignment.value
    if isinstance(value, ParamAst):
        raise QueryTypeError(f"UPDATE: unbound parameter ${value.name}")
    if isinstance(value, ConstAst):
        return Assignment(
            attr.name, _lift(values, value, _check_const(attr, value.value, "UPDATE"))
        )
    assert isinstance(value, PathAst)
    if value.root != var:
        raise QueryTypeError(
            f"UPDATE: value path {value} must start at range variable "
            f"{var!r}"
        )
    if not value.links:
        raise QueryTypeError(
            f"UPDATE: cannot assign the range variable itself to "
            f"{attr.name!r}"
        )
    # Resolve the read path against the schema; the final link decides
    # the value kind written.
    try:
        attrs = catalog.resolve_path(element.name, value.links)
    except CatalogError as exc:
        raise QueryTypeError(str(exc)) from exc
    read_kind = attrs[-1].kind
    if attr.kind is AttrKind.SCALAR and read_kind is not AttrKind.SCALAR:
        raise QueryTypeError(
            f"UPDATE: cannot assign reference path {value} to scalar "
            f"{attr.name!r}"
        )
    if attr.kind is AttrKind.REF and read_kind is not AttrKind.REF:
        raise QueryTypeError(
            f"UPDATE: cannot assign scalar path {value} to reference "
            f"{attr.name!r}"
        )
    return Assignment(attr.name, value, is_path=True)


def plan_update(ast: UpdateAst, catalog: Catalog) -> UpdatePlan:
    """Validate an UPDATE and build its target-selection query."""
    coll, element = _validate_range(ast.range, catalog, "UPDATE")
    seen: set[str] = set()
    assignments = []
    values: list[ParamSlot] = []
    for assignment in ast.assignments:
        validated = _validate_assignment(
            assignment, element, catalog, ast.range.var, values
        )
        if validated.attr in seen:
            raise QueryTypeError(
                f"UPDATE: attribute {validated.attr!r} assigned twice"
            )
        seen.add(validated.attr)
        assignments.append(validated)
    return UpdatePlan(
        target=_target_query(ast.range, ast.where, catalog),
        var=ast.range.var,
        collection=coll.name,
        assignments=tuple(assignments),
        values=tuple(values),
    )


def plan_delete(ast: DeleteAst, catalog: Catalog) -> DeletePlan:
    """Validate a DELETE and build its target-selection query."""
    coll, _ = _validate_range(ast.range, catalog, "DELETE")
    return DeletePlan(
        target=_target_query(ast.range, ast.where, catalog),
        var=ast.range.var,
        collection=coll.name,
    )


def plan_write(ast: InsertAst | UpdateAst | DeleteAst, catalog: Catalog):
    """Validate any write statement into its plan."""
    plan = {InsertAst: plan_insert, UpdateAst: plan_update, DeleteAst: plan_delete}
    return plan[type(ast)](ast, catalog)


__all__ = [
    "Assignment",
    "DeletePlan",
    "InsertPlan",
    "UpdatePlan",
    "plan_delete",
    "plan_insert",
    "plan_update",
    "plan_write",
]
