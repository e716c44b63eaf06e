"""DML execution: applying validated write plans through a transaction.

The split mirrors the read side: :mod:`repro.algebra.dml` type-checks a
statement into a write plan, the ``Database`` runs the plan's target
query through the ordinary optimize/execute pipeline (pinned to the
transaction's snapshot view), and this module applies the writes the
target rows call for — buffered in the transaction, visible to no one
else until commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.algebra.dml import DeletePlan, InsertPlan, UpdatePlan
from repro.cache.fingerprint import ParamSlot
from repro.engine.tuples import Obj, Row
from repro.errors import ExecutionError
from repro.storage.mvcc import Transaction
from repro.storage.objects import Oid


@dataclass
class DmlResult:
    """What one INSERT/UPDATE/DELETE did.

    ``csn`` is the commit sequence number for auto-committed statements
    and None when the write stayed buffered in an open transaction.
    """

    operation: str  # "insert" | "update" | "delete"
    affected: int
    csn: int | None = None

    def __len__(self) -> int:
        return self.affected


def evaluate_path(view, data: dict[str, Any], links: tuple[str, ...]) -> Any:
    """Dereference an assignment's value path from a target object.

    Intermediate links must cross single-valued references; nulls
    propagate (a null anywhere on the path yields null).
    """
    value: Any = data
    for position, link in enumerate(links):
        if value is None:
            return None
        value = value.get(link)
        if position < len(links) - 1:
            if value is None:
                return None
            if not isinstance(value, Oid):
                raise ExecutionError(
                    f"path {'.'.join(links)!r} crosses non-reference "
                    f"value {value!r}"
                )
            value = view.peek(value)
    return value


def apply_insert(txn: Transaction, plan: InsertPlan, consts: tuple) -> int:
    """Buffer the plan's records, slots bound to ``consts``, as objects."""
    for record in plan.records:
        txn.insert(plan.collection, {
            attr: consts[value.index] if isinstance(value, ParamSlot) else value
            for attr, value in record.items()
        })
    return len(plan.records)


def apply_update(
    view, txn: Transaction, plan: UpdatePlan, rows: list[Row], consts: tuple
) -> int:
    """Apply the plan's assignments (slots bound to ``consts``) to every
    target row's object."""
    affected = 0
    for row in rows:
        obj = row[plan.var]
        if not isinstance(obj, Obj):
            raise ExecutionError(
                f"UPDATE target {plan.var!r} did not bind an object"
            )
        new_data = dict(obj.data)
        for assignment in plan.assignments:
            value = assignment.value
            if assignment.is_path:
                value = evaluate_path(view, obj.data, value.links)
            elif isinstance(value, ParamSlot):
                value = consts[value.index]
            new_data[assignment.attr] = value
        txn.update(obj.oid, new_data)
        affected += 1
    return affected


def apply_delete(txn: Transaction, plan: DeletePlan, rows: list[Row]) -> int:
    """Buffer the deletion of every target row's object."""
    affected = 0
    for row in rows:
        obj = row[plan.var]
        if not isinstance(obj, Obj):
            raise ExecutionError(
                f"DELETE target {plan.var!r} did not bind an object"
            )
        txn.delete(obj.oid)
        affected += 1
    return affected


__all__ = [
    "DmlResult",
    "apply_delete",
    "apply_insert",
    "apply_update",
    "evaluate_path",
]
