"""Identity values: object identifiers and object bindings.

Every stored object is identified by an :class:`Oid` — a (type name,
serial) pair.  OIDs are the values held by reference attributes and are
what the paper's ``e.department() == d`` predicate compares.  OIDs are
orderable so that assembly and pointer-join can sort outstanding
references into elevator order.  An :class:`Obj` binds a scope variable
to an object: its OID plus its record when the object is present in
memory.

Both are tuples with C field getters (``collections._tuplegetter``, as
``namedtuple`` uses): hash, equality, order and field reads never enter
a Python frame, and the hot construction sites build bindings with a
C ``map`` of ``tuple.__new__`` over ``(oid, data)`` pairs, past the
Python ``__new__``.
"""

from __future__ import annotations

from collections import _tuplegetter
from typing import Any

from repro.errors import ExecutionError


class Oid(tuple):
    """A globally unique, immutable object identifier.

    The tuple ``(type_name, serial)`` itself: ``hash(Oid(t, s)) ==
    hash((t, s))``, so every set and dict of OIDs iterates in the tuple's
    order, and OIDs order by type name, then serial.  The contract is the
    tuple's: ``Oid("City", 1) == ("City", 1)`` holds and an OID orders
    against a plain pair.  No stored value or query constant is a plain
    (str, int) pair, so the engine never meets the difference.
    """

    __slots__ = ()

    def __new__(cls, type_name: str, serial: int) -> "Oid":
        return tuple.__new__(cls, (type_name, serial))

    type_name = _tuplegetter(0, "The object's type.")
    serial = _tuplegetter(1, "The object's position in its type's segment.")

    def __getnewargs__(self) -> tuple[str, int]:
        return tuple(self)

    def __repr__(self) -> str:  # compact for plan/result dumps
        return f"{self[0]}#{self[1]}"


class Obj(tuple):
    """An object binding: identity plus the resident record — a ``None``
    record is exactly "in scope but not resident"."""

    __slots__ = ()

    def __new__(cls, oid: Oid, data: dict[str, Any] | None) -> "Obj":
        return tuple.__new__(cls, (oid, data))

    oid = _tuplegetter(0, "The object's identity.")
    data = _tuplegetter(1, "The object's record, or None when not resident.")

    def __getnewargs__(self) -> tuple[Oid, dict[str, Any] | None]:
        return tuple(self)

    @property
    def resident(self) -> bool:
        return self.data is not None

    def field(self, attr: str) -> Any:
        """Read an attribute; raises unless the object is resident."""
        if self.data is None:
            raise ExecutionError(
                f"attribute {attr!r} of non-resident object {self.oid}"
            )
        return self.data.get(attr)

    def __repr__(self) -> str:
        return f"Obj({self.oid})"


__all__ = ["Obj", "Oid"]
