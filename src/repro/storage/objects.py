"""Object identity.

Every stored object is identified by an :class:`Oid` — a (type name,
serial) pair.  OIDs are the values held by reference attributes and are
what the paper's ``e.department() == d`` predicate compares.  OIDs are
orderable so that assembly and pointer-join can sort outstanding
references into elevator order.
"""

from __future__ import annotations

from functools import total_ordering


@total_ordering
class Oid:
    """A globally unique, immutable object identifier.

    Written by hand rather than as a frozen dataclass because every dict
    and set on the read path is keyed by OIDs: the hash is computed once
    and is *equal to* ``hash((type_name, serial))``, so iteration orders
    are those of the tuple, and there is no per-instance ``__dict__``.
    """

    __slots__ = ("type_name", "serial", "_hash")

    def __init__(self, type_name: str, serial: int) -> None:
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "serial", serial)
        object.__setattr__(self, "_hash", hash((type_name, serial)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an Oid")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an Oid")

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__: a string's hash differs per process.
        return Oid, (self.type_name, self.serial)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Oid:
            return self.serial == other.serial and self.type_name == other.type_name
        return NotImplemented

    def __lt__(self, other: "Oid") -> bool:
        if other.__class__ is Oid:
            return (self.type_name, self.serial) < (other.type_name, other.serial)
        return NotImplemented

    def __repr__(self) -> str:  # compact for plan/result dumps
        return f"{self.type_name}#{self.serial}"


__all__ = ["Oid"]
