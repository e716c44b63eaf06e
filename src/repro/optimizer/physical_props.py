"""Physical properties: presence in memory and sort order.

"In object-oriented query processing, an important property is presence
in memory."  A property vector here is the set of scope variables whose
objects a plan guarantees to be resident when it delivers a tuple, plus an
optional *sort order*.  The paper names sort order as "the standard
example for a physical property in relational query optimization" but
leaves merge-join unimplemented; this reproduction includes both, so the
enforcer mechanism (assembly for residency, sort for order) is exercised
on two properties as the framework intends.

The search engine is *goal-directed*: a parent algorithm states the
property vector its inputs must satisfy, and only subplans that can
deliver that vector are considered (Figure 11's search state).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SortKey:
    """Orders a stream by a scope variable's attribute (or by its OID /
    reference value when ``attr`` is None)."""

    var: str
    attr: str | None = None
    ascending: bool = True

    def __str__(self) -> str:
        base = self.var if self.attr is None else f"{self.var}.{self.attr}"
        return base if self.ascending else f"{base} desc"


class _GoalHash:
    """A property vector's one derived slot (it must not be a field)."""

    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True)
class PhysProps(_GoalHash):
    """A required or delivered physical property vector.

    A goal is keyed by its vector: the hash (the generated field-tuple
    hash) is kept from first use, in a slot ``replace`` and unpickling
    leave unset.
    """

    in_memory: frozenset[str] = frozenset()
    order: SortKey | None = None

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.in_memory, self.order))
            object.__setattr__(self, "_hash", value)
            return value

    @staticmethod
    def of(*names: str, order: SortKey | None = None) -> "PhysProps":
        return PhysProps(frozenset(names), order)

    @staticmethod
    def none() -> "PhysProps":
        return PhysProps(frozenset(), None)

    def satisfies(self, required: "PhysProps") -> bool:
        """Superset residency, and exact order when one is required."""
        if not (required.in_memory <= self.in_memory):
            return False
        return required.order is None or required.order == self.order

    def union(self, other: "PhysProps") -> "PhysProps":
        """Merge residency sets; keeps this vector's order."""
        return PhysProps(self.in_memory | other.in_memory, self.order)

    def add(self, *names: str) -> "PhysProps":
        return PhysProps(self.in_memory | frozenset(names), self.order)

    def remove(self, name: str) -> "PhysProps":
        return PhysProps(self.in_memory - {name}, self.order)

    def restrict(self, names: frozenset[str]) -> "PhysProps":
        """Residency intersection; order survives only if its variable does."""
        order = self.order if self.order and self.order.var in names else None
        return PhysProps(self.in_memory & names, order)

    def with_order(self, order: SortKey | None) -> "PhysProps":
        return PhysProps(self.in_memory, order)

    def without_order(self) -> "PhysProps":
        return PhysProps(self.in_memory, None)

    @property
    def is_empty(self) -> bool:
        return not self.in_memory and self.order is None

    def __iter__(self):
        return iter(sorted(self.in_memory))

    def __str__(self) -> str:
        body = "{" + ", ".join(sorted(self.in_memory)) + "}"
        if self.order is not None:
            body += f" order by {self.order}"
        return body


__all__ = ["PhysProps", "SortKey"]
