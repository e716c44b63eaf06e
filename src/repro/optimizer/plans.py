"""Physical plan trees.

Each node records the execution algorithm, its arguments, the physical
properties it *delivers* (which variables are present in memory), the
estimated output cardinality, and local/total estimated cost.  The pretty
printer renders the same shapes as the paper's figures ("Hybrid Hash Join
j.self == e.job", "Assembly d.plant", "Index Scan Cities: c, ...").

A plan the cache holds is an immutable template: constants the cache
lifted are slotted terms (``Const(value, slot)``), shared by every
statement of the shape and resolved per execution from the statement's
``consts``.  Rendering shows those under ``predicates.showing(consts)``
(``QueryResult.explain`` does), the first binding's values otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import ProjectItem, RefSource, SetOpKind
from repro.algebra.predicates import Comparison, Conjunction, Term
from repro.catalog.catalog import IndexDef
from repro.optimizer.cost import Cost
from repro.optimizer.logical_props import LogicalProps
from repro.optimizer.physical_props import PhysProps


class _SubtreeCost:
    """A plan node's one derived slot: dataclasses build ``__slots__`` from
    fields, and ``dataclasses.replace`` copies fields — a copied sum would
    be stale."""

    __slots__ = ("total_cost",)


@dataclass(slots=True)
class PhysicalNode(_SubtreeCost):
    """Base class for all plan nodes."""

    children: tuple["PhysicalNode", ...] = field(default=(), kw_only=True)
    delivered: PhysProps = field(default_factory=PhysProps.none, kw_only=True)
    rows: float = field(default=0.0, kw_only=True)
    local_cost: Cost = field(default_factory=Cost.zero, kw_only=True)
    # The properties of the memo group the node implements, set when the
    # node wins its goal in a feedback-on search: its subplan identity
    # for cardinality feedback.  None: the node is not monitored.
    props: LogicalProps | None = field(
        default=None, kw_only=True, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # Estimated cost of the whole subtree, summed once, left to right.
        cost = self.local_cost
        for child in self.children:
            cost = cost + child.total_cost
        self.total_cost = cost

    @property
    def row_source(self) -> str:
        """Provenance of ``rows``: "feedback" when the memo replaced the
        group's estimate with an observed cardinality, else "est"."""
        props = self.props
        return "feedback" if props is not None and props.fed else "est"

    @property
    def algorithm(self) -> str:
        return type(self).__name__.removesuffix("Node")

    def describe(self) -> str:
        """One-line rendering in the paper's figure style."""
        raise NotImplementedError

    def pretty(
        self, indent: int = 0, costs: bool = False, props: bool = False
    ) -> str:
        """Render the plan tree in the paper's figure style.

        ``costs`` appends row and cost estimates; ``props`` appends each
        node's delivered physical property vector (Figure 11's view of
        the search)."""
        line = " " * indent + self.describe()
        if costs:
            fed = " (fed)" if self.row_source == "feedback" else ""
            line += (
                f"   [~{self.rows:.0f} rows{fed}, "
                f"total {self.total_cost.total:.3f}s]"
            )
        if props:
            line += f"   <delivers {self.delivered}>"
        lines = [line]
        for child in self.children:
            lines.append(child.pretty(indent + 2, costs, props))
        return "\n".join(lines)

    def walk(self):
        """Pre-order iteration over the plan tree."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(slots=True)
class FileScanNode(PhysicalNode):
    collection: str
    var: str

    def describe(self) -> str:
        return f"File Scan {self.collection}: {self.var}"


@dataclass(slots=True)
class IndexScanNode(PhysicalNode):
    collection: str
    var: str
    index: IndexDef
    comparison: Comparison
    residual: Conjunction

    def describe(self) -> str:
        text = f"Index Scan {self.collection}: {self.var}, {self.comparison}"
        if not self.residual.is_true:
            text += f" [residual {self.residual}]"
        return text


@dataclass(slots=True)
class FilterNode(PhysicalNode):
    predicate: Conjunction

    def describe(self) -> str:
        return f"Filter {self.predicate}"


@dataclass(slots=True)
class HashJoinNode(PhysicalNode):
    """Hybrid hash join; the left child is the build input."""

    predicate: Conjunction

    def describe(self) -> str:
        return f"Hybrid Hash Join {self.predicate}"


@dataclass(slots=True)
class HashAntiJoinNode(PhysicalNode):
    """NOT EXISTS execution: build a key set from the right (subquery)
    input, stream the left, emit tuples with no match."""

    predicate: Conjunction

    def describe(self) -> str:
        return f"Hash Anti-Join {self.predicate}"


@dataclass(slots=True)
class MergeJoinNode(PhysicalNode):
    """Merge join over inputs sorted on the join key (left drives order).

    The key terms are recorded explicitly: the executor must merge on the
    same comparison the optimizer required the inputs sorted by, not on an
    arbitrary equi-conjunct of the predicate.
    """

    predicate: Conjunction
    left_key: Term
    right_key: Term

    def describe(self) -> str:
        return (
            f"Merge Join {self.predicate} [merge on {self.left_key} = "
            f"{self.right_key}]"
        )


@dataclass(slots=True)
class SortNode(PhysicalNode):
    """The sort-order enforcer."""

    def describe(self) -> str:
        return f"Sort by {self.delivered.order}"


@dataclass(slots=True)
class NestedLoopsNode(PhysicalNode):
    predicate: Conjunction

    def describe(self) -> str:
        return f"Nested Loops {self.predicate}"


@dataclass(slots=True)
class AssemblyNode(PhysicalNode):
    """Windowed reference resolution; also the presence-in-memory enforcer."""

    source: RefSource
    out: str
    window: int
    enforcer: bool = False

    def describe(self) -> str:
        suffix = " (enforcer)" if self.enforcer else ""
        if str(self.source) == self.out:
            return f"Assembly {self.out}{suffix}"
        return f"Assembly {self.source}: {self.out}{suffix}"


@dataclass(slots=True)
class PointerJoinNode(PhysicalNode):
    """Shekita/Carey partitioned pointer-based join implementing Mat."""

    source: RefSource
    out: str

    def describe(self) -> str:
        if str(self.source) == self.out:
            return f"Pointer Join {self.out}"
        return f"Pointer Join {self.source}: {self.out}"


@dataclass(slots=True)
class WarmStartAssemblyNode(PhysicalNode):
    """Lesson 7: pre-scan the scannable target, then resolve from memory."""

    source: RefSource
    out: str
    target_collection: str

    def describe(self) -> str:
        return f"Warm-Start Assembly {self.source}: {self.out} (scan {self.target_collection})"


@dataclass(slots=True)
class AlgUnnestNode(PhysicalNode):
    var: str
    attr: str
    out: str

    def describe(self) -> str:
        return f"Alg-Unnest {self.var}.{self.attr}: {self.out}"


@dataclass(slots=True)
class AlgProjectNode(PhysicalNode):
    items: tuple[ProjectItem, ...]
    distinct: bool = False

    def describe(self) -> str:
        cols = ", ".join(str(item) for item in self.items)
        prefix = "Alg-Project distinct" if self.distinct else "Alg-Project"
        return f"{prefix} {cols}"


@dataclass(slots=True)
class HashSetOpNode(PhysicalNode):
    kind: SetOpKind

    def describe(self) -> str:
        return f"Hash {self.kind.value.capitalize()}"


@dataclass(slots=True)
class HashGroupByNode(PhysicalNode):
    keys: tuple[ProjectItem, ...]
    aggregates: tuple  # of algebra.operators.AggSpec
    order_output: tuple[str, bool] | None = None
    having: tuple = ()  # of algebra.operators.HavingClause

    def describe(self) -> str:
        keys = ", ".join(str(k) for k in self.keys)
        aggs = ", ".join(str(a) for a in self.aggregates)
        body = "; ".join(part for part in (keys, aggs) if part)
        text = f"Hash Group-By {body}"
        if self.having:
            text += " having " + " and ".join(str(h) for h in self.having)
        if self.order_output is not None:
            name, ascending = self.order_output
            text += f" order by {name}{'' if ascending else ' desc'}"
        return text


def plan_signature(plan: PhysicalNode) -> tuple:
    """A structural fingerprint of a plan (for tests comparing shapes)."""
    return (
        plan.algorithm,
        tuple(plan_signature(child) for child in plan.children),
    )


def plan_algorithms(plan: PhysicalNode) -> list[str]:
    """Pre-order list of algorithm names (for shape assertions)."""
    return [node.algorithm for node in plan.walk()]


__all__ = [
    "AlgProjectNode",
    "AlgUnnestNode",
    "AssemblyNode",
    "FileScanNode",
    "FilterNode",
    "HashAntiJoinNode",
    "HashGroupByNode",
    "HashJoinNode",
    "HashSetOpNode",
    "IndexScanNode",
    "MergeJoinNode",
    "NestedLoopsNode",
    "PhysicalNode",
    "SortNode",
    "PointerJoinNode",
    "WarmStartAssemblyNode",
    "plan_algorithms",
    "plan_signature",
]
