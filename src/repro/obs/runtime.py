"""Per-operator runtime statistics for executed plans.

While a plan runs, every physical operator's row stream is wrapped in an
instrumented iterator (:func:`repro.engine.iterators.instrumented`) that
counts rows, accumulates ``next()`` wall time, and — via the buffer
pool's I/O scope stack — attributes page hits and misses to the operator
whose code actually requested the page.  Attribution is *exclusive*:
while a parent operator pulls from a child, the child's scope sits on top
of the stack, so the parent is only charged for I/O its own body issues
(assembly fetches, index probes), never for its inputs'.

``next()`` time, by contrast, is *inclusive* (a parent's time contains
its children's), matching the convention of every SQL EXPLAIN ANALYZE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: plans -> cost only
    from repro.optimizer.plans import PhysicalNode


@dataclass
class OperatorIOStats:
    """Buffer traffic issued by one operator's own code (exclusive)."""

    hits: int = 0
    misses: int = 0
    spill_reads: int = 0
    spill_writes: int = 0

    @property
    def page_reads(self) -> int:
        """Disk page reads this operator caused (== misses)."""
        return self.misses


@dataclass
class OperatorRunStats:
    """Actual runtime behaviour of one plan node, next to its estimates."""

    algorithm: str
    description: str
    est_rows: float
    est_cost_total: float
    rows_out: int = 0
    next_seconds: float = 0.0
    io: OperatorIOStats = field(default_factory=OperatorIOStats)
    #: Where ``est_rows`` came from: "est" (catalog statistics) or
    #: "feedback" (an observed cardinality; EXPLAIN shows "est (fed)").
    est_source: str = "est"


class RunStatsCollector:
    """Stats for every node of one executing plan, keyed by node identity.

    Plan nodes are plain dataclasses (no stable hash), so the collector
    keys on ``id(node)``; the plan tree outlives the collector's use, so
    identity is stable for the whole collection window.
    """

    def __init__(self) -> None:
        self._stats: dict[int, OperatorRunStats] = {}

    def stats_for(self, node: "PhysicalNode") -> OperatorRunStats:
        """The (lazily created) stats record for one plan node."""
        record = self._stats.get(id(node))
        if record is None:
            record = OperatorRunStats(
                algorithm=node.algorithm,
                description=node.describe(),
                est_rows=node.rows,
                est_cost_total=node.total_cost.total,
                est_source=node.row_source,
            )
            self._stats[id(node)] = record
        return record

    def get(self, node: "PhysicalNode") -> OperatorRunStats | None:
        """The stats record for a node, or None if it never produced."""
        return self._stats.get(id(node))

    def __len__(self) -> int:
        return len(self._stats)


__all__ = ["OperatorIOStats", "OperatorRunStats", "RunStatsCollector"]
