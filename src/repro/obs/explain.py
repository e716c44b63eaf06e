"""EXPLAIN ANALYZE: estimated vs. actual, per plan operator.

The report pairs each physical plan node's *estimates* (cardinality and
cost, the numbers the optimizer chose the plan by) with its *actuals*
(rows produced, ``next()`` wall time, buffer hits/misses attributed to
the operator) and carries the optimizer's trace events alongside, so a
single artifact answers both "what did the search do" and "where did the
executed plan spend its pages".

Renderings: :meth:`ExplainReport.render` for humans (the CLI's
``.explain analyze``), :meth:`ExplainReport.to_json` for machines (the
benchmark harness's estimation-accuracy reports).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.runtime import OperatorRunStats, RunStatsCollector
from repro.obs.tracer import TraceEvent

if TYPE_CHECKING:  # imported for annotations only; no runtime cycle
    from repro.engine.executor import ExecutionResult
    from repro.optimizer.optimizer import OptimizationResult
    from repro.optimizer.plans import PhysicalNode


@dataclass
class NodeReport:
    """One plan operator's estimates next to its measured actuals."""

    algorithm: str
    description: str
    est_rows: float
    est_cost_total: float
    actual_rows: int
    next_seconds: float
    buffer_hits: int
    buffer_misses: int
    spill_reads: int = 0
    spill_writes: int = 0
    est_source: str = "est"
    children: tuple["NodeReport", ...] = ()

    @property
    def actual_rows_in(self) -> int:
        """Rows this operator pulled from its inputs (children's output)."""
        return sum(child.actual_rows for child in self.children)

    @property
    def cardinality_error(self) -> float:
        """Estimated over actual rows as a q-error-style ratio (>= 1).

        Unclamped: "estimated 0, saw 500" is an *infinite* error, not the
        500x that flooring both sides at 1 would report — feedback
        ingestion needs the distinction.  Both sides zero (or exactly
        equal) is a perfect estimate: 1.0.
        """
        est = max(self.est_rows, 0.0)
        act = max(float(self.actual_rows), 0.0)
        if est == act:
            return 1.0
        if est <= 0.0 or act <= 0.0:
            return float("inf")
        return max(est / act, act / est)

    def line(self) -> str:
        """The annotation appended to this operator's plan line."""
        spill = ""
        if self.spill_writes or self.spill_reads:
            spill = (
                f", spill {self.spill_writes} writes/"
                f"{self.spill_reads} reads"
            )
        fed = " (fed)" if self.est_source == "feedback" else ""
        return (
            f"[est{fed} {self.est_rows:.0f} rows, {self.est_cost_total:.3f}s]"
            f" (act {self.actual_rows} rows, "
            f"{self.next_seconds * 1000:.2f} ms, "
            f"{self.buffer_hits} hits/{self.buffer_misses} misses{spill})"
        )

    def walk(self):
        """Pre-order iteration over the report tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready nested dict (schema consumed by ``benchmarks/``)."""
        return {
            "algorithm": self.algorithm,
            "description": self.description,
            "estimated": {
                "rows": self.est_rows,
                "cost_seconds": self.est_cost_total,
                "source": self.est_source,
            },
            "actual": {
                "rows": self.actual_rows,
                "rows_in": self.actual_rows_in,
                "next_seconds": self.next_seconds,
                "buffer_hits": self.buffer_hits,
                "buffer_misses": self.buffer_misses,
                "spill_reads": self.spill_reads,
                "spill_writes": self.spill_writes,
            },
            "cardinality_error": self.cardinality_error,
            "children": [child.to_dict() for child in self.children],
        }


@dataclass
class ExplainReport:
    """The full EXPLAIN ANALYZE artifact for one executed query."""

    query: str
    root: NodeReport
    optimization: "OptimizationResult"
    execution: "ExecutionResult"
    events: tuple[TraceEvent, ...] = ()

    def events_in(self, category: str) -> list[TraceEvent]:
        """Recorded optimizer events of one category."""
        return [e for e in self.events if e.category == category]

    def render(self, events: bool = False) -> str:
        """The annotated plan tree plus search/execution headers.

        ``events=True`` appends every recorded trace event; by default
        only a per-category summary plus enforcer/prune/warning events
        (the rare, decision-revealing ones) are printed.
        """
        opt = self.optimization
        exe = self.execution
        lines = [
            f"EXPLAIN ANALYZE {self.query}",
            (
                f"-- optimizer: {opt.optimization_seconds * 1000:.1f} ms, "
                f"{opt.groups} groups, {opt.stats.mexprs_generated} "
                f"expressions, est cost {opt.cost.total:.3f}s --"
            ),
            (
                f"-- execution: wall {exe.wall_seconds * 1000:.1f} ms, "
                f"simulated I/O {exe.simulated_io_seconds:.3f}s, "
                f"{exe.page_reads} page reads, "
                f"hit rate {exe.buffer_hit_rate:.0%} --"
            ),
        ]
        lines.extend(self._tree_lines(self.root, 0))
        if self.events:
            summary = ", ".join(
                f"{category} {count}"
                for category, count in sorted(_counts(self.events).items())
            )
            lines.append(f"-- trace: {len(self.events)} events ({summary}) --")
            shown = (
                self.events
                if events
                else [
                    e
                    for e in self.events
                    if e.category in ("enforcer", "prune", "warning")
                ]
            )
            lines.extend(f"   {event.format()}" for event in shown)
        return "\n".join(lines)

    def _tree_lines(self, node: NodeReport, indent: int) -> list[str]:
        lines = [f"{' ' * indent}{node.description}   {node.line()}"]
        for child in node.children:
            lines.extend(self._tree_lines(child, indent + 2))
        return lines

    def to_json(self, indent: int | None = None) -> str:
        """The whole report as a JSON document."""
        opt = self.optimization
        exe = self.execution
        payload = {
            "query": self.query,
            "optimizer": {
                "seconds": opt.optimization_seconds,
                "estimated_cost_seconds": opt.cost.total,
                "groups": opt.groups,
                "expressions": opt.stats.mexprs_generated,
                "optimization_tasks": opt.stats.optimization_tasks,
                "distinct_goals": opt.stats.distinct_goals,
                "candidates_costed": opt.stats.candidates_costed,
                "floor_candidates": opt.stats.floor_candidates,
                "enforcer_applications": opt.stats.enforcer_applications,
            },
            "execution": {
                "wall_seconds": exe.wall_seconds,
                "simulated_io_seconds": exe.simulated_io_seconds,
                "page_reads": exe.page_reads,
                "buffer_hit_rate": exe.buffer_hit_rate,
                "rows": len(exe.rows),
            },
            "plan": self.root.to_dict(),
            "events": [
                {
                    "seq": e.seq,
                    "category": e.category,
                    "name": e.name,
                    "detail": dict(e.detail),
                }
                for e in self.events
            ],
        }
        if opt.stats.exploration_truncated:
            payload["optimizer"]["exploration_truncated"] = True
        return json.dumps(payload, indent=indent, default=str)


def _counts(events: tuple[TraceEvent, ...]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event.category] = counts.get(event.category, 0) + 1
    return counts


def build_report(
    query: str,
    optimization: "OptimizationResult",
    execution: "ExecutionResult",
    collector: RunStatsCollector,
    events: tuple[TraceEvent, ...] = (),
) -> ExplainReport:
    """Pair every plan node with its collected runtime stats."""

    def node_report(node: "PhysicalNode") -> NodeReport:
        stats = collector.get(node) or OperatorRunStats(
            algorithm=node.algorithm,
            description=node.describe(),
            est_rows=node.rows,
            est_cost_total=node.total_cost.total,
            est_source=node.row_source,
        )
        return NodeReport(
            algorithm=stats.algorithm,
            description=stats.description,
            est_rows=stats.est_rows,
            est_cost_total=stats.est_cost_total,
            actual_rows=stats.rows_out,
            next_seconds=stats.next_seconds,
            buffer_hits=stats.io.hits,
            buffer_misses=stats.io.misses,
            spill_reads=stats.io.spill_reads,
            spill_writes=stats.io.spill_writes,
            est_source=stats.est_source,
            children=tuple(node_report(child) for child in node.children),
        )

    return ExplainReport(
        query=query,
        root=node_report(optimization.plan),
        optimization=optimization,
        execution=execution,
        events=events,
    )


__all__ = ["ExplainReport", "NodeReport", "build_report"]
