"""Plan executor: dispatches physical plan nodes onto the iterators."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.engine import iterators
from repro.engine.tuples import Row
from repro.errors import ExecutionError
from repro.governor import spill
from repro.governor.context import QueryContext, governed
from repro.obs.runtime import RunStatsCollector
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.plans import (
    AlgProjectNode,
    AlgUnnestNode,
    AssemblyNode,
    FileScanNode,
    FilterNode,
    HashAntiJoinNode,
    HashGroupByNode,
    HashJoinNode,
    HashSetOpNode,
    IndexScanNode,
    MergeJoinNode,
    NestedLoopsNode,
    PhysicalNode,
    PointerJoinNode,
    SortNode,
    WarmStartAssemblyNode,
)
from repro.storage.mvcc import SnapshotView
from repro.storage.store import ObjectStore


@dataclass
class ExecutionResult:
    """Rows plus the simulated and wall-clock costs of producing them.

    ``operator_stats`` is the per-operator runtime collector — populated
    only on instrumented runs (``execute(..., collect_stats=True)``),
    None otherwise.
    """

    rows: list[Row]
    simulated_io_seconds: float
    page_reads: int
    buffer_hit_rate: float
    wall_seconds: float
    operator_stats: "RunStatsCollector | None" = None
    spill_page_writes: int = 0
    spill_page_reads: int = 0

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class PlanRun:
    """Everything one plan execution needs, bundled per run.

    The executor used to stash the governor context, tie-break variables,
    and tracer on ``self`` for the duration of a run — which made two
    concurrent sessions executing on the same database trample each
    other's state.  All per-run state now travels in this object; the
    executor itself keeps no per-query state (the runtime indexes belong
    to the store), fault injection is installed per thread, and I/O
    accounting is delta-based
    — so sharing one executor across server sessions is safe.  The one
    caveat is precision, not safety: per-query I/O *metrics* are deltas
    of shared clocks and include any traffic from queries that overlap
    the run (and a concurrent ``cold`` run empties the shared pool).

    ``view`` is the read surface for the run: the raw store for
    latest-state reads on a never-written database, or a
    :class:`~repro.storage.mvcc.SnapshotView` pinning the run's MVCC
    snapshot (optionally overlaying an in-flight transaction's writes).
    """

    view: "ObjectStore | SnapshotView"
    tie_vars: tuple[str, ...] = ()
    ctx: QueryContext | None = None
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    #: Optional :class:`repro.feedback.monitor.CardinalityMonitor`:
    #: every operator's stream is threaded through it, counting rows per
    #: subplan fingerprint (feedback ingestion) and raising the
    #: adaptive-replan signal on a blown estimate.
    monitor: object | None = None
    #: The statement's constants: a plan-cache template holds slots, and
    #: each operator resolves them from here when it lowers its predicate.
    consts: tuple = ()
    #: Every stream `Executor.rows` opened, leaves first; `execute` closes
    #: them before it reads the counters.  A traceback keeps generators
    #: suspended below a raising operator alive, ``finally`` blocks unrun.
    opened: list = field(default_factory=list)


class Executor:
    """Executes optimizer plans against one object store.

    Runtime indexes belong to the store (``store.indexes``): one per
    catalog index, built once — by ``create_index`` or on first use —
    and from then on maintained by every commit, so an index scan
    probes the same long-lived structure whatever snapshot its run is
    pinned at and the probe resolves what that snapshot may see.  Index
    construction is maintenance work and is not charged to the query's
    I/O clock.
    """

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        # Event sink for spill spans and teardown warnings; assign an
        # enabled Tracer (or pass one to `execute`) to observe them.
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------

    def execute(
        self,
        plan: PhysicalNode,
        cold: bool = True,
        collect_stats: bool = False,
        tracer: Tracer | None = None,
        ctx: QueryContext | None = None,
        view: "ObjectStore | SnapshotView | None" = None,
        monitor=None,
        consts: tuple = (),
    ) -> ExecutionResult:
        """Run a plan to completion with fresh I/O accounting.

        ``collect_stats=True`` additionally instruments every operator
        (rows, ``next()`` time, per-operator buffer traffic) and attaches
        the collector as ``ExecutionResult.operator_stats`` — the raw
        material of EXPLAIN ANALYZE.  ``tracer`` (default: the executor's
        own, normally disabled) receives spill span events.

        ``ctx`` (a :class:`repro.governor.QueryContext`) arms the
        governor: every pipeline polls the deadline/cancel token at
        batch granularity, blocking operators honour ``memory_bytes`` by
        spilling, and the context's fault injector (if any) is installed
        on the buffer pool for the duration of the run.

        ``view`` pins the run's MVCC read snapshot (see
        :meth:`ObjectStore.view`); omitted, the run reads the latest
        committed state.  ``consts`` binds the slots of a plan-cache
        template (``QueryResult.consts``).
        """
        if view is None:
            view = self.store.view()
        # Build any needed indexes *before* the accounting baseline.
        for node in plan.walk():
            if isinstance(node, IndexScanNode):
                self.store.indexes.get(node.index)
        buffer = self.store.buffer
        if cold:
            # Cold runs start from an empty pool.  The flush is shared
            # state: under concurrent sessions it also chills any
            # overlapping query — inherent to "cold" semantics.
            buffer.flush()
        # Accounting is delta-based against the shared clocks: snapshot
        # here, subtract at the end.  One run therefore never zeroes
        # another's counters mid-flight; with truly concurrent queries
        # the deltas still include overlapping traffic, so per-query
        # metrics are exact only when the run has the store to itself.
        disk_before = self.store.disk.stats.snapshot()
        buffer_before = buffer.stats_snapshot()
        collector = RunStatsCollector() if collect_stats else None
        run = PlanRun(
            view=view,
            tie_vars=iteration_vars(plan),
            ctx=ctx,
            tracer=tracer if tracer is not None else self.tracer,
            monitor=monitor,
            consts=consts,
        )
        # The injector installation is per *thread*, so a governed session's
        # faults never fire inside another session's concurrent query.
        previous_faults = buffer.faults
        if ctx is not None:
            ctx.start()
            if ctx.faults is not None:
                buffer.faults = ctx.faults
        started = time.perf_counter()
        try:
            rows = list(self.rows(plan, run, collector))
        finally:
            for stream in reversed(run.opened):  # root first
                close = getattr(stream, "close", None)  # `filter` has none
                if close is not None:
                    close()
            buffer.faults = previous_faults
            # The instrumented iterators pop their own scopes in their
            # finally blocks; this is the last-resort unwind so a query
            # abandoned mid-raise can never poison the next query's
            # per-operator I/O attribution on this thread.
            leaked = buffer.clear_io_scopes()
            if leaked and run.tracer.enabled:
                run.tracer.warning(
                    "io-scope-leak",
                    f"cleared {leaked} stale I/O scopes after query teardown",
                    count=leaked,
                )
        wall = time.perf_counter() - started
        disk_after = self.store.disk.stats.snapshot()
        buffer_after = buffer.stats_snapshot()
        hits = max(0, buffer_after.hits - buffer_before.hits)
        misses = max(0, buffer_after.misses - buffer_before.misses)
        requests = hits + misses
        return ExecutionResult(
            rows=rows,
            simulated_io_seconds=max(
                0.0, disk_after.elapsed_ms - disk_before.elapsed_ms
            )
            / 1000.0,
            page_reads=max(0, disk_after.page_reads - disk_before.page_reads),
            buffer_hit_rate=hits / requests if requests else 0.0,
            wall_seconds=wall,
            operator_stats=collector,
            spill_page_writes=max(
                0, buffer_after.spill_writes - buffer_before.spill_writes
            ),
            spill_page_reads=max(
                0, buffer_after.spill_reads - buffer_before.spill_reads
            ),
        )

    def rows(self, plan: PhysicalNode, run: PlanRun, collector=None) -> Iterator[Row]:
        """The plan's output stream (no accounting reset).

        With a :class:`repro.obs.runtime.RunStatsCollector`, every
        operator's stream is wrapped in an instrumented iterator that
        counts rows, times ``next()``, and attributes buffer traffic to
        the operator via the pool's I/O scopes.  Without one (the
        default), the plain generators run unwrapped — instrumentation
        is strictly pay-for-use.
        """
        source = self._dispatch(plan, run, collector)
        if run.ctx is not None:
            source = governed(source, run.ctx)
        if run.monitor is not None:
            source = run.monitor.wrap(plan, source)
        if collector is not None:
            source = iterators.instrumented(
                source, collector.stats_for(plan), self.store.buffer
            )
        run.opened.append(source)
        return source

    def _dispatch(self, plan: PhysicalNode, run: PlanRun, collector) -> Iterator[Row]:
        view = run.view
        if isinstance(plan, FileScanNode):
            return iterators.file_scan(view, plan.collection, plan.var)
        if isinstance(plan, IndexScanNode):
            return iterators.index_scan(
                view,
                self.store.indexes.get(plan.index),
                plan.var,
                plan.comparison,
                plan.residual,
                run.consts,
            )
        if isinstance(plan, FilterNode):
            return iterators.filter_rows(
                self.rows(plan.children[0], run, collector),
                plan.predicate,
                run.consts,
            )
        if isinstance(plan, AssemblyNode):
            return iterators.assembly(
                view,
                self.rows(plan.children[0], run, collector),
                plan.source,
                plan.out,
                plan.window,
            )
        if isinstance(plan, PointerJoinNode):
            return iterators.pointer_join(
                view,
                self.rows(plan.children[0], run, collector),
                plan.source,
                plan.out,
            )
        if isinstance(plan, WarmStartAssemblyNode):
            return iterators.warm_start_assembly(
                view,
                self.rows(plan.children[0], run, collector),
                plan.source,
                plan.out,
                plan.target_collection,
            )
        if isinstance(plan, AlgUnnestNode):
            return iterators.unnest(
                self.rows(plan.children[0], run, collector),
                plan.var,
                plan.attr,
                plan.out,
            )
        if isinstance(plan, HashJoinNode):
            ctx = run.ctx
            if ctx is not None and ctx.memory_bytes is not None:
                return spill.spill_hash_join(
                    self.store,
                    self.rows(plan.children[0], run, collector),
                    self.rows(plan.children[1], run, collector),
                    plan.predicate,
                    run.consts,
                    budget_bytes=ctx.memory_bytes,
                    tracer=run.tracer,
                )
            return iterators.hash_join(
                self.rows(plan.children[0], run, collector),
                self.rows(plan.children[1], run, collector),
                plan.predicate,
                run.consts,
            )
        if isinstance(plan, HashAntiJoinNode):
            ctx = run.ctx
            if ctx is not None and ctx.memory_bytes is not None:
                return spill.spill_anti_join(
                    self.store,
                    self.rows(plan.children[0], run, collector),
                    self.rows(plan.children[1], run, collector),
                    plan.predicate,
                    run.consts,
                    budget_bytes=ctx.memory_bytes,
                    tracer=run.tracer,
                )
            return iterators.anti_join(
                self.rows(plan.children[0], run, collector),
                self.rows(plan.children[1], run, collector),
                plan.predicate,
                run.consts,
            )
        if isinstance(plan, MergeJoinNode):
            return iterators.merge_join(
                self.rows(plan.children[0], run, collector),
                self.rows(plan.children[1], run, collector),
                plan.predicate,
                plan.left_key,
                plan.right_key,
                run.consts,
            )
        if isinstance(plan, SortNode):
            order = plan.delivered.order
            if order is None:
                raise ExecutionError("sort node without an order key")
            ctx = run.ctx
            if ctx is not None and ctx.memory_bytes is not None:
                return spill.spill_sort_rows(
                    self.store,
                    self.rows(plan.children[0], run, collector),
                    order.var,
                    order.attr,
                    order.ascending,
                    run.tie_vars,
                    budget_bytes=ctx.memory_bytes,
                    tracer=run.tracer,
                )
            return iterators.sort_rows(
                self.rows(plan.children[0], run, collector),
                order.var,
                order.attr,
                order.ascending,
                run.tie_vars,
            )
        if isinstance(plan, NestedLoopsNode):
            return iterators.nested_loops_join(
                self.rows(plan.children[0], run, collector),
                self.rows(plan.children[1], run, collector),
                plan.predicate,
                run.consts,
            )
        if isinstance(plan, AlgProjectNode):
            return iterators.project(
                self.rows(plan.children[0], run, collector),
                plan.items,
                plan.distinct,
            )
        if isinstance(plan, HashGroupByNode):
            return iterators.group_by(
                self.rows(plan.children[0], run, collector),
                plan.keys,
                plan.aggregates,
                plan.order_output,
                plan.having,
                run.consts,
            )
        if isinstance(plan, HashSetOpNode):
            return iterators.set_op(
                plan.kind,
                self.rows(plan.children[0], run, collector),
                self.rows(plan.children[1], run, collector),
            )
        raise ExecutionError(f"no executor for plan node {plan.algorithm}")


def iteration_vars(plan: PhysicalNode) -> tuple[str, ...]:
    """The plan's scan and unnest bindings, sorted by name.

    Every plan shape for the same logical query binds exactly these
    variables (materialized path variables, by contrast, may be elided
    by index collapse), and their identity vector is unique per output
    row — which makes them the canonical sort tie-break.
    """
    names: set[str] = set()
    for node in plan.walk():
        if isinstance(node, (FileScanNode, IndexScanNode)):
            names.add(node.var)
        elif isinstance(node, AlgUnnestNode):
            names.add(node.out)
    return tuple(sorted(names))


__all__ = ["ExecutionResult", "Executor", "PlanRun", "iteration_vars"]
