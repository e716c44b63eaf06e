"""The public API: a `Database` facade over the whole stack.

Typical use::

    from repro import Database

    db = Database.sample(scale=0.05)            # Table 1 world, scaled
    db.create_index("ix", "Cities", ("mayor", "name"))
    result = db.query('SELECT * FROM City c IN Cities '
                      'WHERE c.mayor.name == "Joe"')
    print(result.explain())
    for row in result.rows:
        ...
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace
from typing import Any, Mapping, Union

from repro.algebra.predicates import showing
from repro.algebra import dml as dml_algebra
from repro.cache.fingerprint import (
    ParameterizedQuery,
    admits,
    bind_template,
    digest_entry,
    parameterize,
    rebind_plan,
)
from repro.cache.plan_cache import CacheEntry, CacheInfo, PlanCache
from repro.cache.prepared import PreparedQuery
from repro.catalog.catalog import Catalog, IndexDef
from repro.catalog.sample_db import SampleSizes, build_catalog
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.tuples import Row
from repro.feedback import (
    AdaptiveReplanSignal,
    CardinalityMonitor,
    FeedbackStore,
)
from repro.errors import (
    CatalogError,
    IndexCorruptionError,
    ParameterBindingError,
    StorageError,
    TransactionError,
)
from repro.algebra.operators import LogicalOp
from repro.engine import dml as dml_engine
from repro.engine.dml import DmlResult
from repro.governor.admission import AdmissionController
from repro.governor.context import QueryContext
from repro.obs.explain import ExplainReport, build_report
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.lang.ast import DeleteAst, InsertAst, QueryAst, SetQueryAst, UpdateAst
from repro.lang.lexer import strip_literals
from repro.lang.parser import parse_query, parse_statement
from repro.storage.mvcc import CommitRecord, Transaction
from repro.optimizer.config import COLLAPSE_TO_INDEX_SCAN, OptimizerConfig
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.optimizer.plans import PhysicalNode
from repro.simplify.simplifier import SimplifiedQuery, simplify_full
from repro.storage.datagen import generate_store, scaled_sizes
from repro.storage.index import IndexRuntime
from repro.storage.store import ObjectStore


@dataclass
class QueryResult:
    """Everything a query run produced."""

    rows: list[Row]
    plan: PhysicalNode
    optimization: OptimizationResult
    execution: ExecutionResult | None
    # How the plan cache treated this query (None on the uncached
    # pipeline, e.g. ``Database.optimize`` or logical-tree input).
    cache: CacheInfo | None = None
    # The governor context the query ran under (None when ungoverned);
    # carries the degradation markers (`governor.degraded`) and, under
    # fault injection, the injector's stats.
    governor: QueryContext | None = None
    # The statement's constants, in slot order.  A cached ``plan`` is a
    # template shared by every statement of its shape: its constants are
    # slots, and these are the values this statement ran with (pass them
    # to ``Database.execute_plan`` to run the plan again).
    consts: tuple = ()

    def explain(self, costs: bool = False) -> str:
        """The plan as this statement ran it: slots show ``consts``."""
        with showing(self.consts):
            return self.optimization.explain(costs=costs)

    def __len__(self) -> int:
        return len(self.rows)


def _visible(rows: list[Row], result_vars: tuple[str, ...]) -> list[Row]:
    """SELECT *: the user sees the range variables ``result_vars``, not the
    helper variables a particular plan happened to materialise.  A row that
    binds nothing else is returned as it is — every operator builds a fresh
    dict per output row, so no one else holds it."""
    if not result_vars:
        return rows
    keep = frozenset(result_vars)
    return [
        row if row.keys() <= keep
        else {name: value for name, value in row.items() if name in keep}
        for row in rows
    ]


class Database:
    """A catalog, an optional populated store, and an optimizer."""

    def __init__(
        self,
        catalog: Catalog,
        store: ObjectStore | None = None,
        config: OptimizerConfig | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.catalog = catalog
        self.store = store
        self.config = config or OptimizerConfig()
        self.executor = Executor(store) if store is not None else None
        # Transparent plan caching for `query` and prepared queries;
        # `cache_plans = False` (or `query(..., use_cache=False)`) opts out.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.cache_plans = True
        # Observed-cardinality feedback store (src/repro/feedback/).
        # Always present; consulted and fed only when the effective
        # config's ``feedback`` knob is on.
        self.feedback = FeedbackStore()
        # Optional admission controller: when set, `query` (and prepared
        # executions) wait for a slot and raise AdmissionRejected after
        # the controller's bounded wait.  None = unlimited concurrency.
        self.admission: AdmissionController | None = None
        # Committed DML feeds the catalog's per-collection data versions
        # (and, past the drift threshold, statistics refresh → plan-cache
        # invalidation), extending the catalog-version scheme to writes.
        if store is not None:
            store.add_commit_listener(self._on_commit)
        # Durability is opt-in (enable_durability / open); None keeps
        # every code path byte-identical to the in-memory engine.
        self.durability = None
        # How this database's base state can be rebuilt deterministically
        # (set by `sample`, the fuzz world generator, and `open`); the
        # durability manifest records it so recovery can reconstruct the
        # sealed store the log was written against.
        self.bootstrap: dict[str, Any] | None = None
        # Observability sink for recoverable warnings (and, when callers
        # pass none of their own, for traced optimizations).  Disabled by
        # default; assign an enabled Tracer to capture events.  The
        # assignment also points the catalog's tracer here, so catalog
        # lookup warnings land in the same stream.
        self.tracer = NULL_TRACER

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer | None) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.catalog.tracer = self._tracer

    @classmethod
    def sample(
        cls,
        scale: float = 1.0,
        seed: int = 20130526,
        config: OptimizerConfig | None = None,
        populate: bool = True,
    ) -> "Database":
        """The paper's Table 1 database, optionally scaled down."""
        sizes = SampleSizes() if scale >= 1.0 else scaled_sizes(scale)
        catalog = build_catalog(sizes)
        store = generate_store(catalog, sizes, seed) if populate else None
        db = cls(catalog, store, config)
        if populate:
            db.bootstrap = {"kind": "sample", "scale": scale, "seed": seed}
        return db

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def enable_durability(
        self,
        directory: str,
        checkpoint_every: int | None = None,
        crash_plan=None,
    ):
        """Make this database durable in a fresh directory.

        Writes a manifest (the bootstrap recipe plus index DDL), takes
        an initial checkpoint of the current state, and from then on
        appends + fsyncs one write-ahead-log record per committed
        transaction *before* the commit is acknowledged.  Reopen the
        directory later — including after a crash — with
        :meth:`Database.open`.

        ``checkpoint_every=N`` auto-checkpoints after every N committed
        transactions, auto-commit or explicit (:meth:`checkpoint` and
        :meth:`close` always checkpoint).  ``crash_plan`` threads a
        seeded :class:`~repro.governor.faults.CrashPlan` through the log
        and checkpoint writers (testing only).

        Requires a database built by a reproducible bootstrap
        (:meth:`sample` or the fuzz world generator) so recovery can
        rebuild the sealed base store.
        """
        from repro.durability import DurabilityManager

        manager = DurabilityManager(
            directory,
            crash_plan=crash_plan,
            checkpoint_every=checkpoint_every,
        )
        manager.initialize(self)
        return manager

    @classmethod
    def open(
        cls,
        directory: str,
        config: OptimizerConfig | None = None,
        checkpoint_every: int | None = None,
        crash_plan=None,
    ) -> "Database":
        """Open (and recover) a durable database directory.

        Rebuilds the base database from the manifest's bootstrap recipe,
        reconciles index DDL, loads the newest valid checkpoint, replays
        complete log records in CSN order through the MVCC apply path
        (ignoring a torn tail record), and resumes with the correct next
        CSN — so every acknowledged commit survives and new commits
        continue the chain.  Recovery details land in
        ``db.durability.last_recovery``.
        """
        from repro.durability import DurabilityManager

        manager = DurabilityManager(
            directory,
            crash_plan=crash_plan,
            checkpoint_every=checkpoint_every,
        )
        return manager.open_database(cls, config)

    def checkpoint(self) -> int:
        """Write a checkpoint now; returns the checkpoint CSN."""
        if self.durability is None:
            raise StorageError(
                "durability is not enabled; call enable_durability first"
            )
        return self.durability.checkpoint()

    def close(self) -> None:
        """Checkpoint and detach durability (no-op when not durable)."""
        if self.durability is not None:
            self.durability.close()

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_index(
        self,
        name: str,
        collection: str,
        path: tuple[str, ...],
        distinct_keys: int | None = None,
    ) -> IndexDef:
        """Create an index; distinct keys measured from data when loaded.

        The build that measures the keys *is* the runtime index: it is
        registered with the store (under the commit lock, so no commit
        falls between the build and the registration) and maintained by
        every commit from then on.  With ``distinct_keys`` given nothing
        is built until the first index scan.
        """
        if distinct_keys is None:
            if self.store is None:
                raise CatalogError(
                    "distinct_keys required when no store is populated"
                )
            with self.store.mvcc.commit_lock:
                index = IndexRuntime.build(
                    self.store.view(),
                    IndexDef(name, collection, path, distinct_keys=1),
                )
                definition = self.catalog.add_index(
                    IndexDef(name, collection, path, max(1, index.distinct_keys()))
                )
                self.store.indexes.adopt(definition, index)
        else:
            definition = self.catalog.add_index(
                IndexDef(name, collection, path, distinct_keys)
            )
        if self.durability is not None:
            self.durability.write_manifest()
        return definition

    def drop_index(self, name: str) -> None:
        """Remove an index from the catalog and the store's registry."""
        self.catalog.drop_index(name)
        if self.store is not None:
            self.store.indexes.drop(name)
        if self.durability is not None:
            self.durability.write_manifest()

    def analyze(
        self,
        collection: str,
        attributes: tuple[str, ...] | None = None,
        bins: int | None = None,
    ) -> list[str]:
        """Build refined per-attribute statistics (histograms / MCV
        sketches) by scanning the stored data — the paper's promised
        replacement for the naive 10% selectivity default.

        Returns the attribute names analyzed.
        """
        from repro.catalog.histograms import analyze_collection

        if self.store is None:
            raise CatalogError("analyze requires a populated store")
        return analyze_collection(
            self.catalog, self.store, collection, attributes, bins
        )

    def collect_type_statistics(self) -> dict[str, tuple[int, int]]:
        """Maintain population statistics for types without extents.

        The paper's Query 1 discussion: "this example indicates that
        additional cardinality information should be maintained whether or
        not the objects belong to a set or extent, and we may revisit this
        issue in a later version of the system."  This is that later
        version: record (population, pages) per extent-less type from the
        store's segments, turning pessimistic assembly estimates (one page
        fault per reference) into buffer-bounded ones.
        """
        if self.store is None:
            raise CatalogError("type statistics require a populated store")
        collected: dict[str, tuple[int, int]] = {}
        for type_def in self.catalog.schema.types.values():
            extent = self.catalog.extent_of(type_def.name)
            if extent is not None and self.catalog.has_stats(extent.name):
                continue
            try:
                segment = self.store.segment(type_def.name)
            except StorageError as exc:
                # A type with no stored instances has no segment — that is
                # expected and recoverable, but no longer invisible: it
                # surfaces as a warning event in `.trace` output.
                if self.tracer.enabled:
                    self.tracer.warning(
                        "type-statistics",
                        f"skipping {type_def.name}: {exc}",
                        type=type_def.name,
                    )
                continue
            population = len(segment.oids)
            pages = max(1, segment.page_count)
            self.catalog.set_type_population(type_def.name, population, pages)
            collected[type_def.name] = (population, pages)
        return collected

    # ------------------------------------------------------------------
    # Transactions and DML
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open a transaction pinned at the current committed snapshot.

        Pass it to :meth:`query` (reads see the snapshot plus the
        transaction's own writes; DML buffers into it), then ``commit()``
        or ``rollback()``.  Also usable as a context manager: the block
        commits on success, rolls back on exception.  Commit raises
        :class:`~repro.errors.WriteConflict` when another transaction
        committed a write to the same object first.
        """
        if self.store is None:
            raise TransactionError("transactions require a populated store")
        return self.store.begin()

    def _on_commit(self, record: CommitRecord) -> None:
        """Commit listener: feed DML deltas into the catalog's versions."""
        for name, delta in record.deltas.items():
            self.catalog.note_data_changed(name, delta)

    def _run_dml(
        self,
        plan,
        consts: tuple,
        config: OptimizerConfig | None,
        governor: QueryContext | None,
        transaction: Transaction | None,
        use_cache: bool,
    ) -> DmlResult:
        """Transaction scoping and commit for one write plan (``algebra.dml``),
        bound to ``consts``."""
        if self.store is None or self.executor is None:
            raise TransactionError("DML requires a populated store")
        config, slot = self._admit(config, governor)
        with slot:
            txn = transaction if transaction is not None else self.store.begin()
            # Statement atomicity inside an explicit transaction: capture
            # the buffered-write state so a mid-statement failure (row 3
            # of a 5-row UPDATE, say) restores it — the statement is
            # all-or-nothing, the transaction survives.  Implicit
            # transactions just roll back wholesale.
            savepoint = txn.savepoint() if transaction is not None else None
            try:
                if plan.target is None:
                    affected = dml_engine.apply_insert(txn, plan, consts)
                else:
                    view = self.store.view(txn=txn)
                    # The target query enters at the plan stage: it is
                    # already admitted, and reads the transaction's view.
                    # Its consts follow the plan's own SET values.
                    target_consts = consts[len(plan.values):]
                    optimization, result_vars, _ = self._plan(
                        plan.target, target_consts, config, use_cache, governor
                    )
                    _, targets = self._execute(
                        optimization, result_vars, config, governor, view,
                        target_consts,
                    )
                    if plan.operation == "update":
                        affected = dml_engine.apply_update(
                            view, txn, plan, targets.rows, consts
                        )
                    else:
                        affected = dml_engine.apply_delete(txn, plan, targets.rows)
            except Exception:
                if transaction is None:
                    txn.rollback()
                else:
                    # No-op if the failure already doomed the txn (eager
                    # write-write conflict): doomed stays doomed.
                    txn.rollback_to(savepoint)
                raise
            csn = txn.commit() if transaction is None else None
            return DmlResult(plan.operation, affected, csn)

    # ------------------------------------------------------------------
    # Query pipeline
    # ------------------------------------------------------------------

    def parse(self, text: str) -> Union[QueryAst, SetQueryAst]:
        return parse_query(text)

    def simplify(self, query: Union[str, QueryAst, SetQueryAst]) -> SimplifiedQuery:
        """Parse (if needed) and reduce a query to the optimizer algebra."""
        if isinstance(query, str):
            query = self.parse(query)
        return simplify_full(query, self.catalog)

    def optimize(
        self,
        query: Union[str, QueryAst, SetQueryAst, LogicalOp],
        config: OptimizerConfig | None = None,
        tracer: Tracer | None = None,
        governor: QueryContext | None = None,
    ) -> OptimizationResult:
        """Optimize a query (text, AST, or logical tree) into a plan.

        ``tracer`` (default: the database's own, normally disabled)
        records rule firings, prunes, and enforcer applications for the
        run; see ``OptimizationResult.trace_events``.  ``governor``
        bounds the search (anytime: the deadline degrades, it does not
        fail — see :class:`~repro.governor.QueryContext`).
        """
        if isinstance(query, LogicalOp):
            simplified = SimplifiedQuery(query, ())
        else:
            simplified = self.simplify(query)
        config = config or self.config
        if governor is not None and governor.memory_bytes is not None:
            config = config.with_memory_budget(governor.memory_bytes)
        return self._search(
            simplified, config, governor,
            tracer if tracer is not None else self.tracer,
        )

    def _optimizer(self, config: OptimizerConfig | None) -> Optimizer:
        """An Optimizer wired to this database's feedback store."""
        return Optimizer(self.catalog, config or self.config, feedback=self.feedback)

    def _search(
        self,
        simplified: SimplifiedQuery,
        config: OptimizerConfig,
        governor: QueryContext | None,
        tracer: Tracer | None = None,
    ) -> OptimizationResult:
        """First-time planning of a simplified query (rewrite + search)."""
        return self._optimizer(config).optimize(
            simplified.tree,
            result_vars=simplified.result_vars,
            order=simplified.order,
            tracer=tracer,
            query_ctx=governor,
        )

    def explain(
        self,
        query: Union[str, QueryAst, SetQueryAst],
        config: OptimizerConfig | None = None,
        costs: bool = False,
        analyze: bool = False,
    ) -> str:
        """The chosen plan, rendered (traced, so the rewrites that fired show).

        ``analyze=False`` (the default) optimizes but does not execute.
        ``analyze=True`` additionally *runs* the plan with per-operator
        instrumentation and renders estimated vs. actual cardinality,
        ``next()`` time, and buffer hits/misses for every operator, plus
        the optimizer's enforcer/prune/warning events (see
        :meth:`explain_analyze` for the structured artifact).
        """
        if analyze:
            return self.explain_analyze(query, config).render()
        return self.optimize(query, config, tracer=Tracer()).explain(costs=costs)

    def explain_analyze(
        self,
        query: Union[str, QueryAst, SetQueryAst],
        config: OptimizerConfig | None = None,
        cold: bool = True,
        tracer: Tracer | None = None,
        governor: QueryContext | None = None,
    ) -> ExplainReport:
        """EXPLAIN ANALYZE: optimize with tracing, execute instrumented.

        Returns the structured :class:`~repro.obs.explain.ExplainReport`
        (render with ``.render()``, export with ``.to_json()``).  Requires
        a populated store.  A fresh enabled tracer is used unless one is
        passed, so the report always carries the search events — the
        Query 3 assembly-enforcer firing included.  The statement is
        admitted, executed and (if need be) replanned exactly as `query`
        does it; only the planning skips the cache.
        """
        if self.executor is None:
            raise CatalogError("EXPLAIN ANALYZE requires a populated store")
        tracer = tracer if tracer is not None else Tracer()
        first_event = len(tracer.events)  # a caller's tracer may hold more
        if governor is not None and governor.tracer is NULL_TRACER:
            governor.tracer = tracer
        text = query if isinstance(query, str) else str(query)
        config, slot = self._admit(config, governor)
        with slot:
            simplified = self.simplify(query)
            optimization = self._search(simplified, config, governor, tracer)
            optimization, execution = self._execute(
                optimization, simplified.result_vars, config, governor, None, (),
                cold=cold, instrument=tracer,
            )
        return build_report(
            text,
            optimization,
            execution,
            execution.operator_stats,
            events=tuple(tracer.events[first_event:]),
        )

    def execute_plan(
        self,
        plan: PhysicalNode,
        cold: bool = True,
        result_vars: tuple[str, ...] = (),
        ctx: QueryContext | None = None,
        view=None,
        monitor: CardinalityMonitor | None = None,
        consts: tuple = (),
    ) -> ExecutionResult:
        """Run a physical plan with fresh I/O accounting.

        ``result_vars`` optionally prunes rows to the user-visible
        variables (as `query` does for SELECT *).  ``ctx`` makes the run
        governed: deadline/cancel polls on every pipeline, memory-budget
        spill in sort and hash joins, fault injection on disk reads.
        ``view`` pins the run's MVCC snapshot (default: latest committed
        state, pinned at start).  ``monitor`` threads per-operator row
        streams through a cardinality monitor (feedback ingestion and
        the adaptive-replan trigger).  ``consts`` binds the slots of a
        plan-cache template (``QueryResult.consts``).
        """
        if self.executor is None:
            raise CatalogError("this database has no populated store")
        result = self.executor.execute(
            plan, cold=cold, ctx=ctx, view=view, monitor=monitor, consts=consts
        )
        result.rows = _visible(result.rows, result_vars)
        return result

    def query(
        self,
        text: str,
        config: OptimizerConfig | None = None,
        execute: bool = True,
        use_cache: bool | None = None,
        options: Mapping[str, Any] | None = None,
        governor: QueryContext | None = None,
        transaction: Transaction | None = None,
    ) -> Union[QueryResult, DmlResult]:
        """Parse, simplify, optimize, and (by default) execute a statement.

        Accepts queries *and* DML.  An INSERT/UPDATE/DELETE returns a
        :class:`~repro.engine.dml.DmlResult`; with no ``transaction`` it
        auto-commits (the result carries the commit CSN), with one it
        buffers into that transaction.  UPDATE/DELETE target selection
        runs through this same pipeline (plan cache, indexes, governor
        included).  ``execute=False`` (plan-only inspection) is a
        read-path feature: a DML statement under it raises
        :class:`~repro.errors.TransactionError` rather than silently
        applying and committing the writes.

        ``transaction`` also scopes reads: a SELECT inside a transaction
        sees the transaction's snapshot plus its own uncommitted writes;
        without one, each query pins the latest committed snapshot at
        execution start.  A committed or rolled-back transaction (for
        example one doomed by an eager :class:`~repro.errors.WriteConflict`)
        is rejected with :class:`~repro.errors.TransactionError` —
        begin a new one.

        Every statement, writes included, is auto-parameterized: a text
        that differs from an earlier one only in its literals is neither
        parsed nor optimized again (walkthrough §7).  ``use_cache=False``
        (or ``db.cache_plans = False``) opts out of all of it.

        ``options`` sets per-query resource limits by ``$``-key:
        ``$timeout`` (whole-query deadline, ms — exceeding it raises
        :class:`~repro.errors.QueryTimeout`), ``$memory`` (operator
        memory budget, bytes — sorts and hash joins beyond it spill to
        temp segments), ``$search_timeout`` (optimizer-search budget, ms
        — soft: the search degrades, the query still runs), ``$chaos``
        (fault-injection seed, for testing).  Alternatively pass a fully
        built ``governor`` :class:`~repro.governor.QueryContext`; the
        result's ``.governor`` carries degradation markers either way.
        """
        if transaction is not None and transaction.status != "active":
            raise TransactionError(
                f"transaction is {transaction.status}; begin a new one"
            )
        if options:
            if governor is not None:
                raise ParameterBindingError(
                    "pass either options or a prebuilt governor, not both"
                )
            governor = QueryContext.from_options(options, self.tracer)
        if use_cache is None:
            use_cache = self.cache_plans
        known = None
        if use_cache:
            digest, raws = strip_literals(text)
            known = self.plan_cache.recall(digest, raws, self.catalog)
        if known is not None:
            statement, consts = known
        else:
            # The one place syntax errors, validation and eligibility are
            # decided; a digest is only ever remembered for a statement that
            # got through, and not for a binding that failed a range guard
            # (its literal template must not displace the lifted one).
            parsed = parse_statement(text)
            if isinstance(parsed, (InsertAst, UpdateAst, DeleteAst)):
                # A write's template is its validated plan, the SET / VALUES
                # slots ahead of its parameterized target query's.
                plan = dml_algebra.plan_write(parsed, self.catalog)
                slots = plan.values
                if plan.target is not None:
                    plan = replace(plan, target=parameterize(plan.target, auto=True))
                    slots += plan.target.slots
                statement = ParameterizedQuery(
                    plan, slots, str(parsed), True,
                    catalog_version=self.catalog.version,
                )
            else:
                statement = parameterize(parsed, auto=True)
                if statement.user_param_names:
                    names = ", ".join(f"${n}" for n in statement.user_param_names)
                    raise ParameterBindingError(
                        f"query text contains unbound parameters ({names}); use "
                        "Database.prepare(...) and bind values via execute(...)"
                    )
            consts = statement.consts
            if use_cache and not statement.literal_ranges:
                self.plan_cache.remember(
                    digest, digest_entry(statement, digest, raws)
                )
        if statement.catalog_version is not None:  # a write
            if not execute:
                raise TransactionError(
                    "execute=False is not supported for DML statements: "
                    "applying the writes is the statement; use "
                    "Database.optimize on the target query for plan-only "
                    "inspection"
                )
            return self._run_dml(
                statement.template, consts, config, governor, transaction, use_cache
            )
        view = None
        if transaction is not None:
            if self.store is None:
                raise TransactionError("this database has no populated store")
            view = self.store.view(txn=transaction)
        return self._run_statement(
            statement,
            consts,
            config=config,
            execute=execute,
            use_cache=use_cache,
            governor=governor,
            view=view,
        )

    # ------------------------------------------------------------------
    # Prepared queries and the plan cache
    # ------------------------------------------------------------------

    def prepare(
        self,
        text: str,
        config: OptimizerConfig | None = None,
    ) -> PreparedQuery:
        """Parse and normalize once; execute many times with ``$params``.

        ::

            pq = db.prepare('SELECT * FROM City c IN Cities '
                            'WHERE c.floor == $floor')
            pq.execute(floor=3)
            pq.execute(floor=7)      # plan-cache hit: no optimizer run
        """
        return PreparedQuery(self, text, config=config)

    # ------------------------------------------------------------------
    # The statement lifecycle: admit -> plan -> execute -> replan
    # (docs/how_a_query_becomes_a_plan.md, "Statement lifecycle")
    # ------------------------------------------------------------------

    def _run_statement(
        self,
        parameterized: ParameterizedQuery,
        consts: tuple,
        config: OptimizerConfig | None = None,
        execute: bool = True,
        use_cache: bool = True,
        governor: QueryContext | None = None,
        view=None,
    ) -> QueryResult:
        """One read statement through every stage, in order; shared by
        `query` and PreparedQuery.  The statement is the template plus
        ``consts``, its plain Python values in slot order."""
        config, slot = self._admit(config, governor)
        with slot:
            optimization, result_vars, info = self._plan(
                parameterized, consts, config, use_cache, governor
            )
            execution = None
            if execute and self.executor is not None:
                optimization, execution = self._execute(
                    optimization, result_vars, config, governor, view, consts
                )
        rows = execution.rows if execution is not None else []
        return QueryResult(
            rows, optimization.plan, optimization, execution, info,
            governor=governor, consts=consts,
        )

    def _admit(
        self, config: OptimizerConfig | None, governor: QueryContext | None
    ) -> tuple[OptimizerConfig, Any]:
        """Stage 1 — admit: start the governor's clocks, resolve the
        effective config, and return it with the admission slot (a
        context manager) the rest of the statement runs inside."""
        config = config or self.config
        if governor is not None:
            governor.start()
            if governor.memory_bytes is not None:
                # The cost model plans against the same budget the
                # executor enforces (and budgeted plans get their own
                # cache key, since the config is part of it).
                config = config.with_memory_budget(governor.memory_bytes)
        if self.admission is None:
            return config, contextlib.nullcontext()
        return config, self.admission.admit()

    def _plan(
        self,
        parameterized: ParameterizedQuery,
        consts: tuple,
        config: OptimizerConfig,
        use_cache: bool,
        governor: QueryContext | None,
    ) -> tuple[OptimizationResult, tuple[str, ...], CacheInfo]:
        """Stage 2 — plan: take the cached template as it is (``hit``),
        or plan for the first time (bind -> simplify -> search) and store
        the result (``miss``) unless caching is off for the call, the
        plan is degraded (both ``bypass``) or it (or ``consts``, failing a
        range guard) is ``uncacheable``.  Either way the plan's lifted
        constants are slots: ``consts`` travels beside it to `_execute`."""
        admitted = parameterized.cacheable and (
            not parameterized.guards or admits(parameterized.guards, consts)
        )
        storable = use_cache and admitted
        if storable:
            # The optimizer configuration changes which plans are legal, so
            # every plan-affecting knob is part of the fingerprint —
            # ``cache_key()`` digests their canonical rendering (sorted rule
            # sets), so equal configs always share a key and different
            # rewrite / feedback settings never do.
            key = f"{parameterized.text_key}\x00{config.cache_key()}"
            entry, outcome = self.plan_cache.lookup(
                key, self.catalog,
                feedback_version=self.feedback.version if config.feedback else None,
            )
            if entry is not None:
                rebind_plan(entry.param_count, consts)
                info = CacheInfo(
                    outcome, key, self.catalog.version, entry.optimization_seconds
                )
                return entry.optimization, entry.result_vars, info
        else:
            key = parameterized.text_key
            outcome = "bypass" if admitted else "uncacheable"
        started = time.perf_counter()
        bound = bind_template(parameterized, consts)
        simplified = self.simplify(bound)
        optimization = self._search(simplified, config, governor)
        if storable and governor is not None and governor.degraded:
            # A deadline-truncated search produced a best-effort plan;
            # caching it would serve degraded plans to future un-degraded
            # runs of the same query shape.
            outcome = "bypass"
        elif storable:
            self.plan_cache.store(
                CacheEntry(
                    key=key,
                    optimization=optimization,
                    result_vars=simplified.result_vars,
                    catalog_version=self.catalog.version,
                    optimization_seconds=time.perf_counter() - started,
                    param_count=len(parameterized.slots),
                    # Captured *after* optimizing: the search itself may have
                    # dropped stale observations (bumping the store version),
                    # and the plan reflects the post-drop state.
                    feedback_version=(
                        self.feedback.version if config.feedback else -1
                    ),
                )
            )
        info = CacheInfo(outcome, key, self.catalog.version)
        return optimization, simplified.result_vars, info

    def _execute(
        self,
        optimization: OptimizationResult,
        result_vars: tuple[str, ...],
        config: OptimizerConfig,
        governor: QueryContext | None,
        view,
        consts: tuple,
        cold: bool = True,
        instrument: Tracer | None = None,
    ) -> tuple[OptimizationResult, ExecutionResult]:
        """Stage 3 — execute: pin the snapshot, run the plan with the
        statement's ``consts``, and on a replan reason re-plan and re-run
        on that same snapshot.  Returns the optimization that produced
        the rows.  ``instrument`` (EXPLAIN ANALYZE) collects per-operator
        stats and receives the events."""
        if view is None:
            view = self.store.view()
        # Feedback monitoring is snapshot-scoped: observations from a
        # transaction's private view (its own uncommitted writes) must
        # not leak into costing for everyone else, so runs inside a
        # transaction go unmonitored.
        monitored = config.feedback and getattr(view, "txn", None) is None
        replan_ratio = config.feedback_replan_ratio
        # Each handler below disarms its own trigger, so a reason replans
        # at most once per statement; a re-run that hits the *other*
        # reason goes round the loop once more.
        while True:
            monitor = None
            if monitored:
                # Feedback keys on what the plan computed *this* time.
                with showing(consts):
                    monitor = CardinalityMonitor(optimization.plan, replan_ratio)
            try:
                if instrument is None:
                    execution = self.execute_plan(
                        optimization.plan, result_vars=result_vars,
                        ctx=governor, view=view, monitor=monitor, consts=consts,
                    )
                else:
                    execution = self.executor.execute(
                        optimization.plan, cold=cold, collect_stats=True,
                        tracer=instrument, ctx=governor, view=view,
                        monitor=monitor, consts=consts,
                    )
                    execution.rows = _visible(execution.rows, result_vars)
            except AdaptiveReplanSignal as signal:
                # Mid-query re-optimization: an operator blew past its
                # estimate.  The rows counted so far (flushed as partial
                # observations) are exactly the knowledge the replan
                # needs, so ingest first.  The re-run still feeds its
                # final counts back but is not watched for replanning.
                self.feedback.ingest(monitor, self.catalog)
                self.feedback.stats.replans += 1
                replan_ratio = None
                reason, detail = "cardinality_misestimate", {
                    "operator": signal.description,
                    "estimated": signal.estimated,
                    "observed": signal.observed,
                }
            except IndexCorruptionError as exc:
                # Degradation ladder, step 2 (after the buffer pool's
                # retries): a persistently corrupt index can't be read,
                # but the base collections still can — replan without
                # index access paths.
                if not config.is_enabled(COLLAPSE_TO_INDEX_SCAN):
                    raise
                config = config.without(COLLAPSE_TO_INDEX_SCAN)
                reason, detail = "index_corruption", {"index": exc.index_name}
            else:
                if monitor is not None:
                    self.feedback.ingest(monitor, self.catalog)
                return optimization, execution
            optimization = self._replan(
                reason, detail, optimization, config, governor,
                instrument if instrument is not None else self.tracer, consts,
            )

    def _replan(
        self,
        reason: str,
        detail: dict[str, Any],
        optimization: OptimizationResult,
        config: OptimizerConfig,
        governor: QueryContext | None,
        tracer: Tracer,
        consts: tuple,
    ) -> OptimizationResult:
        """Stage 4 — replan: record why, then re-optimize the same
        logical tree for the same required properties under the same
        governor (its clocks keep ticking), so only the plan changes.
        The tree may be a cached template's: the new plan has the same
        slots, and the search looks feedback up under ``consts``."""
        if governor is not None:
            governor.mark_degraded(reason, **detail)
        elif tracer.enabled:
            tracer.event("degraded", reason, **detail)
        with showing(consts):
            return self._optimizer(config).optimize(
                optimization.logical,
                required=optimization.required,
                tracer=tracer,
                query_ctx=governor,
            )


__all__ = ["Database", "PreparedQuery", "QueryResult"]
