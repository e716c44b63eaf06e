"""Integration tests for the resource governor (the issue's acceptance bar).

Covers: spill byte-identity under a 1/10th memory budget with visible
spill I/O in EXPLAIN ANALYZE, anytime optimization under a ~1ms search
deadline on the paper's Query 3, typed timeouts/cancellation/admission,
the degrade-to-scan replan on index corruption, the stale-I/O-scope
regression, and a 200-round chaos sweep at 5% transient fault rate.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.api import Database
from repro.errors import (
    AdmissionRejected,
    GovernorError,
    ParameterBindingError,
    QueryCancelled,
    QueryTimeout,
    StorageFaultError,
)
from repro.governor.admission import AdmissionController
from repro.governor.context import QueryContext
from repro.governor.faults import FaultPlan
from repro.governor.spill import approx_row_bytes
from repro.obs.tracer import Tracer
from repro.optimizer.config import (
    ASSEMBLY,
    MERGE_JOIN,
    NESTED_LOOPS,
    POINTER_JOIN,
    WARM_START_ASSEMBLY,
)

QUERY_3 = (
    'SELECT c.mayor.age, c.name FROM City c IN Cities '
    'WHERE c.mayor.name == "Joe"'
)
ORDER_BY_QUERY = "SELECT c.name, c.population FROM City c IN Cities ORDER BY c.name"
CHAIN_QUERY = "SELECT e.name FROM Employee e IN Employees WHERE e.salary > 10000"
REJECT_ALL_QUERY = "SELECT * FROM Employee e IN Employees WHERE e.salary < 0"
JOIN_QUERY = (
    "SELECT e.name, d.name FROM Employee e IN Employees, "
    "Department d IN extent(Department) WHERE e.department == d"
)


# The spilled hash join of ``test_hash_join_spills_and_matches_exactly``,
# printing its spill page writes and a digest of its rows.
SPILLED_JOIN_CHILD = """
import hashlib
import sys
from repro.api import Database
from repro.governor.context import QueryContext
from repro.governor.spill import approx_row_bytes
from repro.optimizer.config import (
    ASSEMBLY, MERGE_JOIN, NESTED_LOOPS, POINTER_JOIN, WARM_START_ASSEMBLY,
)
db = Database.sample(scale=float(sys.argv[2]))
config = db.config.without(
    ASSEMBLY, POINTER_JOIN, WARM_START_ASSEMBLY, NESTED_LOOPS, MERGE_JOIN
)
plan = db.optimize(sys.argv[1], config=config).plan
join = next(node for node in plan.walk() if "Hash Join" in node.describe())
build = db.execute_plan(join.children[0]).rows
budget = max(1, sum(approx_row_bytes(row) for row in build) // 10)
run = db.execute_plan(plan, ctx=QueryContext(memory_bytes=budget))
print(run.spill_page_writes, hashlib.sha256(repr(run.rows).encode()).hexdigest())
"""


def _tenth_of_input_budget(db, rows) -> int:
    """A budget of one tenth of the materialized input's footprint."""
    return max(1, sum(approx_row_bytes(row) for row in rows) // 10)


class TestSpillByteIdentity:
    def test_order_by_spills_and_matches_exactly(self, fresh_db):
        reference = fresh_db.query(ORDER_BY_QUERY, use_cache=False)
        budget = _tenth_of_input_budget(fresh_db, reference.rows)
        governed = fresh_db.query(
            ORDER_BY_QUERY, use_cache=False, options={"$memory": budget}
        )
        assert governed.rows == reference.rows  # exact sequence, ties included
        assert governed.execution.spill_page_writes > 0
        assert governed.execution.spill_page_reads > 0

    def test_hash_join_spills_and_matches_exactly(self, fresh_db):
        # Pin the plan to Hybrid Hash Join so the spill path (not a plan
        # change) is what the budget exercises.
        config = fresh_db.config.without(
            ASSEMBLY, POINTER_JOIN, WARM_START_ASSEMBLY, NESTED_LOOPS,
            MERGE_JOIN,
        )
        optimization = fresh_db.optimize(JOIN_QUERY, config=config)
        assert "Hash Join" in optimization.plan.pretty()
        reference = fresh_db.execute_plan(optimization.plan)
        # 1/10th of the *build input* (the join's first child), so the
        # build side cannot fit and Grace partitioning must kick in.
        join_node = next(
            node
            for node in optimization.plan.walk()
            if "Hash Join" in node.describe()
        )
        build_rows = fresh_db.execute_plan(join_node.children[0]).rows
        budget = _tenth_of_input_budget(fresh_db, build_rows)
        governed = fresh_db.execute_plan(
            optimization.plan, ctx=QueryContext(memory_bytes=budget)
        )
        assert governed.rows == reference.rows
        assert governed.spill_page_writes > 0

    def test_grace_partitions_do_not_follow_the_string_hash(self):
        """Two processes with different string-hash seeds partition the
        spilled join's rows alike, so they write the same spill pages."""
        src = str(Path(repro.__file__).parents[1])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", SPILLED_JOIN_CHILD, JOIN_QUERY, "0.02"],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(outputs) == 1, outputs

    def test_explain_analyze_shows_spill_io(self, fresh_db):
        reference = fresh_db.query(ORDER_BY_QUERY, use_cache=False)
        budget = _tenth_of_input_budget(fresh_db, reference.rows)
        report = fresh_db.explain_analyze(
            ORDER_BY_QUERY, governor=QueryContext(memory_bytes=budget)
        )
        rendered = report.render()
        assert "spill" in rendered, rendered
        spilling = [
            node for node in report.root.walk() if node.spill_writes > 0
        ]
        assert spilling, "some operator must report spill writes"
        assert all(node.spill_reads > 0 for node in spilling)
        assert '"spill_writes"' in report.to_json()

    def test_budget_also_steers_the_cost_model(self, fresh_db):
        # The same budget reaches optimizer/cost.py: a budgeted sort is
        # costed with spill I/O, so its estimate strictly exceeds the
        # unbudgeted estimate of the same plan shape.
        free = fresh_db.optimize(ORDER_BY_QUERY)
        tight = fresh_db.optimize(
            ORDER_BY_QUERY,
            governor=QueryContext(memory_bytes=2048),
        )
        assert tight.cost.total > free.cost.total


class TestAnytimeSearch:
    def test_query3_millisecond_search_deadline_still_correct(self, fresh_db):
        reference = fresh_db.query(QUERY_3, use_cache=False)
        tracer = Tracer()
        ctx = QueryContext(search_timeout_ms=0.001, tracer=tracer)
        governed = fresh_db.query(QUERY_3, use_cache=False, governor=ctx)
        assert sorted(map(repr, governed.rows)) == sorted(
            map(repr, reference.rows)
        )
        assert "search_timeout" in ctx.degraded
        degraded_events = [
            e for e in tracer.events if e.category == "degraded"
        ]
        assert degraded_events, "degradation must be visible in the trace"

    def test_order_by_survives_search_deadline(self, fresh_db):
        reference = fresh_db.query(ORDER_BY_QUERY, use_cache=False)
        ctx = QueryContext(search_timeout_ms=0.001)
        governed = fresh_db.query(ORDER_BY_QUERY, use_cache=False, governor=ctx)
        assert governed.rows == reference.rows  # order respected by fallback
        assert "search_timeout" in ctx.degraded

    def test_degraded_plans_are_not_cached(self, fresh_db):
        ctx = QueryContext(search_timeout_ms=0.001)
        degraded = fresh_db.query(QUERY_3, governor=ctx)
        assert degraded.cache.outcome == "bypass"
        clean = fresh_db.query(QUERY_3)
        assert clean.cache.outcome == "miss"


class _TrippingContext(QueryContext):
    """A context whose poll trips after a fixed number of checks."""

    def __init__(self, fail_after: int) -> None:
        super().__init__()
        self.calls = 0
        self.fail_after = fail_after

    def check(self) -> None:  # noqa: D102 - overrides QueryContext.check
        self.calls += 1
        if self.calls > self.fail_after:
            raise QueryCancelled("tripped mid-scan")


class TestTypedFailures:
    def test_expired_deadline_raises_query_timeout(self, fresh_db):
        for query, timeout_ms in [(ORDER_BY_QUERY, 0.00001), (CHAIN_QUERY, 0.0001)]:
            with pytest.raises(QueryTimeout):
                fresh_db.query(
                    query, use_cache=False, options={"$timeout": timeout_ms}
                )

    @pytest.mark.parametrize("key, value", [
        ("$memory", "abc"), ("$memory", True), ("$memory", -1), ("$timeout", "abc"),
        ("$timeout", 0), ("$search_timeout", float("nan")), ("$chaos", "x"),
        ("$chaos", 1.5), ("$bogus", 1)])
    def test_malformed_option_is_a_binding_error(self, plain_db, key, value):
        with pytest.raises(ParameterBindingError, match=re.escape(key)):
            plain_db.query(QUERY_3, options={key: value})

    def test_cancel_raises_query_cancelled(self, fresh_db):
        ctx = QueryContext()
        ctx.cancel()
        with pytest.raises(QueryCancelled):
            fresh_db.query(ORDER_BY_QUERY, use_cache=False, governor=ctx)

    def test_cancel_fires_mid_scan_with_no_output_rows(self, fresh_db):
        # The filter rejects every row, so an engine that only polled
        # around emitted rows would run to completion: the poll must
        # happen on the scan's own stream.
        plan = fresh_db.optimize(REJECT_ALL_QUERY).plan
        ctx = _TrippingContext(fail_after=3)
        with pytest.raises(QueryCancelled):
            fresh_db.executor.execute(plan, ctx=ctx)
        assert ctx.calls > 3

    def test_timeout_is_a_governor_error(self):
        assert issubclass(QueryTimeout, GovernorError)
        assert issubclass(QueryCancelled, GovernorError)
        assert issubclass(AdmissionRejected, GovernorError)
        assert issubclass(StorageFaultError, GovernorError)

    def test_admission_rejects_typed_when_saturated(self, fresh_db):
        fresh_db.admission = AdmissionController(1, max_wait_ms=5.0)
        with fresh_db.admission.admit():  # saturate the only slot
            with pytest.raises(AdmissionRejected):
                fresh_db.query(QUERY_3, use_cache=False)
        # Slot released: the same query now runs.
        assert fresh_db.query(QUERY_3, use_cache=False).rows

    def test_exhausted_retries_raise_storage_fault(self, fresh_db):
        ctx = QueryContext(
            fault_plan=FaultPlan(seed=0, read_error_prob=1.0)
        )
        with pytest.raises(StorageFaultError):
            fresh_db.query(ORDER_BY_QUERY, use_cache=False, governor=ctx)


class TestFaultTolerance:
    def test_transient_faults_are_retried_to_the_right_answer(self, fresh_db):
        reference = fresh_db.query(ORDER_BY_QUERY, use_cache=False)
        ctx = QueryContext(
            fault_plan=FaultPlan(seed=9, read_error_prob=0.2)
        )
        governed = fresh_db.query(ORDER_BY_QUERY, use_cache=False, governor=ctx)
        assert governed.rows == reference.rows
        assert ctx.faults.stats.transient_errors > 0
        assert ctx.faults.stats.backoff_ms > 0.0

    def test_corrupt_index_degrades_to_scan(self, fresh_db):
        fresh_db.create_index("ix_mayor", "Cities", ("mayor", "name"))
        reference = fresh_db.query(QUERY_3, use_cache=False)
        assert "Index Scan" in reference.plan.pretty()
        ctx = QueryContext(
            fault_plan=FaultPlan(seed=1, corrupt_index_prob=1.0)
        )
        governed = fresh_db.query(QUERY_3, use_cache=False, governor=ctx)
        assert "Index Scan" not in governed.plan.pretty()
        assert sorted(map(repr, governed.rows)) == sorted(
            map(repr, reference.rows)
        )
        assert "index_corruption" in ctx.degraded

    def test_cache_hit_that_degrades_answers_for_its_own_constants(self):
        """The replan works from the cached entry's logical tree, which was
        built for the statement that populated the entry: it used to
        answer (and explain) for *that* statement's constant."""
        db = Database.sample(0.05, seed=1)
        db.create_index("ix_mayor", "Cities", ("mayor", "name"))
        query = QUERY_3.replace("Joe", "{}").format
        rows = db.query("SELECT c.mayor.name FROM City c IN Cities").rows
        counts = Counter(row["c.mayor.name"] for row in rows)
        (many, _), *_, (few, _) = counts.most_common()
        assert counts[many] > counts[few]
        assert db.query(query(many)).cache.outcome == "miss"
        ctx = QueryContext(fault_plan=FaultPlan(seed=1, corrupt_index_prob=1.0))
        degraded = db.query(query(few), governor=ctx)
        assert degraded.cache.outcome == "hit"
        assert ctx.degraded == ["index_corruption"]
        assert len(degraded.rows) == counts[few]
        assert degraded.rows == db.query(query(few), use_cache=False).rows
        assert f"Filter {few!r} == c.mayor.name" in degraded.explain()
        assert many not in degraded.explain()

    def test_explain_analyze_degrades_like_query(self, fresh_db):
        """EXPLAIN ANALYZE runs the shared execute/replan stages: the
        statement `query` degrades must not raise here (it used to)."""
        fresh_db.create_index("ix_mayor", "Cities", ("mayor", "name"))
        reference = fresh_db.query(QUERY_3, use_cache=False)
        ctx = QueryContext(
            fault_plan=FaultPlan(seed=1, corrupt_index_prob=1.0)
        )
        report = fresh_db.explain_analyze(QUERY_3, governor=ctx)
        assert ctx.degraded == ["index_corruption"]
        assert "Index Scan" not in report.render()
        assert report.root.actual_rows == len(reference.rows)
        # The report's events carry both searches and the reason between.
        assert [e.name for e in report.events_in("degraded")] == [
            "index_corruption"
        ]

    def test_explain_analyze_takes_an_admission_slot(self, fresh_db):
        fresh_db.admission = AdmissionController(1, max_wait_ms=5.0)
        with fresh_db.admission.admit():  # saturate the only slot
            with pytest.raises(AdmissionRejected):
                fresh_db.explain_analyze(QUERY_3)
        assert fresh_db.explain_analyze(QUERY_3).root.actual_rows >= 0


class TestScopeUnwinding:
    """Satellite (a): a failed query must leave no stale I/O scopes."""

    def test_failed_query_leaves_no_stale_scopes(self, fresh_db):
        buffer = fresh_db.store.buffer
        assert buffer.io_scope_depth == 0
        ctx = QueryContext(fault_plan=FaultPlan(seed=0, read_error_prob=1.0))
        with pytest.raises(StorageFaultError):
            fresh_db.explain_analyze(ORDER_BY_QUERY, governor=ctx)
        assert buffer.io_scope_depth == 0
        assert buffer.faults is None  # injector uninstalled
        # The next (instrumented) query on this thread is unaffected.
        report = fresh_db.explain_analyze(ORDER_BY_QUERY)
        assert "act" in report.render()

    def test_mid_stream_cancellation_unwinds_scopes(self, fresh_db):
        buffer = fresh_db.store.buffer
        ctx = QueryContext()
        ctx.cancel()
        with pytest.raises(QueryCancelled):
            fresh_db.explain_analyze(ORDER_BY_QUERY, governor=ctx)
        assert buffer.io_scope_depth == 0

    def test_chaos_faulted_runs_uninstall_injector_and_scopes(self, fresh_db):
        reference = fresh_db.query(CHAIN_QUERY, use_cache=False).rows
        buffer = fresh_db.store.buffer
        for seed in range(5):
            ctx = QueryContext(fault_plan=FaultPlan.chaos(seed, 0.05))
            try:
                got = fresh_db.query(
                    CHAIN_QUERY, use_cache=False, governor=ctx
                ).rows
            except GovernorError:
                pass  # typed failure is within the governor contract
            else:
                assert got == reference
            assert buffer.faults is None
            assert buffer.clear_io_scopes() == 0
