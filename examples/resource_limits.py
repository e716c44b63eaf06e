#!/usr/bin/env python3
"""Resource governance: deadlines, memory budgets, faults, admission.

Run with:  python examples/resource_limits.py [scale]

Walks the governor's contract end to end — the engine either returns
exactly the rows a fault-free run would return, or it raises a typed
``GovernorError``:

1. memory budgets — ORDER BY and hash joins spill to temp segments and
   still return byte-identical results, with the spill I/O visible in
   EXPLAIN ANALYZE;
2. anytime optimization — a ~1ms search deadline degrades the *plan*
   (a greedy descent over the memo explored so far), never the *answer*;
3. fault injection — seeded transient read errors are retried with
   capped backoff; a persistently corrupt index triggers a
   degrade-to-scan replan;
4. hard limits — expired deadlines, cancellation, and a saturated
   admission controller all fail with typed errors.
"""

import sys

from repro import Database
from repro.errors import AdmissionRejected, QueryCancelled, QueryTimeout
from repro.governor.admission import AdmissionController
from repro.governor.context import QueryContext
from repro.governor.faults import FaultPlan
from repro.governor.spill import approx_row_bytes

ORDER_BY = "SELECT c.name, c.population FROM City c IN Cities ORDER BY c.name"
QUERY_3 = (
    'SELECT c.mayor.age, c.name FROM City c IN Cities '
    'WHERE c.mayor.name == "Joe"'
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"Building the Table 1 sample database at scale {scale} ...")
    db = Database.sample(scale=scale)
    print()

    # --- 1. Memory budgets: spill, don't fail -------------------------
    reference = db.query(ORDER_BY, use_cache=False)
    footprint = sum(approx_row_bytes(row) for row in reference.rows)
    budget = max(1, footprint // 10)
    governed = db.query(ORDER_BY, use_cache=False, options={"$memory": budget})
    print(
        f"ORDER BY under a {budget}-byte budget (input ~{footprint} bytes):"
    )
    print(f"  identical rows: {governed.rows == reference.rows}")
    print(
        f"  spill I/O: {governed.execution.spill_page_writes} page writes, "
        f"{governed.execution.spill_page_reads} page reads"
    )
    report = db.explain_analyze(
        ORDER_BY, governor=QueryContext(memory_bytes=budget)
    )
    spilling = [n for n in report.root.walk() if n.spill_writes]
    print(f"  EXPLAIN ANALYZE shows spill on: {spilling[0].description}")
    print()

    # --- 2. Anytime optimization: degrade the plan, not the answer ----
    ctx = QueryContext(search_timeout_ms=0.001)
    hurried = db.query(QUERY_3, use_cache=False, governor=ctx)
    unhurried = db.query(QUERY_3, use_cache=False)
    print("Query 3 with a 1 microsecond search budget:")
    print(f"  degraded: {ctx.degraded}")
    print(
        "  same rows as the full search: "
        f"{sorted(map(repr, hurried.rows)) == sorted(map(repr, unhurried.rows))}"
    )
    print()

    # --- 3. Fault injection: retry, then replan -----------------------
    ctx = QueryContext(fault_plan=FaultPlan(seed=9, read_error_prob=0.2))
    faulted = db.query(ORDER_BY, use_cache=False, governor=ctx)
    print("20% transient read-error rate, seeded:")
    print(f"  identical rows: {faulted.rows == reference.rows}")
    print(
        f"  {ctx.faults.stats.transient_errors} transient errors retried, "
        f"{ctx.faults.stats.backoff_ms:.1f} ms simulated backoff"
    )
    db.create_index("ix_mayor", "Cities", ("mayor", "name"))
    ctx = QueryContext(fault_plan=FaultPlan(seed=1, corrupt_index_prob=1.0))
    degraded = db.query(QUERY_3, use_cache=False, governor=ctx)
    print("every index page corrupt (sticky):")
    print(f"  degraded: {ctx.degraded}")
    print(
        "  replanned without the index: "
        f"{'Index Scan' not in degraded.plan.pretty()}"
    )
    db.drop_index("ix_mayor")
    print()

    # --- 4. Hard limits fail typed ------------------------------------
    try:
        db.query(ORDER_BY, use_cache=False, options={"$timeout": 0.00001})
    except QueryTimeout as exc:
        print(f"expired deadline  -> QueryTimeout: {exc}")
    ctx = QueryContext()
    ctx.cancel()
    try:
        db.query(ORDER_BY, use_cache=False, governor=ctx)
    except QueryCancelled as exc:
        print(f"cancelled token   -> QueryCancelled: {exc}")
    db.admission = AdmissionController(1, max_wait_ms=5.0)
    with db.admission.admit():  # saturate the only slot
        try:
            db.query(QUERY_3, use_cache=False)
        except AdmissionRejected as exc:
            print(f"saturated server  -> AdmissionRejected: {exc}")
    db.admission = None


if __name__ == "__main__":
    main()
