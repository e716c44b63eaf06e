"""Observability: tracing of optimizer search, runtime operator stats,
and the EXPLAIN ANALYZE report built from both.

Three layers, lowest first:

* :mod:`repro.obs.tracer` — a lightweight span/event tracer.  The
  optimizer threads one through exploration and goal-directed search so
  every rule firing, memo group, task (Figure 11's ``search_states``),
  prune and enforcer application is an observable event.  Disabled
  tracers cost one attribute check per call site (nothing is built).
* :mod:`repro.obs.runtime` — per-operator runtime statistics (rows,
  ``next()`` time, buffer hits/misses attributed via
  :class:`~repro.storage.buffer.BufferPool` I/O scoping) collected while
  a plan executes.
* :mod:`repro.obs.explain` — the EXPLAIN ANALYZE surface: pairs each
  plan node's *estimates* with its *actuals* and renders the annotated
  tree (or a JSON document for the benchmark harness).
"""

from repro.obs.explain import ExplainReport, NodeReport, build_report
from repro.obs.runtime import OperatorIOStats, OperatorRunStats, RunStatsCollector
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer, search_states

__all__ = [
    "ExplainReport",
    "NodeReport",
    "NULL_TRACER",
    "OperatorIOStats",
    "OperatorRunStats",
    "RunStatsCollector",
    "TraceEvent",
    "Tracer",
    "build_report",
    "search_states",
]
