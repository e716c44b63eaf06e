"""Cardinality feedback: close the estimate/actual loop.

The paper's optimizer trusts Table-1 statistics unconditionally; EXPLAIN
ANALYZE already measures how wrong they were, per operator, but only
displays the number.  This package *uses* it:

* :mod:`repro.feedback.fingerprint` — semantic subplan keys: the key of
  a memo group, which every plan node implementing the group reports,
  so an observation recorded while executing one plan shape is found
  again while optimizing any equivalent shape;
* :mod:`repro.feedback.store` — the feedback store: observed
  per-operator cardinalities keyed by fingerprint, with staleness tied
  to the catalog's per-collection data versions;
* :mod:`repro.feedback.monitor` — the lightweight execution-side
  counter that produces observations (and, when an operator blows past
  its estimate by the configured ratio, raises the adaptive-replan
  signal).

Everything is gated on ``OptimizerConfig.feedback`` (off by default)
and never changes result bytes — only plans.
"""

from repro.feedback.fingerprint import group_key, render_fingerprint
from repro.feedback.monitor import (
    AdaptiveReplanSignal,
    CardinalityMonitor,
    REPLAN_MIN_ROWS,
)
from repro.feedback.store import FeedbackStats, FeedbackStore, Observation

__all__ = [
    "AdaptiveReplanSignal",
    "CardinalityMonitor",
    "FeedbackStats",
    "FeedbackStore",
    "Observation",
    "REPLAN_MIN_ROWS",
    "group_key",
    "render_fingerprint",
]
