"""Execution-side cardinality counting and the adaptive-replan trigger.

A :class:`CardinalityMonitor` is created per governed execution (when
``config.feedback`` is on).  The executor threads every operator's row
stream through :meth:`CardinalityMonitor.wrap`; the monitor counts rows
against the key of the memo group the node implements (re-derived from
the node's ``props`` under the statement's constants, see
:func:`~repro.feedback.fingerprint.group_key`) and, when a watched operator
produces more than ``max(estimate × replan_ratio, REPLAN_MIN_ROWS)``
rows, raises :class:`AdaptiveReplanSignal` to cancel the run so the
database can replan with the rows-so-far already ingested as feedback.

Counts are flushed in ``finally`` so partially-consumed streams (LIMIT,
the replan signal itself, a hash build aborted mid-way) still contribute
their lower-bound observation.  A traceback keeps streams suspended
*below* the raising operator alive: ``Executor.execute`` closes every
stream it opened, which puts their counts in front of the ingest.
A node whose stream is opened more than once is summed, and its
observation is complete only once every opened stream has finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.feedback.fingerprint import Fingerprint, group_key
from repro.optimizer.plans import PhysicalNode

#: An operator must produce at least this many rows before a blown
#: estimate triggers a replan — tiny overruns are never worth the
#: re-optimization round-trip.
REPLAN_MIN_ROWS = 64


class AdaptiveReplanSignal(Exception):
    """Observed cardinality blew past the estimate: cancel and replan.

    Deliberately *not* a ``ReproError``: this must never escape the
    execute stage (``Database._execute``) to a caller, so the fuzzer
    treats a leak as a crash rather than a tolerated error.
    """

    def __init__(self, description: str, estimated: float, observed: int) -> None:
        super().__init__(
            f"{description}: estimated ~{estimated:.0f} rows, "
            f"observed {observed} and counting"
        )
        self.description = description
        self.estimated = estimated
        self.observed = observed


@dataclass
class _NodeCount:
    key: Fingerprint
    collections: frozenset[str]
    estimated: float
    threshold: float | None
    description: str
    rows: int = 0
    opened: int = 0
    done: int = 0
    triggered: bool = False
    cancelled: bool = False  # some stream was closed before exhaustion


class CardinalityMonitor:
    """Counts per-operator rows against the keys of the plan's groups."""

    def __init__(self, plan: PhysicalNode, replan_ratio: float | None = None) -> None:
        self._counts: dict[int, _NodeCount] = {}
        known: dict = {}
        for node in plan.walk():
            if node.props is None:
                continue  # unmarked (feedback off, or no memo): unmonitored
            key, collections = group_key(node.props, known)
            threshold = None
            if replan_ratio is not None:
                threshold = max(float(node.rows) * replan_ratio, float(REPLAN_MIN_ROWS))
            self._counts[id(node)] = _NodeCount(
                key=key,
                collections=collections,
                estimated=float(node.rows),
                threshold=threshold,
                description=node.describe(),
            )

    def wrap(self, node: PhysicalNode, rows: Iterable) -> Iterable:
        """Thread a node's row stream through the counter (identity for an
        unmonitored node)."""
        count = self._counts.get(id(node))
        if count is None:
            return rows
        return self._counted(count, rows)

    def _counted(self, count: _NodeCount, rows: Iterable) -> Iterator:
        count.opened += 1
        n = 0
        exhausted = False
        try:
            for row in rows:
                n += 1
                if (
                    count.threshold is not None
                    and not count.triggered
                    and count.rows + n >= count.threshold
                ):
                    count.triggered = True
                    raise AdaptiveReplanSignal(
                        count.description, count.estimated, count.rows + n
                    )
                yield row
            exhausted = True
        finally:
            # Flushed even on GeneratorExit / the replan signal itself,
            # so cancelled streams still leave a lower-bound count — but
            # only streams that ran dry may count toward completeness (a
            # consumer closing early, e.g. a hash build abandoned by the
            # replan unwinding, saw a prefix, not the cardinality).
            count.rows += n
            count.done += 1
            if not exhausted:
                count.cancelled = True

    @property
    def replanned(self) -> bool:
        return any(c.triggered for c in self._counts.values())

    def observations(self) -> Iterator[tuple[Fingerprint, frozenset[str], int, bool]]:
        """``(fingerprint, collections, rows, complete)`` per counted node.

        An observation is complete when every stream opened for the node
        ran to exhaustion; with zero streams opened the node never
        executed and reports nothing.
        """
        seen: set[Fingerprint] = set()
        for count in self._counts.values():
            if count.opened == 0 or count.key in seen:
                continue
            seen.add(count.key)
            complete = (
                count.done == count.opened
                and not count.triggered
                and not count.cancelled
            )
            yield count.key, count.collections, count.rows, complete


__all__ = ["AdaptiveReplanSignal", "CardinalityMonitor", "REPLAN_MIN_ROWS"]
