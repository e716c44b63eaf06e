"""A lightweight span/event tracer for the optimizer and engine.

Design constraints, in order:

1. **Zero cost when disabled.**  Every call site guards with
   ``if tracer.enabled:`` so a disabled tracer costs one attribute read —
   no event objects, no keyword dicts, no span allocation.  The shared
   :data:`NULL_TRACER` is the permanently-disabled instance threaded by
   default.
2. **Flat and structured.**  Events are append-only ``(seq, category,
   name, detail)`` records; no nesting machinery to keep in sync.  Spans
   are sugar that emit one event carrying a measured ``seconds`` detail.
3. **Queryable.**  ``events_in`` / ``counts`` support both the CLI's
   ``.trace`` summary and test assertions ("the Query 3 trace contains an
   assembly-enforcer event").

Event categories used by the library:

=============  =====================================================
``phase``      span per optimizer phase (explore / optimize), with
               measured wall seconds
``rule``       one transformation-rule firing during exploration
``memo``       group creation
``task``       one goal-directed optimization task and its winner
``rewrite``    one pre-memo rewrite firing, with its detail
``prune``      a candidate abandoned by branch and bound, with the
               losing accumulated cost and the budget it exceeded
``enforcer``   an assembly or sort enforcer application
``warning``    a recoverable anomaly that used to be silently
               swallowed (e.g. a type with no segment during
               statistics collection)
=============  =====================================================
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence: category, name, and free-form detail."""

    seq: int
    category: str
    name: str
    detail: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default: object = None) -> object:
        """The value of one detail key (``default`` when absent)."""
        for name, value in self.detail:
            if name == key:
                return value
        return default

    def format(self) -> str:
        """One-line rendering: ``category name key=value ...``."""
        parts = [f"{self.category:<8} {self.name}"]
        for key, value in self.detail:
            if isinstance(value, float):
                parts.append(f"{key}={value:.4f}")
            else:
                parts.append(f"{key}={value}")
        return " ".join(parts)


class _Span:
    """Context manager that emits one timed event on exit."""

    __slots__ = ("_tracer", "_category", "_name", "_started")

    def __init__(self, tracer: "Tracer", category: str, name: str) -> None:
        self._tracer = tracer
        self._category = category
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.event(
            self._category,
            self._name,
            seconds=time.perf_counter() - self._started,
        )


class _NullSpan:
    """The no-op span handed out by disabled tracers (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


@dataclass
class Tracer:
    """An append-only event recorder; disabled instances record nothing.

    Call sites must guard detail-building work behind ``tracer.enabled``;
    calling :meth:`event` on a disabled tracer is still safe (a no-op).
    """

    enabled: bool = True
    events: list[TraceEvent] = field(default_factory=list)

    def event(self, category: str, name: str, **detail: object) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        self.events.append(
            TraceEvent(len(self.events), category, name, tuple(detail.items()))
        )

    def warning(self, name: str, message: str, **detail: object) -> None:
        """Record a recoverable anomaly so it is visible in trace output."""
        if not self.enabled:
            return
        self.event("warning", name, message=message, **detail)

    def span(self, category: str, name: str):
        """A context manager timing its body into one event.

        Disabled tracers return a shared no-op instance — no allocation.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, category, name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def events_in(self, category: str) -> list[TraceEvent]:
        """All recorded events of one category, in order."""
        return [e for e in self.events if e.category == category]

    def counts(self) -> dict[str, int]:
        """Event counts per category (for the CLI's ``.trace`` summary)."""
        return dict(Counter(e.category for e in self.events))

    def format(self) -> str:
        """Every event, one line each."""
        return "\n".join(e.format() for e in self.events)

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()


NULL_TRACER = Tracer(enabled=False)
"""The shared disabled tracer threaded through un-traced optimizations."""


def search_states(events) -> list[str]:
    """The paper's Figure 11 search states, one line per ``task`` event
    (the anytime fallback's greedy descent is a recovery: left out)."""
    return [
        f"optimize(group {e.name.removeprefix('group-')} [{e.get('op')}], "
        f"require {e.get('required')}) -> "
        + ("no plan" if e.get("winner") is None
           else f"{e.get('winner')} @ {e.get('cost'):.3f}s")
        for e in events
        if e.category == "task" and not e.get("fallback")
    ]


__all__ = ["NULL_TRACER", "TraceEvent", "Tracer", "search_states"]
