"""Per-query governance state: deadline, cancel token, budgets.

One :class:`QueryContext` travels with a query through optimization and
execution.  It is deliberately *cooperative*: nothing preempts a thread;
instead the optimizer's search loop and every row pipeline poll the
context at batch granularity (:data:`CHECK_INTERVAL_ROWS` rows) and
raise the typed :class:`~repro.errors.QueryTimeout` /
:class:`~repro.errors.QueryCancelled` errors themselves.

Two separate clocks:

* ``timeout_ms`` bounds the *whole query* (optimize + execute) and is a
  hard failure — the query raises :class:`QueryTimeout`.
* ``search_timeout_ms`` bounds only the *optimizer search* and is soft —
  the search degrades to the best plan found so far (anytime behavior)
  and the query still runs, with ``degraded=search_timeout`` recorded
  here and in the trace.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.errors import ParameterBindingError, QueryCancelled, QueryTimeout
from repro.governor.faults import FaultPlan
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.engine.tuples import Row
    from repro.governor.faults import FaultInjector

#: How many rows a governed pipeline yields between context polls.
CHECK_INTERVAL_ROWS = 64


@dataclass
class QueryContext:
    """Deadline, cancel token, memory budget, and fault plan for one query.

    A context is single-use: it belongs to one query execution, and the
    fault injector it lazily builds keeps per-query state (which indexes
    came up corrupt stays decided for the query's whole lifetime,
    including the degrade-to-scan replan).
    """

    timeout_ms: float | None = None
    search_timeout_ms: float | None = None
    memory_bytes: int | None = None
    fault_plan: "FaultPlan | None" = None
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    check_interval: int = CHECK_INTERVAL_ROWS
    #: Degradation markers, in the order they happened (also traced).
    degraded: list[str] = field(default_factory=list)
    _started: float | None = field(default=None, repr=False)
    _search_started: float | None = field(default=None, repr=False)
    _cancel: threading.Event = field(
        default_factory=threading.Event, repr=False
    )
    _injector: "FaultInjector | None" = field(default=None, repr=False)

    #: The ``$``-keys of `Database.query(options=...)` (anything else is
    #: an error).
    OPTION_KEYS = ("$timeout", "$memory", "$search_timeout", "$chaos")

    @classmethod
    def from_options(
        cls, options: Mapping[str, Any], tracer: Tracer
    ) -> "QueryContext":
        """Build a context from ``$``-key per-query options (bools are not numbers)."""
        for key, value in options.items():
            if key not in cls.OPTION_KEYS:
                known = ", ".join(cls.OPTION_KEYS)
                raise ParameterBindingError(f"unknown query option {key}; supported: {known}")
            if isinstance(value, bool) or not (
                isinstance(value, int) if key == "$chaos"
                else isinstance(value, (int, float)) and value > 0
            ):
                kind = "an int" if key == "$chaos" else "a positive number"
                raise ParameterBindingError(f"{key} must be {kind}, not {value!r}")
        chaos = options.get("$chaos")
        return cls(
            timeout_ms=options.get("$timeout"),
            search_timeout_ms=options.get("$search_timeout"),
            memory_bytes=options.get("$memory"),
            fault_plan=FaultPlan.chaos(chaos) if chaos is not None else None,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the overall deadline clock (idempotent)."""
        if self._started is None:
            self._started = time.perf_counter()

    def begin_search(self) -> None:
        """Start the optimizer-search clock (idempotent)."""
        self.start()
        if self._search_started is None:
            self._search_started = time.perf_counter()

    def elapsed_ms(self) -> float:
        """Milliseconds since :meth:`start` (0 before it)."""
        if self._started is None:
            return 0.0
        return (time.perf_counter() - self._started) * 1000.0

    def deadline_exceeded(self) -> bool:
        """Whether the overall ``timeout_ms`` deadline has passed."""
        if self.timeout_ms is None or self._started is None:
            return False
        return self.elapsed_ms() > self.timeout_ms

    def search_expired(self) -> bool:
        """Whether the optimizer-search budget has been exhausted.

        The overall deadline also expires the search: if the whole query
        is out of time, spending more of it searching is strictly worse.
        """
        if self.deadline_exceeded():
            return True
        if self.search_timeout_ms is None or self._search_started is None:
            return False
        since = (time.perf_counter() - self._search_started) * 1000.0
        return since > self.search_timeout_ms

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------

    def cancel(self) -> None:
        """Trip the cooperative cancel token (thread-safe)."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def check(self) -> None:
        """Raise the typed governor error if cancelled or out of time.

        This is the one poll point: the search loop and every governed
        row pipeline call it at batch granularity.
        """
        if self._cancel.is_set():
            raise QueryCancelled("query cancelled")
        if self.deadline_exceeded():
            raise QueryTimeout(
                f"query exceeded its {self.timeout_ms:g} ms deadline"
                f" (elapsed {self.elapsed_ms():.1f} ms)"
            )

    # ------------------------------------------------------------------
    # Degradation + faults
    # ------------------------------------------------------------------

    def mark_degraded(self, reason: str, **detail: object) -> None:
        """Record (and trace) that the query degraded but kept going."""
        self.degraded.append(reason)
        if self.tracer.enabled:
            self.tracer.event("degraded", reason, **detail)

    @property
    def faults(self) -> "FaultInjector | None":
        """The query's fault injector (built once from ``fault_plan``)."""
        if self.fault_plan is None:
            return None
        if self._injector is None:
            from repro.governor.faults import FaultInjector

            self._injector = FaultInjector(self.fault_plan, self.tracer)
        return self._injector


def governed(rows: "Iterator[Row]", ctx: QueryContext) -> "Iterator[Row]":
    """Wrap a row stream with batch-granularity context polls.

    Polls once before the first row (so an already-expired context never
    starts streaming) and then every ``ctx.check_interval`` rows.  Cheap
    enough to wrap every operator: one integer decrement per row.
    """
    ctx.check()
    countdown = ctx.check_interval
    for row in rows:
        yield row
        countdown -= 1
        if countdown <= 0:
            ctx.check()
            countdown = ctx.check_interval


__all__ = ["CHECK_INTERVAL_ROWS", "QueryContext", "governed"]
