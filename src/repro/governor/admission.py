"""Admission control: cap concurrent in-flight queries.

A semaphore with a bounded wait.  A query that cannot get a slot within
``max_wait_ms`` is rejected with the typed
:class:`~repro.errors.AdmissionRejected` — the governor's answer to
overload is a fast, explicit "try later", never an unbounded queue.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.errors import AdmissionRejected
from repro.obs.tracer import NULL_TRACER, Tracer


class AdmissionController:
    """Bounded-concurrency gate for :meth:`repro.api.Database.query`."""

    def __init__(
        self,
        max_concurrent: int,
        max_wait_ms: float = 100.0,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self.max_wait_ms = max_wait_ms
        self.tracer = tracer
        self._slots = threading.BoundedSemaphore(max_concurrent)
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0

    @contextmanager
    def admit(self):
        """Hold one query slot; raises AdmissionRejected after the wait."""
        if not self._slots.acquire(timeout=self.max_wait_ms / 1000.0):
            raise self.reject(self.max_wait_ms)
        with self._lock:
            self.admitted += 1
        try:
            yield
        finally:
            self._slots.release()

    def reject(self, waited_ms: float) -> AdmissionRejected:
        """Count and trace a rejection after ``waited_ms``; returns it.

        Also for a caller that queues work itself (the server's loop) and
        finds a request already waited past ``max_wait_ms``.
        """
        with self._lock:
            self.rejected += 1
        if self.tracer.enabled:
            self.tracer.event(
                "governor",
                "admission-rejected",
                max_concurrent=self.max_concurrent,
                waited_ms=waited_ms,
            )
        return AdmissionRejected(
            f"no query slot within {self.max_wait_ms:g} ms"
            f" (waited {waited_ms:.0f} ms, {self.max_concurrent} in flight)"
        )


__all__ = ["AdmissionController"]
