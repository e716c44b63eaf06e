"""Deterministic fault injection for the simulated storage layer.

A :class:`FaultPlan` is a frozen, seeded description of how unreliable
the store should be: probabilities for transient page-read errors,
latency spikes, and corrupt index pages, plus the retry/backoff policy.
A :class:`FaultInjector` is the per-query stateful realization — one
seeded RNG behind a lock, counters for what was injected, and a sticky
per-index corruption decision so a corrupt index stays corrupt for the
whole query (which is what forces the degrade-to-scan replan instead of
a lucky retry).

Everything is simulated: backoff accrues *simulated* milliseconds on the
injector's counters (and, for spikes, on the disk clock) rather than
sleeping, so chaos sweeps run at full speed while still showing the cost
of retries in the accounting.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.obs.tracer import NULL_TRACER, Tracer


def capped_backoff_ms(
    attempt: int,
    base_ms: float = 1.0,
    cap_ms: float = 50.0,
    rng: random.Random | None = None,
) -> float:
    """Capped exponential backoff for the Nth retry (1-based), in ms.

    ``base * 2**(attempt-1)`` capped at ``cap_ms``; when ``rng`` is given
    the result is jittered into ``[0.5, 1.0]`` of the deterministic value
    so synchronized retriers decorrelate.  Shared by the storage fault
    injector and the server client's connect retry.
    """
    wait = min(cap_ms, base_ms * (2.0 ** (attempt - 1)))
    if rng is not None:
        wait *= 0.5 + rng.random() * 0.5
    return wait


class SimulatedCrash(RuntimeError):
    """An injected process "kill" at a seeded crash point.

    Deliberately **not** a :class:`~repro.errors.ReproError`: every
    internal ``except ReproError`` handler (rollback paths, the server's
    typed-error boundary) must let it through untouched, exactly like a
    real SIGKILL would not run them.  The crash-recovery fuzz oracle
    catches it at top level, reopens the directory, and compares.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point}")
        self.point = point


@dataclass(frozen=True)
class CrashPlan:
    """A seeded description of where the engine should "lose power".

    ``crash_at_commit`` counts *durable log appends* (1-based); when the
    Nth append runs, the plan fires at ``crash_point``:

    * ``"mid-record"`` — only ``crash_after_bytes`` of the framed record
      reach the file (a torn tail); the commit must NOT survive recovery.
    * ``"post-record-pre-ack"`` — the record is fully written and
      fsynced, then the process dies before the commit is acknowledged;
      the commit IS durable and must survive recovery.
    * ``"mid-checkpoint-rename"`` — the checkpoint temp file is written
      and fsynced but the process dies before the atomic rename; the old
      checkpoint (and full log) stay authoritative.

    ``crash_at_commit <= 0`` never fires (the default, so a plan can be
    threaded through unconditionally).
    """

    crash_at_commit: int = 0
    crash_point: str = "post-record-pre-ack"
    #: For ``mid-record``: bytes of the frame that reach the file before
    #: the crash.  Negative means "half the frame".
    crash_after_bytes: int = -1

    POINTS = ("mid-record", "post-record-pre-ack", "mid-checkpoint-rename")

    def __post_init__(self) -> None:
        if self.crash_point not in self.POINTS:
            raise ValueError(f"unknown crash point {self.crash_point!r}")

    def fires_at(self, commit_ordinal: int) -> bool:
        """Whether this plan kills the process at the Nth log append."""
        return (
            self.crash_at_commit > 0
            and commit_ordinal == self.crash_at_commit
            and self.crash_point in ("mid-record", "post-record-pre-ack")
        )

    def torn_bytes(self, frame_len: int) -> int:
        """How many bytes of an N-byte frame survive a mid-record crash.

        Clamped strictly below ``frame_len``: "mid-record" *means* the
        record did not fully land (a fully-landed record is just
        ``post-record-pre-ack`` wearing a different name), so the commit
        verifiably must not survive recovery.
        """
        if self.crash_after_bytes >= 0:
            return min(self.crash_after_bytes, frame_len - 1)
        return frame_len // 2

    def fires_at_checkpoint(self) -> bool:
        """Whether this plan kills the process before a checkpoint rename."""
        return (
            self.crash_at_commit > 0
            and self.crash_point == "mid-checkpoint-rename"
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of injected storage unreliability."""

    seed: int = 0
    #: Probability that one page-read attempt fails transiently.
    read_error_prob: float = 0.0
    #: Probability that one successful disk read takes a latency spike.
    latency_spike_prob: float = 0.0
    #: Probability that a given index is (persistently) corrupt.
    corrupt_index_prob: float = 0.0
    #: Simulated milliseconds added by one latency spike.
    spike_ms: float = 40.0
    #: Retries before a transient fault becomes a StorageFaultError.
    max_retries: int = 4
    #: Exponential backoff: base * 2**(attempt-1), capped, jittered.
    backoff_base_ms: float = 1.0
    backoff_cap_ms: float = 50.0

    def backoff_for(self, attempt: int) -> float:
        """Deterministic (pre-jitter) backoff for the Nth retry (1-based)."""
        return capped_backoff_ms(
            attempt, self.backoff_base_ms, self.backoff_cap_ms
        )

    @classmethod
    def chaos(cls, seed: int, fault_rate: float = 0.05) -> "FaultPlan":
        """The standard chaos mix used by ``.chaos`` and ``fuzz --chaos``:
        transient read errors at ``fault_rate``, latency spikes at half of
        it, and a small chance of a persistently corrupt index."""
        return cls(
            seed=seed,
            read_error_prob=fault_rate,
            latency_spike_prob=fault_rate / 2.0,
            corrupt_index_prob=min(0.02, fault_rate),
        )


@dataclass
class FaultStats:
    """What one injector actually did to one query."""

    transient_errors: int = 0
    retries_exhausted: int = 0
    latency_spikes: int = 0
    spike_ms: float = 0.0
    backoff_ms: float = 0.0
    corrupt_indexes: list[str] = field(default_factory=list)


class FaultInjector:
    """Per-query realization of a :class:`FaultPlan`.

    Thread-safe: every RNG draw and counter update happens under one
    lock.  One query draws on one thread, so its fault sequence is
    determined by the plan's seed; faults only delay or fail reads,
    never corrupt data.
    """

    def __init__(self, plan: FaultPlan, tracer: Tracer = NULL_TRACER) -> None:
        self.plan = plan
        self.tracer = tracer
        self.stats = FaultStats()
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._corrupt: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Page reads (called by BufferPool under its latch)
    # ------------------------------------------------------------------

    def read_fails(self, page_id: int, attempt: int) -> bool:
        """Draw whether this read attempt fails transiently (and trace)."""
        if self.plan.read_error_prob <= 0.0:
            return False
        with self._lock:
            failed = self._rng.random() < self.plan.read_error_prob
            if failed:
                self.stats.transient_errors += 1
        if failed and self.tracer.enabled:
            self.tracer.event(
                "fault", "transient-read", page=page_id, attempt=attempt
            )
        return failed

    def backoff(self, page_id: int, attempt: int) -> float:
        """Charge one capped-exponential, jittered retry backoff (ms)."""
        with self._lock:
            wait = capped_backoff_ms(
                attempt,
                self.plan.backoff_base_ms,
                self.plan.backoff_cap_ms,
                rng=self._rng,
            )
            self.stats.backoff_ms += wait
        if self.tracer.enabled:
            self.tracer.event(
                "fault", "retry", page=page_id, attempt=attempt, backoff_ms=wait
            )
        return wait

    def exhausted(self, page_id: int, attempts: int) -> None:
        """Record that retries ran out for a page (fault becomes typed)."""
        with self._lock:
            self.stats.retries_exhausted += 1
        if self.tracer.enabled:
            self.tracer.event(
                "fault", "retries-exhausted", page=page_id, attempts=attempts
            )

    def latency_spike(self, page_id: int) -> float:
        """Simulated extra milliseconds for this disk read (usually 0)."""
        if self.plan.latency_spike_prob <= 0.0:
            return 0.0
        with self._lock:
            if self._rng.random() >= self.plan.latency_spike_prob:
                return 0.0
            spike = self.plan.spike_ms
            self.stats.latency_spikes += 1
            self.stats.spike_ms += spike
        if self.tracer.enabled:
            self.tracer.event(
                "fault", "latency-spike", page=page_id, spike_ms=spike
            )
        return spike

    # ------------------------------------------------------------------
    # Index corruption (called by IndexRuntime)
    # ------------------------------------------------------------------

    def index_corrupted(self, name: str) -> bool:
        """Whether this index is corrupt — decided once, then sticky."""
        if self.plan.corrupt_index_prob <= 0.0:
            return False
        with self._lock:
            decided = self._corrupt.get(name)
            if decided is None:
                decided = self._rng.random() < self.plan.corrupt_index_prob
                self._corrupt[name] = decided
                if decided:
                    self.stats.corrupt_indexes.append(name)
        if decided and self.tracer.enabled:
            self.tracer.event("fault", "index-corruption", index=name)
        return decided


__all__ = [
    "CrashPlan",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "SimulatedCrash",
    "capped_backoff_ms",
]
