"""LRU buffer pool over the disk simulator.

Of the paper workstation's 32 MB we model an 8 MB buffer pool (2,048 pages
of 4 KB) — the rest is workspace for hash tables and sorts.  The buffer
pool is what makes bounded assembly cheap: when the target collection's
page count is below the pool size, re-fetches of already-resident pages
are free, so assembling 50,000 department components costs at most ~100
page reads (the whole Department extent).

The pool is thread-safe: threads that share a database (the MVCC tests,
embedding applications) run their queries against one shared pool, so
frame replacement and the hit/miss counters are guarded by one
reentrant latch, and the attribution scopes and the fault-injector slot
are per thread.  The server's sessions share one loop thread; what
keeps them apart is that their statements run one at a time and the
executor's ``finally`` unwinds the injector and the scopes.

**The repeat lemma.**  A request for the page that is already the most
recently requested frame changes nothing but the hit counters: it is
resident (capacity >= 1), ``move_to_end`` is a no-op, nothing is evicted
or read.  So the pool keeps that page in ``last_page``, and scans and
reference sweeps count such repeats themselves and settle the total with
:meth:`BufferPool.rehit`: one call per page run.  The marker is shared by
all threads: another session's request ends the streak, and a streak that
held is the legal schedule in which this thread's requests ran back to back.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import StorageFaultError
from repro.storage.disk import DiskSimulator

if TYPE_CHECKING:
    from repro.governor.faults import FaultInjector

DEFAULT_POOL_PAGES = 2048  # 8 MB of 4 KB pages


@dataclass
class BufferStats:
    """Global page-request counters (mutated under the pool latch)."""

    hits: int = 0
    misses: int = 0
    spill_reads: int = 0
    spill_writes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served without disk I/O."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _ScopeStacks(threading.local):
    """Each thread's own I/O scope stack (``__init__`` runs per thread)."""

    def __init__(self) -> None:
        self.stack: list = []


@dataclass
class BufferPool:
    """A page-granularity LRU cache in front of the disk simulator.

    Besides the global hit/miss counters, the pool keeps a stack of
    *I/O scopes*: while a scope is pushed, every page request is also
    attributed to the top scope's counters.  The executor pushes one
    scope per plan operator around each ``next()`` call, which is how
    EXPLAIN ANALYZE attributes buffer traffic to the operator whose code
    issued it (exclusive attribution — parents are not charged for their
    children's reads).  Scope stacks are *per thread*: each thread
    attributes its reads to its own query's collector.
    """

    disk: DiskSimulator
    capacity: int = DEFAULT_POOL_PAGES
    stats: BufferStats = field(default_factory=BufferStats)
    _frames: OrderedDict[int, None] = field(default_factory=OrderedDict)
    #: Page of the most recent request (spill traffic aside); None once flushed.
    last_page: int | None = field(default=None, init=False, repr=False)
    # Per-thread stacks of objects with `hits`/`misses` attributes
    # (duck-typed so the storage layer needs no dependency on repro.obs).
    _io_scopes: _ScopeStacks = field(default_factory=_ScopeStacks, repr=False)
    # Per-thread fault injector (see repro.governor.faults); installed
    # by the executor for the duration of one execution, None otherwise.
    # Thread-locality keeps one thread's governed query from firing
    # its injector in another thread's reads.
    _fault_local: threading.local = field(
        default_factory=threading.local, repr=False
    )
    _latch: threading.RLock = field(
        default_factory=threading.RLock, repr=False
    )

    @property
    def faults(self) -> "FaultInjector | None":
        """The calling thread's installed fault injector (None = off)."""
        return getattr(self._fault_local, "injector", None)

    @faults.setter
    def faults(self, injector: "FaultInjector | None") -> None:
        self._fault_local.injector = injector

    def read_page(self, page_id: int) -> float:
        """Bring a page in; returns simulated ms spent (0 on a hit).
        Called per page run, probe and fetched object: keep the hit path
        short, and an ungoverned miss one call to the disk."""
        scopes, frames = self._io_scopes.stack, self._frames
        with self._latch:
            if page_id in frames:
                frames.move_to_end(page_id)
                self.last_page = page_id
                self.stats.hits += 1
                if scopes:
                    scopes[-1].hits += 1
                return 0.0
            self.stats.misses += 1
            if scopes:
                scopes[-1].misses += 1
            faults = getattr(self._fault_local, "injector", None)
            if faults is None:
                cost = self.disk.read(page_id)
            else:
                cost = self._disk_read(page_id, faults)
            frames[page_id] = None
            self.last_page = page_id
            if len(frames) > self.capacity:
                frames.popitem(last=False)
        return cost

    def rehit(self, page_id: int, count: int, scope) -> None:
        """Credit ``count`` repeats of ``last_page`` (hits, by the lemma) to
        ``scope``: the one the real request for ``page_id`` ran under, or None."""
        with self._latch:
            self.stats.hits += count
            if scope is not None:
                scope.hits += count

    def _disk_read(self, page_id: int, faults: "FaultInjector | None") -> float:
        """One disk read under the calling thread's injector ``faults``.

        Transient injected failures are retried with capped exponential
        backoff (seeded jitter; the simulated wait is charged to the
        disk clock, and each retry is traced by the injector).  When the
        retries run out the fault becomes the typed
        :class:`~repro.errors.StorageFaultError` — the bottom rung of
        the degradation ladder.  The disk is always reached through
        ``self.disk.read``, which tests wrap on the instance.
        """
        if faults is None:
            return self.disk.read(page_id)
        attempt = 1
        while faults.read_fails(page_id, attempt):
            if attempt > faults.plan.max_retries:
                faults.exhausted(page_id, attempt)
                raise StorageFaultError(
                    f"page {page_id} unreadable after {attempt} attempts"
                )
            self.disk.stats.elapsed_ms += faults.backoff(page_id, attempt)
            attempt += 1
        cost = self.disk.read(page_id)
        spike = faults.latency_spike(page_id)
        if spike > 0.0:
            self.disk.stats.elapsed_ms += spike
            cost += spike
        return cost

    # ------------------------------------------------------------------
    # Spill traffic (temp pages bypass the frames: they are written once
    # and read back once, so caching them would only evict real data and
    # hide the spill I/O the accounting exists to show)
    # ------------------------------------------------------------------

    def spill_write(self, page_id: int) -> float:
        """Write one spill page straight to disk; returns simulated ms."""
        scopes = self._io_scopes.stack
        with self._latch:
            self.stats.spill_writes += 1
            if scopes:
                top = scopes[-1]
                top.spill_writes = getattr(top, "spill_writes", 0) + 1
            cost = self.disk.write(page_id)
        return cost

    def spill_read(self, page_id: int) -> float:
        """Read one spill page back (fault injection applies like any
        other disk read); returns simulated ms."""
        scopes = self._io_scopes.stack
        with self._latch:
            self.stats.spill_reads += 1
            if scopes:
                top = scopes[-1]
                top.spill_reads = getattr(top, "spill_reads", 0) + 1
            cost = self._disk_read(page_id, self.faults)
        return cost

    def contains(self, page_id: int) -> bool:
        """Whether the page is currently resident."""
        with self._latch:
            return page_id in self._frames

    def push_io_scope(self, scope) -> None:
        """Attribute this thread's page requests to ``scope``."""
        self._io_scopes.stack.append(scope)

    def pop_io_scope(self) -> None:
        """Stop attributing to this thread's most recently pushed scope."""
        self._io_scopes.stack.pop()

    @property
    def io_scope(self):
        """The scope the calling thread's requests are attributed to, or None."""
        stack = self._io_scopes.stack
        return stack[-1] if stack else None

    @property
    def io_scope_depth(self) -> int:
        """How many I/O scopes the calling thread has pushed (0 = none)."""
        return len(self._io_scopes.stack)

    def clear_io_scopes(self) -> int:
        """Drop every scope the calling thread still has pushed.

        Defensive unwinding for the executor's ``finally``: scopes are
        normally popped by the instrumented iterators' own ``finally``
        blocks, but a query abandoned mid-raise must never leak
        attribution state into the next query on this thread.  Returns
        how many scopes were actually dropped (0 on the healthy path).
        """
        stack = self._io_scopes.stack
        dropped = len(stack)
        stack.clear()
        return dropped

    def flush(self, reset_stats: bool = False) -> None:
        """Empty the pool (between benchmark runs, for cold-cache numbers).

        ``flush()`` alone only drops the *frames*; the hit/miss counters
        survive, so a "cold" rerun measured right after a warm one would
        still report the warm run's hits.  Pass ``reset_stats=True`` to
        also zero the counters (what cold-run accounting wants).
        """
        with self._latch:
            self._frames.clear()
            self.last_page = None
            if reset_stats:
                self.stats = BufferStats()

    def reset_stats(self) -> None:
        """Zero the global hit/miss counters."""
        with self._latch:
            self.stats = BufferStats()

    def stats_snapshot(self) -> BufferStats:
        """A consistent copy of the counters (for before/after deltas)."""
        with self._latch:
            stats = self.stats
            return BufferStats(
                stats.hits, stats.misses, stats.spill_reads, stats.spill_writes
            )

    @property
    def resident_pages(self) -> int:
        """Number of pages currently held in frames."""
        with self._latch:
            return len(self._frames)


__all__ = ["BufferPool", "BufferStats", "DEFAULT_POOL_PAGES"]
