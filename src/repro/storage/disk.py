"""Disk simulator with a distance-based seek model.

The cost discussion in the paper depends on three facts about disks:

1. sequential page reads are much cheaper than random ones;
2. seek time grows with seek *distance*, so sorting outstanding fetches
   into elevator order (what the assembly operator does with its window of
   open references) reduces per-fetch cost;
3. a page already in the buffer pool costs nothing.

We model (1) and (2) directly: a read of page ``p`` when the head is at
page ``h`` costs ``transfer`` if ``p`` is the current or next page, and
``transfer + rotational + full_stroke * sqrt(|p-h| / span)`` otherwise —
the classic square-root seek-time curve.  (3) is the buffer pool's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DiskParameters:
    """Timing constants, in milliseconds.

    Defaults are calibrated so that a random page read costs about 12 ms
    and a sequential one 2 ms — the regime the paper's anticipated times
    imply (e.g. assembling 10,000 mayors at ~12 ms each gives the ~120 s
    of Query 2's naive plan).
    """

    transfer_ms: float = 2.0
    rotational_ms: float = 2.0
    full_stroke_seek_ms: float = 12.0

    @property
    def sequential_read_ms(self) -> float:
        return self.transfer_ms

    def random_read_ms(self, span_pages: int, distance: int | None = None) -> float:
        """Expected cost of a read at a given (or average) seek distance."""
        if span_pages <= 0:
            span_pages = 1
        if distance is None:
            # E[sqrt(U)] for U uniform on (0, 1] is 2/3.
            seek = self.full_stroke_seek_ms * (2.0 / 3.0)
        else:
            fraction = min(1.0, max(0.0, distance / span_pages))
            seek = self.full_stroke_seek_ms * math.sqrt(fraction)
        return self.transfer_ms + self.rotational_ms + seek


@dataclass
class DiskStats:
    """Accumulated accounting of a simulation run."""

    page_reads: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    page_writes: int = 0
    elapsed_ms: float = 0.0

    def snapshot(self) -> "DiskStats":
        """An independent copy of the counters (for before/after diffs)."""
        return DiskStats(
            self.page_reads,
            self.sequential_reads,
            self.random_reads,
            self.page_writes,
            self.elapsed_ms,
        )


@dataclass
class DiskSimulator:
    """Tracks head position and accumulates simulated service time.

    ``span_pages`` is the total number of allocated pages (at least 1); it
    grows as the store allocates segments and bounds the seek-distance
    fraction.
    """

    params: DiskParameters = field(default_factory=DiskParameters)
    span_pages: int = 1
    _head: int = 0
    stats: DiskStats = field(default_factory=DiskStats)

    def extend_span(self, pages: int) -> None:
        self.span_pages = max(self.span_pages, pages)

    def read(self, page_id: int) -> float:
        """Simulate reading one page; returns the service time in ms.

        Every buffer miss lands here, so its costs are written out in place:
        ``transfer_ms`` is ``sequential_read_ms``, and the seek curve is
        :meth:`DiskParameters.random_read_ms` in the same float operations
        (``distance >= 2``, ``span_pages >= 1``: only the upper clamp applies).
        """
        distance = abs(page_id - self._head)
        if distance <= 1:
            cost = self.params.transfer_ms
            self.stats.sequential_reads += 1
        else:
            params, fraction = self.params, distance / self.span_pages
            if fraction > 1.0:
                fraction = 1.0
            cost = (
                params.transfer_ms + params.rotational_ms
                + params.full_stroke_seek_ms * math.sqrt(fraction)
            )
            self.stats.random_reads += 1
        self._head = page_id
        self.stats.page_reads += 1
        self.stats.elapsed_ms += cost
        return cost

    def write(self, page_id: int) -> float:
        """Simulate writing one page (spill output); same seek curve as
        reads — the head still has to get there."""
        distance = abs(page_id - self._head)
        if distance <= 1:
            cost = self.params.sequential_read_ms
        else:
            cost = self.params.random_read_ms(self.span_pages, distance)
        self._head = page_id
        self.stats.page_writes += 1
        self.stats.elapsed_ms += cost
        return cost

    def reset_stats(self) -> None:
        self.stats = DiskStats()

    @property
    def elapsed_seconds(self) -> float:
        return self.stats.elapsed_ms / 1000.0


__all__ = ["DiskParameters", "DiskSimulator", "DiskStats"]
