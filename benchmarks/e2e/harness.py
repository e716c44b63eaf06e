"""Speed calibration, slice bracketing and latency statistics.

The sandbox's raw speed drifts, and neighbours slow it in bursts of tens
to hundreds of milliseconds: the same statement mix measured 14 % apart
(quartile to quartile) between back-to-back 5 s runs.  Every time this
benchmark reports is therefore *speed-normalised*: a fixed reference
kernel runs once between slices of at most ``SLICE_SECONDS`` of work,
and each statement's latency is scaled by ``REF_CALIB_MS / mean(the two
kernel samples bracketing its slice)``.  Units stay ms / s / stmts/s and
read "at reference speed".

The kernel chases references through a table of small dicts and builds
result dicts — memory-bound, like the engine it stands in for.  (A
cache-resident arithmetic loop did not slow down when the queries did.)
Samples are single runs, not minima: a sample taken inside a burst must
show the burst.  Sized on the sandbox: one sample per 0.1 s costs under
2 % and brought the spread between 7 s runs from 5.4 % to 2.1 %.

FROZEN: ``ref_kernel``, its table and ``REF_CALIB_MS`` define the unit
of every time metric.  Changing any of them re-bases every number ever
recorded, so they are never to be edited.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time

REF_CALIB_MS = 1.6
SLICE_SECONDS = 0.1

_TABLE_ROWS = 20_000
_KERNEL_STEPS = 12_000


def _build_table() -> list[dict]:
    rng = random.Random(7)
    return [
        {"name": f"n{i}", "age": i % 60, "ref": rng.randrange(_TABLE_ROWS)}
        for i in range(_TABLE_ROWS)
    ]


_TABLE = _build_table()


def ref_kernel() -> int:
    """Follow 12 000 references through the table, keeping the over-30s."""
    table = _TABLE
    out = []
    i = 1
    for _ in range(_KERNEL_STEPS):
        row = table[i]
        if row["age"] > 30:
            out.append({"n": row["name"], "a": row["age"]})
        i = row["ref"]
    return len(out)


def calibrate() -> float:
    """One calibration sample: a single kernel run, in ms.

    The collector is paused for the run: the kernel allocates, and a full
    collection over the database's heap landing inside a 2 ms sample
    would say nothing about the machine's speed.  (The workload itself
    always runs with GC on.)
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        ref_kernel()
        return (time.perf_counter() - started) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Calibration samples and the scale each slice's raw times get.

    ``open`` takes the sample before a stretch of work, ``close`` the one
    after it and fixes the slice's scale; the closing sample of one slice
    doubles as the opening sample of the next.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.scales: list[float] = []

    def open(self) -> None:
        self.samples.append(calibrate())

    def close(self) -> int:
        """End the current slice; returns its index into ``scales``."""
        self.samples.append(calibrate())
        before, after = self.samples[-2:]
        self.scales.append(REF_CALIB_MS / ((before + after) / 2.0))
        return len(self.scales) - 1

    def timed(self, work) -> tuple[float, object]:
        """Run ``work()`` as a slice of its own; normalised seconds + result."""
        self.open()
        started = time.perf_counter()
        result = work()
        raw = time.perf_counter() - started
        return raw * self.scales[self.close()], result

    def diagnostics(self) -> dict[str, float]:
        median = statistics.median(self.samples)
        return {
            "harness.calib_ms": median,
            "harness.calib_spread": (max(self.samples) - min(self.samples))
            / median,
        }


class Samples:
    """Per-statement latencies of one pass, raw, tagged by class and slice."""

    def __init__(self) -> None:
        self.classes: list[str] = []
        self.raw: list[float] = []
        self.slices: list[int] = []
        # (slice, busy wall-clock): for an embedded caller the sum of the
        # slice's latencies, for concurrent connections first start to
        # last end.
        self.slice_wall: list[tuple[int, float]] = []

    def add(self, cls: str, raw_seconds: float, slice_index: int) -> None:
        self.classes.append(cls)
        self.raw.append(raw_seconds)
        self.slices.append(slice_index)

    def __len__(self) -> int:
        return len(self.raw)

    def normalised_ms(self, scales: list[float]) -> list[float]:
        return [
            raw * scales[index] * 1000.0
            for raw, index in zip(self.raw, self.slices)
        ]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]


TRIM = 0.05


def class_typical(classes: list[str], values: list[float]) -> dict[str, float]:
    """Per statement class: the mean latency with the slowest 5 % dropped.

    Not the median: a class whose statements take one of two paths (an
    ``UPDATE`` that does or does not find its index current runs 0.5 or
    1.3 ms) has a median that jumps from one mode to the other with the
    seed — 50 % between runs — while its trimmed mean moved 1 %.
    """
    by_class: dict[str, list[float]] = {}
    for cls, value in zip(classes, values):
        by_class.setdefault(cls, []).append(value)
    typical = {}
    for cls, vals in by_class.items():
        vals.sort()
        kept = vals[: len(vals) - int(len(vals) * TRIM)]
        typical[cls] = sum(kept) / len(kept)
    return typical


def typ(typical: dict[str, float], classes=None) -> float:
    """Class-balanced typical latency: the mean over statement classes.

    Every class counts once whatever its share of the mix, so the value
    cannot drift with which class happens to sit at a pooled midpoint.
    """
    chosen = [
        value
        for cls, value in typical.items()
        if classes is None or cls in classes
    ]
    return statistics.mean(chosen) if chosen else 0.0


def latency_summary(samples: Samples, scales: list[float]) -> dict:
    """The end-to-end latency numbers of one untraced pass."""
    values = samples.normalised_ms(scales)
    busy = sum(wall * scales[index] for index, wall in samples.slice_wall)
    ordered = sorted(values)
    typical = class_typical(samples.classes, values)
    return {
        "statements": len(values),
        "stmt_ms_mean": sum(values) / len(values),
        "stmt_ms_typ": typ(typical),
        "stmts_per_s": len(values) / busy,
        "class_ms": typical,
        "p95": percentile(ordered, 0.95),
        "p99": percentile(ordered, 0.99),
        "raw_stmt_ms_mean": sum(samples.raw) / len(samples.raw) * 1000.0,
    }
