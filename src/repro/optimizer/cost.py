"""The cost model: an abstract data type plus per-algorithm formulas.

Following the paper, the model is "very traditional": CPU and I/O costs,
charging less for sequential than for random I/O, with assembly's I/O cost
capturing minimized seek distances by charging less than a random I/O per
windowed fetch.  Cost is encapsulated as an ADT so that "tuning an
algorithm's cost formula is a very localized change".

Two structural features drive the paper's headline results and are
modelled explicitly:

* **bounded vs. unbounded assembly** — when the target type's population
  is known (it has an extent with statistics), the buffer pool bounds
  distinct page faults by a Cardenas/Yao estimate; when it is unknown
  (``Plant``), every fetch is charged as a page fault;
* **the assembly window** — a window of W open references sorted into
  elevator order divides the seek component of a random fetch by
  ``sqrt(W)``; W = 1 degenerates to naive pointer chasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.storage.buffer import DEFAULT_POOL_PAGES
from repro.storage.disk import DiskParameters


@dataclass(frozen=True, slots=True)
class Cost:
    """Estimated cost in seconds, split into I/O and CPU components.

    Ordering compares total seconds (the optimizer's objective).
    """

    io_seconds: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def total(self) -> float:
        return self.io_seconds + self.cpu_seconds

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(
            self.io_seconds + other.io_seconds,
            self.cpu_seconds + other.cpu_seconds,
        )

    def __lt__(self, other: "Cost") -> bool:
        return self.total < other.total

    def __le__(self, other: "Cost") -> bool:
        return self.total <= other.total

    def __gt__(self, other: "Cost") -> bool:
        return self.total > other.total

    def __ge__(self, other: "Cost") -> bool:
        return self.total >= other.total

    @staticmethod
    def zero() -> "Cost":
        return Cost(0.0, 0.0)

    @staticmethod
    def infinite() -> "Cost":
        return Cost(math.inf, 0.0)

    def __str__(self) -> str:
        return f"{self.total:.3f}s (io {self.io_seconds:.3f}, cpu {self.cpu_seconds:.3f})"


@dataclass(frozen=True)
class CostParams:
    """All tunable constants of the model.

    CPU constants emulate the paper's 25 MHz workstation era so that
    anticipated times land on the same scale as the paper's; see
    EXPERIMENTS.md for the calibration notes.
    """

    disk: DiskParameters = field(default_factory=DiskParameters)
    page_size: int = 4096
    # Of the paper machine's 32 MB, we model an 8 MB buffer pool for data
    # pages and 16 MB of workspace for hash tables and sorts.
    buffer_pages: int = DEFAULT_POOL_PAGES
    work_mem_bytes: int = 16 * 1024 * 1024
    cpu_tuple_ms: float = 0.05  # per-tuple predicate/copy/projection work
    cpu_hash_ms: float = 0.10  # per-tuple hash build or probe
    cpu_sort_factor_ms: float = 0.02  # per comparison in sorts (n log n)
    assembly_window: int = 8  # open references in the elevator window
    tuple_overhead_bytes: int = 16


def yao_distinct_pages(fetches: float, pages: int) -> float:
    """Expected distinct pages touched by `fetches` uniform random picks.

    The Cardenas approximation, P * (1 - (1 - 1/P)^n), clamped to never
    exceed the fetch count itself — estimated (fractional) cardinalities
    below one would otherwise round up to a whole page fault and make a
    statistics-assisted estimate *worse* than the pessimistic one.
    """
    if pages <= 0:
        return 0.0
    if fetches <= 0:
        return 0.0
    return min(fetches, pages * (1.0 - (1.0 - 1.0 / pages) ** fetches))


class CostModel:
    """Per-algorithm cost formulas over the shared constants."""

    def __init__(self, params: CostParams | None = None) -> None:
        self.params = params or CostParams()

    # -- primitive I/O prices -------------------------------------------

    @property
    def seq_page_s(self) -> float:
        return self.params.disk.sequential_read_ms / 1000.0

    @property
    def random_page_s(self) -> float:
        return self.params.disk.random_read_ms(span_pages=10**9) / 1000.0

    def windowed_fetch_s(self, window: int) -> float:
        """Cost of one fetch in an elevator window of `window` references.

        The transfer and rotational components are irreducible; sorting W
        outstanding references divides the expected seek distance, and the
        square-root seek curve turns that into a 1/sqrt(W) discount.
        """
        window = max(1, window)
        disk = self.params.disk
        seek = disk.full_stroke_seek_ms * (2.0 / 3.0) / math.sqrt(window)
        return (disk.transfer_ms + disk.rotational_ms + seek) / 1000.0

    # -- scans ------------------------------------------------------------

    def file_scan(self, pages: int, cardinality: float) -> Cost:
        """Sequential scan: pages at the streaming rate + per-tuple CPU."""
        return Cost(
            io_seconds=pages * self.seq_page_s,
            cpu_seconds=cardinality * self.params.cpu_tuple_ms / 1000.0,
        )

    def index_scan(
        self,
        matches: float,
        index_height: int,
        index_leaf_pages: float,
        target_pages: int,
    ) -> Cost:
        """Probe an index, then fetch the qualifying objects.

        Matches are fetched with random I/O, but the buffer pool bounds
        faults by the (Yao-estimated) distinct pages of the packed target
        collection.
        """
        traversal = index_height + max(1.0, index_leaf_pages)
        fetch_pages = min(matches, yao_distinct_pages(matches, target_pages))
        io = traversal * self.random_page_s + fetch_pages * self.random_page_s
        cpu = matches * self.params.cpu_tuple_ms / 1000.0
        return Cost(io_seconds=io, cpu_seconds=cpu)

    # -- reference resolution ---------------------------------------------

    def assembly(
        self,
        refs: float,
        target_pages: int | None,
        window: int | None = None,
        sparse_target: bool = False,
    ) -> Cost:
        """Resolve `refs` references with a window of open references.

        ``target_pages`` is the page count of the target population when
        the optimizer can know it (the type has an extent or named set with
        statistics); ``None`` reproduces the paper's pessimistic estimate —
        one page fault per reference — for types like ``Plant`` whose
        cardinality the catalog does not track.  ``sparse_target`` marks
        targets that are not densely packed, where page sharing cannot
        reduce faults below the number of distinct objects.
        """
        window = self.params.assembly_window if window is None else max(1, window)
        per_fetch = self.windowed_fetch_s(window)
        if target_pages is not None and target_pages <= self.params.buffer_pages:
            # The optimizer "can place an upper bound on the number of I/O
            # operations": the whole packed target stays buffered, so
            # faults are bounded by the distinct pages touched.
            faults = yao_distinct_pages(refs, target_pages)
        else:
            # Unknown population (no extent statistics) or a target larger
            # than the pool: the paper's pessimistic one-fault-per-reference
            # estimate ("50,000 page faults may result").
            faults = refs
        io = faults * per_fetch
        cpu = refs * self.params.cpu_tuple_ms / 1000.0
        return Cost(io_seconds=io, cpu_seconds=cpu)

    def pointer_join(self, refs: float, target_pages: int) -> Cost:
        """Shekita/Carey-style partitioned pointer join.

        Collects and sorts all references by page, then sweeps the target
        segment once in physical order — cheap sequential-ish fetches, paid
        for with a blocking sort and memory for the reference table.
        """
        pages = yao_distinct_pages(refs, target_pages)
        sweep_fetch = (
            self.params.disk.transfer_ms + self.params.disk.rotational_ms
        ) / 1000.0
        io = pages * sweep_fetch
        comparisons = refs * max(1.0, math.log2(max(2.0, refs)))
        cpu = (
            comparisons * self.params.cpu_sort_factor_ms
            + refs * self.params.cpu_tuple_ms
        ) / 1000.0
        return Cost(io_seconds=io, cpu_seconds=cpu)

    def warm_start_assembly(self, refs: float, target_pages: int) -> Cost:
        """Lesson 7's suggestion: pre-scan the scannable target, then
        resolve references from memory."""
        io = target_pages * self.seq_page_s
        cpu = refs * self.params.cpu_tuple_ms / 1000.0
        return Cost(io_seconds=io, cpu_seconds=cpu)

    # -- matching ----------------------------------------------------------

    def hybrid_hash_join(
        self,
        build_rows: float,
        probe_rows: float,
        build_bytes: float,
    ) -> Cost:
        """Build on the left input, probe with the right.

        Building costs more per tuple than probing (insertion plus memory
        management), so of two symmetric orders the optimizer prefers the
        smaller build side, as the paper's plans do.  When the build side
        fits in workspace memory there is no I/O beyond the inputs' own;
        otherwise partitions spill and are re-read.
        """
        cpu = (1.5 * build_rows + probe_rows) * self.params.cpu_hash_ms / 1000.0
        io = 0.0
        if build_bytes > self.params.work_mem_bytes:
            spill_fraction = 1.0 - self.params.work_mem_bytes / build_bytes
            build_pages = build_bytes / self.params.page_size
            io = 2.0 * spill_fraction * build_pages * self.seq_page_s
        return Cost(io_seconds=io, cpu_seconds=cpu)

    def merge_join(self, left_rows: float, right_rows: float) -> Cost:
        """Merge two streams already sorted on the join key."""
        cpu = (left_rows + right_rows) * self.params.cpu_tuple_ms / 1000.0
        return Cost(cpu_seconds=cpu)

    def sort(self, rows: float, row_bytes: float) -> Cost:
        """In-memory (or externally merged) sort as an order enforcer."""
        comparisons = rows * max(1.0, math.log2(max(2.0, rows)))
        cpu = comparisons * self.params.cpu_sort_factor_ms / 1000.0
        io = 0.0
        total_bytes = rows * max(1.0, row_bytes)
        if total_bytes > self.params.work_mem_bytes:
            spill_fraction = 1.0 - self.params.work_mem_bytes / total_bytes
            pages = total_bytes / self.params.page_size
            io = 2.0 * spill_fraction * pages * self.seq_page_s
        return Cost(io_seconds=io, cpu_seconds=cpu)

    def nested_loops_join(self, outer_rows: float, inner_rows: float) -> Cost:
        comparisons = outer_rows * inner_rows
        return Cost(cpu_seconds=comparisons * self.params.cpu_tuple_ms / 1000.0)

    def hash_group_by(
        self, input_rows: float, groups: float, sorted_output: bool
    ) -> Cost:
        """Hash aggregation: one hash probe per row, plus an optional sort
        of the emitted groups."""
        cpu = input_rows * self.params.cpu_hash_ms / 1000.0
        cpu += groups * self.params.cpu_tuple_ms / 1000.0
        if sorted_output and groups > 1:
            comparisons = groups * math.log2(max(2.0, groups))
            cpu += comparisons * self.params.cpu_sort_factor_ms / 1000.0
        return Cost(cpu_seconds=cpu)

    def hash_set_op(self, left_rows: float, right_rows: float) -> Cost:
        """Hash-based union/intersect/difference: per-tuple hash work."""
        return Cost(
            cpu_seconds=(left_rows + right_rows) * self.params.cpu_hash_ms / 1000.0
        )

    # -- tuple-at-a-time operators ----------------------------------------

    def filter(self, rows: float, conjuncts: int = 1) -> Cost:
        work = rows * max(1, conjuncts) * self.params.cpu_tuple_ms / 1000.0
        return Cost(cpu_seconds=work)

    def unnest(self, output_rows: float) -> Cost:
        return Cost(cpu_seconds=output_rows * self.params.cpu_tuple_ms / 1000.0)

    def project(self, rows: float, distinct: bool = False) -> Cost:
        """Projection CPU; DISTINCT adds a hash-probe per tuple."""
        per_tuple = self.params.cpu_tuple_ms + (
            self.params.cpu_hash_ms if distinct else 0.0
        )
        return Cost(cpu_seconds=rows * per_tuple / 1000.0)


__all__ = ["Cost", "CostModel", "CostParams", "yao_distinct_pages"]
