"""The simulated object store: segments, pages, fetches, and scans.

Layout model
------------

Each object type owns one *segment* — a contiguous range of page ids.
Within a dense segment, objects are packed ``page_size // object_size`` to
a page in insertion order; this realises the paper's "objects in
user-defined sets and type extents are assumed to be densely packed on
pages" (data generation inserts named-set members first so a named set is
a dense prefix of its type's segment).  A sparse segment places one object
per page, modelling types like ``Plant`` whose instances are clustered
with unrelated data — fetching each plant is a fresh page fault.

All reads are charged through the buffer pool, so the store yields both
result data and faithful simulated I/O time: one page request per
*object* read, hits included, in reading order.  The pool is *called*
once per page run (see :meth:`ObjectStore._scan_members`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Any, Iterator

from repro.catalog.catalog import Catalog
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskSimulator
from repro.storage.index import IndexRegistry
from repro.storage.mvcc import SnapshotView, Transaction, TransactionManager
from repro.storage.objects import Obj, Oid


@dataclass
class Segment:
    """A contiguous page range holding all objects of one type."""

    type_name: str
    dense: bool
    objects_per_page: int
    first_page: int = -1  # assigned when the store is sealed
    oids: list[Oid] = field(default_factory=list)

    @property
    def page_count(self) -> int:
        """Pages this segment occupies (>= 1 once sealed non-empty)."""
        if not self.oids:
            return 0
        return -(-len(self.oids) // self.objects_per_page)


class ObjectStore:
    """Typed object storage over the simulated disk.

    Usage: create segments, insert objects, register named collections,
    then :meth:`seal` to assign page ranges.  The sealed load is commit 0:
    later writes go through :attr:`mvcc` (versions, membership events,
    overflow pages) and never touch the base records or their layout.
    Every fetch/scan is charged through the buffer pool.
    """

    def __init__(
        self,
        catalog: Catalog,
        disk: DiskSimulator | None = None,
        buffer_pool: BufferPool | None = None,
    ) -> None:
        self.catalog = catalog
        self.disk = disk or DiskSimulator()
        self.buffer = buffer_pool or BufferPool(self.disk)
        self._segments: dict[str, Segment] = {}
        self._data: dict[Oid, dict[str, Any]] = {}
        #: type -> (first page, objects per page, base object count),
        #: fixed at seal(): a base object's page is arithmetic on its
        #: serial (its insertion position), never a per-object lookup.
        self._layout: dict[str, tuple[int, int, int]] = {}
        #: Pages the base segments span, fixed at seal() with the layout:
        #: the indexes' page extents follow them.
        self._total_pages = 0
        self._collections: dict[str, list[Oid]] = {}
        #: collection -> (member list, page runs, base records or None) of
        #: the last list scanned, matched by identity: the base list and
        #: each commit's latest list (``mvcc.members_at``) are never
        #: mutated, nor is a base record replaced after the seal.
        self._runs: dict[str, tuple[list[Oid], list, list | None]] = {}
        self._sealed = False
        self._temp_lock = threading.Lock()
        self._temp_next: int | None = None
        #: MVCC write path.  ``mvcc.dirty`` stays False until the first
        #: commit, so read paths below keep their pre-DML fast paths.
        self.mvcc = TransactionManager(self)
        #: The maintained runtime indexes, one per catalog index that has
        #: been used (or created with measured keys); `mvcc` keeps them
        #: current at every commit.
        self.indexes = IndexRegistry(self)

    # ------------------------------------------------------------------
    # Loading phase
    # ------------------------------------------------------------------

    def create_segment(self, type_name: str, dense: bool = True) -> Segment:
        """Declare a type's segment (dense packing or one object/page)."""
        if self._sealed:
            raise StorageError("store is sealed")
        if type_name in self._segments:
            raise StorageError(f"segment for {type_name!r} already exists")
        type_def = self.catalog.type_of(type_name)
        per_page = (
            max(1, self.catalog.page_size // type_def.object_size) if dense else 1
        )
        segment = Segment(type_name, dense, per_page)
        self._segments[type_name] = segment
        return segment

    def insert(self, type_name: str, data: dict[str, Any]) -> Oid:
        """Append an object to its type's segment; returns its new OID."""
        if self._sealed:
            raise StorageError("store is sealed")
        if type_name not in self._segments:
            self.create_segment(type_name)
        segment = self._segments[type_name]
        oid = Oid(type_name, len(segment.oids))
        segment.oids.append(oid)
        self._data[oid] = data
        return oid

    def register_collection(self, name: str, oids: list[Oid]) -> None:
        """Declare the member list (and scan order) of a named collection."""
        self.catalog.collection(name)  # validate against the schema
        self._collections[name] = list(oids)
        self._runs.pop(name, None)

    def seal(self) -> None:
        """Assign contiguous page ranges and auto-register extents."""
        if self._sealed:
            return
        next_page = 0
        for type_name, segment in self._segments.items():
            segment.first_page = next_page
            self._layout[type_name] = (
                next_page, segment.objects_per_page, len(segment.oids)
            )
            next_page += max(1, segment.page_count)
        self._total_pages = next_page
        self.disk.extend_span(max(1, next_page))
        for type_name, segment in self._segments.items():
            extent = self.catalog.extent_of(type_name)
            if extent is not None and extent.name not in self._collections:
                self._collections[extent.name] = list(segment.oids)
        self._sealed = True

    # ------------------------------------------------------------------
    # Read phase (all I/O charged)
    # ------------------------------------------------------------------

    def page_of(self, oid: Oid) -> int:
        """Absolute page id of an object (segment slot or overflow page)."""
        layout = self._layout.get(oid.type_name)
        if layout is not None:
            first_page, per_page, base_count = layout
            serial = oid.serial
            if 0 <= serial < base_count:
                return first_page + serial // per_page
        page = self.mvcc.overflow_page(oid)  # minted after the seal
        if page is None:
            if layout is None:
                raise StorageError(f"no segment for type {oid.type_name!r}")
            raise StorageError(f"dangling reference {oid!r}")
        return page

    def fetch(self, oid: Oid) -> dict[str, Any]:
        """Read one object, charging a (possibly cached) page read.  Every
        index-scan row comes through here: a base record is read directly,
        only a written store (or a dangling reference) goes to `peek`."""
        if not self._sealed:
            self._require_sealed()
        data = None if self.mvcc.dirty else self._data.get(oid)
        if data is None:
            data = self.peek(oid)  # the latest version, or the dangling error
        self.buffer.read_page(self.page_of(oid))
        return data

    def peek(self, oid: Oid) -> dict[str, Any]:
        """Read object data without I/O accounting (index builds, checks).

        Latest-commit visibility once DML has run; callers that need a
        *pinned* snapshot read through :meth:`view` instead.
        """
        if self.mvcc.dirty:
            data = self.mvcc.reader(self.mvcc.current_csn)(oid)
            if data is None:
                raise StorageError(f"dangling reference {oid!r}")
            return data
        try:
            return self._data[oid]
        except KeyError:
            raise StorageError(f"dangling reference {oid!r}") from None

    def scan(self, collection_name: str, var: str) -> Iterator[dict[str, Obj]]:
        """Sequentially scan a collection at the latest commit, charged,
        binding each member to ``var``: one ``{var: Obj}`` row per member."""
        return self._scan_members(collection_name, *self._latest(collection_name), var)

    def _latest(self, collection_name: str):
        """(members, reader — None if never written) at the latest commit."""
        self._require_sealed()
        if not self.mvcc.dirty:
            return self.base_collection_oids(collection_name), None
        csn = self.mvcc.current_csn
        return self.mvcc.members_at(collection_name, csn), self.mvcc.reader(csn)

    def _page_runs(self, name: str, members: list[Oid], base: bool):
        """``(page, start, stop)`` per run of consecutive members on one page,
        and if ``base`` their base records; kept for the list's next scan."""
        cached = self._runs.get(name)
        if cached is None or cached[0] is not members or (base and cached[2] is None):
            runs, stop = [], 0
            for page, run in groupby(map(self.page_of, members)):
                start, stop = stop, stop + sum(1 for _ in run)
                runs.append((page, start, stop))
            records = list(map(self._data.__getitem__, members)) if base else None
            cached = self._runs[name] = (members, runs, records)
        return cached[1], cached[2]

    def _scan_members(
        self, name: str, members: list[Oid], read, var: str,
        share: tuple[int, int] | None = None,
    ) -> Iterator[dict[str, Obj]]:
        """The one charged scan loop, for the store and every view of it,
        and the scan operator itself: it yields the ``{var: Obj}`` rows.

        Pairs members with records by position: a view's ``read`` maps them
        lazily, a never-written store (no ``read``) lists its base records;
        a C ``map`` makes each pair an :class:`Obj`.
        Accounts one page request per *member*, in member order, hits
        included: a Volcano scan interleaves with the requests of the
        operators above it, so charging a page once up front would reorder
        the LRU and pre-pay for members an abandoned scan never reaches.
        But a request for the pool's ``last_page`` is a hit and nothing
        else (the repeat lemma, ``storage/buffer.py``), so only a run's
        first member, and one that finds another request got in between,
        calls the pool.  Repeats are counted here and settled — when the
        streak breaks, the run ends or the scan is closed — to the I/O
        scope the run began under.  ``share`` = ``(index, degree)``.
        """
        runs, records = self._page_runs(name, members, read is None)
        if share is not None:
            width = -(-len(runs) // max(1, share[1]))
            runs = runs[share[0] * width:(share[0] + 1) * width]
        pool = self.buffer
        read_page, rehit = pool.read_page, pool.rehit
        for page, start, stop in runs:
            read_page(page)
            scope, pending = pool.io_scope, 0
            oids = members[start:stop]
            pairs = zip(oids, records[start:stop] if read is None else map(read, oids))
            objs = map(tuple.__new__, repeat(Obj), pairs)
            try:
                yield {var: next(objs)}  # a run is never empty
                for obj in objs:
                    if pool.last_page == page:
                        pending += 1
                    else:
                        if pending:
                            rehit(page, pending, scope)
                            pending = 0
                        read_page(page)
                    yield {var: obj}
            finally:
                if pending:
                    rehit(page, pending, scope)

    # No operator calls this; the frozen benchmarks/e2e/tracing.py patches it
    # by name (here and on SnapshotView) — drop both at the next benchmark re-cut.
    def scan_partition(
        self, collection_name: str, partition: int, degree: int, var: str
    ) -> Iterator[dict[str, Obj]]:
        """Scan share ``partition`` of ``degree`` contiguous shares of the
        collection's page runs (a share past the last run yields nothing)."""
        return self._scan_members(
            collection_name, *self._latest(collection_name), var, (partition, degree)
        )

    def collection_oids(self, collection_name: str) -> list[Oid]:
        """Member OIDs of a loaded collection, in scan order.

        Latest-commit membership once DML has run; base membership (and
        the store's own list object) before.
        """
        if self.mvcc.dirty:
            return self.mvcc.members_at(collection_name, self.mvcc.current_csn)
        return self.base_collection_oids(collection_name)

    def base_collection_oids(self, collection_name: str) -> list[Oid]:
        """The sealed base member list, ignoring committed DML."""
        if collection_name not in self._collections:
            raise StorageError(f"collection {collection_name!r} not loaded")
        return self._collections[collection_name]

    def collection_names(self) -> list[str]:
        """Names of every loaded collection (extents included)."""
        return list(self._collections)

    def collection_cardinality(self, collection_name: str) -> int:
        return len(self.collection_oids(collection_name))

    def has_collection(self, collection_name: str) -> bool:
        return collection_name in self._collections

    # ------------------------------------------------------------------
    # MVCC surface
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open a transaction pinned at the current committed snapshot."""
        self._require_sealed()
        return self.mvcc.begin()

    def view(
        self, txn: Transaction | None = None, snapshot: int | None = None
    ) -> "ObjectStore | SnapshotView":
        """A read view pinned at a snapshot CSN.

        Defaults to the transaction's snapshot (with its writes overlaid)
        or, with no transaction, the current committed CSN.  Returns the
        store itself while no commit has ever happened — the zero-cost
        path that keeps read-only workloads byte-identical to the
        pre-MVCC engine.
        """
        if snapshot is None:
            snapshot = txn.snapshot if txn is not None else self.mvcc.current_csn
        if txn is None and not self.mvcc.dirty:
            return self
        return SnapshotView(self, snapshot, txn)

    def add_commit_listener(self, listener) -> None:
        """Register a callable invoked with each :class:`CommitRecord`."""
        self.mvcc.add_listener(listener)

    def segment(self, type_name: str) -> Segment:
        """A type's segment; raises StorageError when absent."""
        if type_name not in self._segments:
            raise StorageError(f"no segment for type {type_name!r}")
        return self._segments[type_name]

    def total_pages(self) -> int:
        """Pages spanned by the sealed segments (0 until ``seal``)."""
        return self._total_pages

    #: Gap between data pages and the temp (spill) page range; the index
    #: extents (``index.EXTENT_PAGES`` each) and overflow pages lie between.
    TEMP_PAGE_GAP = 100_000

    def allocate_temp_pages(self, count: int) -> list[int]:
        """Reserve ``count`` fresh temp page ids for spill output.

        Temp pages live far beyond the data segments and the index
        extents, so spill I/O never collides with (or caches as)
        real data; the disk span grows so seek distances stay modelled.
        Thread-safe: server sessions spill against one shared store.
        """
        if count <= 0:
            return []
        with self._temp_lock:
            if self._temp_next is None:
                self._temp_next = self.total_pages() + self.TEMP_PAGE_GAP
            start = self._temp_next
            self._temp_next += count
        self.disk.extend_span(start + count)
        return list(range(start, start + count))

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------

    def reset_accounting(self, cold: bool = True) -> None:
        """Zero the I/O clocks; optionally also empty the buffer pool."""
        self.disk.reset_stats()
        if cold:
            self.buffer.flush(reset_stats=True)
        else:
            self.buffer.reset_stats()

    @property
    def simulated_seconds(self) -> float:
        return self.disk.elapsed_seconds

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise StorageError("store must be sealed before reading")


__all__ = ["ObjectStore", "Segment"]
