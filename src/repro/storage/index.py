"""Runtime indexes: attribute indexes and path indexes, maintained at commit.

An index maps the value of a (possibly multi-link) path evaluated from each
member of a collection to the member OIDs.  This realises both kinds of
index the paper uses: the attribute index on ``Tasks.time`` and the *path
index* on ``Cities`` over ``mayor.name`` — the structure that lets the
collapse-to-index-scan rule answer Query 2 "without actually retrieving
any mayor objects from disk".

There is one long-lived :class:`IndexRuntime` per catalog index, kept by
the store's :class:`IndexRegistry` and maintained by the MVCC apply path
(``TransactionManager._apply_locked`` — the code both ``commit`` and WAL
replay run) before the commit's CSN is published.  Maintenance works from
the commit's own write set: a written member of the indexed collection is
a *root*; for a path index a written object further down the path finds
the roots that reach it through a reverse-reference map per path link
(built on the first commit that needs it).  ``entries`` changes only where
a root's key or membership really changed, and each change is appended to
a per-index log so a probe from an older snapshot can take exactly the
later changes back.  A never-written index has no log, no reverse maps and
no rank table, and its probes are the plain dictionary lookups they always
were.

Lookups are charged a B-tree-shaped I/O bill (root-to-leaf traversal plus
qualifying leaf pages); fetching the qualifying *objects* afterwards is the
scan operator's business, not the index's.
"""

from __future__ import annotations

import math
import threading
import warnings
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.algebra.predicates import CompOp, comparison_holds
from repro.catalog.catalog import DEFAULT_PAGE_SIZE, IndexDef
from repro.errors import IndexCorruptionError, StorageError
from repro.storage.objects import Oid

if TYPE_CHECKING:
    from repro.storage.mvcc import SnapshotView
    from repro.storage.store import ObjectStore

ENTRY_BYTES = 16  # key digest + oid per leaf entry
INTERIOR_FANOUT = 200
EXTENT_PAGES = 1000  # simulated pages per index: root, interior levels, ~256k leaf entries

#: Change-log "key" of a root that is not (yet, or any longer) a member.
_ABSENT = object()
#: Bucket of roots whose path crosses a deleted object.  A fresh build of
#: such a collection raises ``StorageError``; a probe that can see a root
#: in this bucket raises the same.
_DANGLING = object()

#: ``read(oid)`` gives an object's record in one state, None when deleted.
Reader = Callable[[Oid], "dict[str, Any] | None"]


def _path_key(read: Reader, oid: Oid, path: tuple[str, ...]) -> Any:
    """Dereference a path from an object in the state ``read`` shows,
    without I/O accounting (index maintenance happens at update time in a
    real system; charging it to query-time I/O clocks would be wrong).

    Nulls propagate.  A deleted object on the path gives :data:`_DANGLING`
    — unless ``read`` raises on it, as a view's ``peek`` does for a build.
    """
    data = read(oid)
    for link in path[:-1]:
        if data is None:
            return _DANGLING
        ref = data.get(link)
        if ref is None:
            return None
        if not isinstance(ref, Oid):
            raise StorageError(
                f"path {'.'.join(path)!r} crosses non-reference value {ref!r}"
            )
        data = read(ref)
    if data is None:
        return _DANGLING
    return data.get(path[-1])


def btree_shape(entry_count: float, page_size: int) -> tuple[int, int]:
    """(interior levels, leaf pages) of the modelled B-tree over
    ``entry_count`` entries — what a probe is charged, and what the cost
    model and the greedy baseline estimate from catalog cardinalities."""
    leaf_pages = max(1, -(-entry_count * ENTRY_BYTES // page_size))
    height = max(1, math.ceil(math.log(max(2, leaf_pages), INTERIOR_FANOUT)))
    return height, leaf_pages


def estimated_leaf_pages(matches: float, leaf_pages: float, page_size: int) -> float:
    """Leaf pages a probe matching ``matches`` entries is estimated to read:
    their (fractional) share of pages, at least one, at most the tree's."""
    return min(max(1.0, matches * ENTRY_BYTES / page_size), float(leaf_pages))


def _indexable(key: Any) -> bool:
    """Whether a key takes part in range and ``!=`` probes."""
    return key is not None and key is not _DANGLING


class IndexRuntime:
    """A built, queryable, commit-maintained index with simulated I/O
    accounting.

    ``entries`` is the *latest committed* state, each bucket in collection
    scan order (base members by base position, inserted members after them
    in insertion order) — the order a fresh :meth:`build` produces, because
    OID order decides fetch order and with it the simulated seek time.

    The three ``lookup_*`` probes take the reading view and resolve what
    that view may see in one place (:meth:`_seen_by`): the latest state as
    it stands, or the latest state with the roots re-keyed that committed
    changes after the view's snapshot (taken back from the change log) or
    the view's own transaction (evaluated through its overlay) moved.  Two
    cases cannot be shown exact that cheaply and fall back to a private
    :meth:`build` from the view: a view pinned before the index was built,
    and a transaction that wrote an object *below* the root of the path
    while the index changed after its snapshot.

    Concurrency: a short per-index lock.  A commit holds it while it
    applies its changes to this index (it already holds the store's commit
    lock, always taken first), a probe while it copies the buckets it reads
    and the log tail it takes back — so a probe never sees half a commit,
    and never iterates a dictionary a commit is resizing.
    """

    def __init__(self, definition: IndexDef) -> None:
        self.definition = definition
        self.entries: dict[Any, list[Oid]] = {}
        self.entry_count = 0
        #: CSN of the state the index was built from.
        self.built_csn = 0
        # Built from a transaction's own view: valid for that view only,
        # never registered, never maintained.
        self._private = False
        self._mvcc = None
        self._lock = threading.Lock()
        #: [(csn, root, old key, new key)], ascending CSN; empty until a
        #: commit changes a key or the membership.
        self._log: list[tuple[int, Oid, Any, Any]] = []
        # Everything below is allocated by the first probe or commit that
        # needs it.
        self._sorted_keys: list[Any] | None = None
        self._rank: dict[Oid, int] | None = None
        self._types: tuple[str, ...] | None = None
        #: One map per path link: referenced object -> objects one level
        #: up whose link points at it (level 0 = the indexed members).
        self._rev: list[dict[Oid, set[Oid]]] | None = None
        #: CSN of the newest state the reverse maps were built from or
        #: changed by.
        self._rev_csn = 0

    @classmethod
    def build(
        cls, store: "ObjectStore | SnapshotView", definition: IndexDef
    ) -> "IndexRuntime":
        """Evaluate the keyed path for every member and index the OIDs.

        The initial build, the slow path of a probe, and the oracle the
        maintained index is checked against.
        """
        index = cls(definition)
        index._mvcc = store.mvcc
        snapshot = getattr(store, "snapshot", None)
        index.built_csn = (
            snapshot if snapshot is not None else store.mvcc.current_csn
        )
        index._private = getattr(store, "txn", None) is not None
        for oid in store.collection_oids(definition.collection):
            key = _path_key(store.peek, oid, definition.path)
            index.entries.setdefault(key, []).append(oid)
            index.entry_count += 1
        return index

    # ------------------------------------------------------------------
    # Shape (drives both runtime charging and the optimizer's cost model)
    # ------------------------------------------------------------------

    @property
    def leaf_pages(self) -> int:
        """Leaf page count of the modelled B-tree shape."""
        return btree_shape(self.entry_count, DEFAULT_PAGE_SIZE)[1]

    @property
    def height(self) -> int:
        """Number of interior levels above the leaves (>= 1 for the root)."""
        return btree_shape(self.entry_count, DEFAULT_PAGE_SIZE)[0]

    def distinct_keys(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def lookup_eq(self, view: "ObjectStore | SnapshotView", key: Any) -> list[Oid]:
        """Equality probe; charges the traversal and qualifying leaf pages."""
        return self._probe(view, _pick_eq, key)

    def lookup_range(
        self,
        view: "ObjectStore | SnapshotView",
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[Oid]:
        """Range probe over keys; charges traversal plus matched leaf span.

        Ascending keys, scan order within a key; the null bucket never
        qualifies.
        """
        return self._probe(
            view, _pick_range, low, high, low_inclusive, high_inclusive
        )

    def lookup_ne(self, view: "ObjectStore | SnapshotView", key: Any) -> list[Oid]:
        """Inequality probe: every root whose key is neither ``key`` nor
        null (``null != key`` is unknown, as a filter plan would decide),
        key by key in the order a scan first meets each key."""
        return self._probe(view, _pick_ne, key)

    def _probe(self, view, pick, *args) -> list[Oid]:
        txn = getattr(view, "txn", None)
        if (
            txn is not None
            and self._rev is None
            and not self._private
            and self._written_below_root(txn)
        ):
            self._build_reverse_maps_now()
        with self._lock:
            seen = self._seen_by(view, txn)
            if seen is not None:
                if seen.dangling():
                    raise StorageError(
                        f"index {self.definition.name!r}: a path from "
                        f"{self.definition.collection!r} crosses a deleted "
                        "object (dangling reference)"
                    )
                matches = pick(seen, *args)
                entry_count = seen.entry_count
        if seen is None:
            private = IndexRuntime.build(view, self.definition)
            return private._probe(view, pick, *args)
        self._charge(view, matches, entry_count)
        return matches

    def _charge(self, store, matches: list[Oid], entry_count: int) -> None:
        # Every lookup path funnels through here, so this is also the
        # fault-injection point: a corrupt index raises before any result
        # leaves the probe, and the caller degrades to a scan plan.
        faults = store.buffer.faults
        if faults is not None and faults.index_corrupted(self.definition.name):
            raise IndexCorruptionError(self.definition.name)
        # `height` interior page reads, then the leaves, in the index's own
        # extent; the shape is that of the index as of the reading view.
        height, leaf_pages = btree_shape(entry_count, DEFAULT_PAGE_SIZE)
        base = store.indexes.page_base(self.definition.name)
        for level in range(height):
            store.buffer.read_page(base + level)
        leaf_span = max(1, -(-len(matches) * ENTRY_BYTES // DEFAULT_PAGE_SIZE))
        for leaf in range(min(leaf_span, leaf_pages)):
            store.buffer.read_page(base + height + leaf)

    # -- the state a probe reads (this class for the latest state, _Seen
    # -- for a re-keyed one) -------------------------------------------

    def bucket(self, key: Any) -> list[Oid]:
        return list(self.entries.get(key, ()))

    def dangling(self) -> bool:
        return _DANGLING in self.entries

    def sorted_keys(self) -> list[Any]:
        """Every non-null key, ascending; kept up to date by commits once
        the first range probe has built it."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(k for k in self.entries if _indexable(k))
        return self._sorted_keys

    def buckets_in_scan_order(self) -> list[tuple[Any, list[Oid]]]:
        """(key, bucket) in the order a scan first meets each key."""
        if not self._log:
            # Never changed: dictionary order is still build order.
            return [(key, list(bucket)) for key, bucket in self.entries.items()]
        rank = self._scan_rank()
        return sorted(
            ((key, list(bucket)) for key, bucket in self.entries.items()),
            key=lambda item: rank[item[1][0]],
        )

    # ------------------------------------------------------------------
    # Snapshot visibility
    # ------------------------------------------------------------------

    def _seen_by(self, view, txn) -> "IndexRuntime | _Seen | None":
        """The state ``view`` may read (lock held); None = rebuild."""
        if self._private:
            return self
        snapshot = getattr(view, "snapshot", None)
        log = self._log
        behind = bool(log) and snapshot is not None and log[-1][0] > snapshot
        writes = txn is not None and bool(
            txn.updates or txn.deletes or txn.inserts
        )
        if snapshot is not None and snapshot < self.built_csn:
            return None
        if not behind and not writes:
            return self
        return self._rekeyed(snapshot, txn if writes else None, behind)

    def _rekeyed(self, snapshot: int, txn, behind: bool) -> "_Seen | None":
        """The latest state with every root re-keyed that a later commit
        or the reading transaction moved; None when only a build can tell."""
        path = self.definition.path
        collection = self.definition.collection
        #: root -> key the view sees (or _ABSENT); root -> key in `entries`.
        seen_key: dict[Oid, Any] = {}
        latest_key: dict[Oid, Any] = {}
        entry_count = self.entry_count
        if behind:
            start = bisect_right(self._log, snapshot, key=itemgetter(0))
            for _, root, old, new in self._log[start:]:
                seen_key.setdefault(root, old)
                latest_key[root] = new
                if old is _ABSENT:
                    entry_count -= 1
                elif new is _ABSENT:
                    entry_count += 1
        pending: list[Oid] = []
        if txn is not None:
            committed = self._mvcc.reader(snapshot)
            own = self._mvcc.reader(txn.snapshot, txn)

            def member_at_snapshot(root: Oid) -> bool:
                if root in seen_key:
                    return seen_key[root] is not _ABSENT
                key = _path_key(committed, root, path)
                latest_key[root] = key
                return root in self.entries.get(key, ())

            roots = self._roots_written_by(txn, snapshot, behind)
            if roots is None:
                return None
            for root in roots:
                if not member_at_snapshot(root):
                    continue
                if root in txn.deletes:
                    seen_key[root] = _ABSENT
                    entry_count -= 1
                else:
                    seen_key[root] = _path_key(own, root, path)
            pending = txn.pending_members(collection)
            for root in pending:
                latest_key[root] = _ABSENT
                seen_key[root] = _path_key(own, root, path)
            entry_count += len(pending)
        moved = {
            root for root, key in seen_key.items()
            if not _same_key(key, latest_key[root])
        }
        if not moved and entry_count == self.entry_count:
            return self
        late = {root: position for position, root in enumerate(pending)}
        arrived: dict[Any, list[Oid]] = {}
        appended: dict[Any, list[Oid]] = {}
        for root, key in seen_key.items():
            if root in moved and key is not _ABSENT:
                side = appended if root in late else arrived
                side.setdefault(key, []).append(root)
        return _Seen(self, moved, arrived, appended, late, entry_count)

    def _roots_written_by(self, txn, snapshot: int, behind: bool):
        """Roots whose key a transaction's buffered writes may have moved
        (candidates — membership is the caller's test); None when the
        reverse maps cannot speak for the transaction's snapshot."""
        element = self._level_types()[0]
        roots = dict.fromkeys(
            oid
            for oid in (*txn.updates, *txn.deletes)
            if oid.type_name == element
        )
        below = self._written_below_root(txn)
        if below:
            if behind or self._rev_csn > snapshot or self._rev is None:
                return None
            for oid in below:
                roots.update(dict.fromkeys(self._roots_reaching(oid)))
        return roots

    # ------------------------------------------------------------------
    # Maintenance (called under the store's commit lock)
    # ------------------------------------------------------------------

    def concerns(self, collections, type_names: set[str]) -> bool:
        """Whether a commit that touched members of ``collections`` and
        wrote objects of ``type_names`` can change this index."""
        if self.definition.collection in collections:
            return True
        if len(self.definition.path) == 1:
            return False
        return not type_names.isdisjoint(self._level_types()[1:])

    def note_commit(
        self,
        csn: int,
        written: list[Oid],
        updated: Iterable[Oid] = (),
        removed: Iterable[Oid] = (),
        added: Iterable[Oid] = (),
    ) -> None:
        """Bring the index from the state before commit ``csn`` to the
        state after it.

        ``written`` is every object the commit updated or deleted;
        ``updated`` / ``removed`` / ``added`` are the members of the
        indexed collection it updated in place, deleted, and inserted.
        The commit's versions are already chained, so the state before is
        a read at ``csn - 1`` and the state after a read at ``csn``.
        """
        path = self.definition.path
        before = self._mvcc.reader(csn - 1)
        after = self._mvcc.reader(csn)
        with self._lock:
            roots = dict.fromkeys(updated)
            if len(path) > 1:
                types = self._level_types()
                below = [oid for oid in written if oid.type_name in types[1:]]
                if below:
                    if self._rev is None:
                        self._build_reverse_maps(csn - 1)
                    for oid in below:
                        roots.update(dict.fromkeys(self._roots_reaching(oid)))
            removed = list(removed)
            for root in removed:
                roots.pop(root, None)
                old = _path_key(before, root, path)
                self._log.append((csn, root, old, _ABSENT))
                self._take(root, old)
                self.entry_count -= 1
            for root in roots:
                old = _path_key(before, root, path)
                new = _path_key(after, root, path)
                if not _same_key(old, new):
                    self._log.append((csn, root, old, new))
                    self._take(root, old)
                    self._put(root, new)
            for root in added:
                new = _path_key(after, root, path)
                self._log.append((csn, root, _ABSENT, new))
                if self._rank is not None:
                    self._rank.setdefault(root, len(self._rank))
                # A new member is last in scan order: append.
                self._put(root, new, last=True)
                self.entry_count += 1
            if self._rev is not None:
                self._update_reverse_maps(
                    csn, written, set(updated), removed, added, before, after
                )

    def _take(self, root: Oid, key: Any) -> None:
        bucket = self.entries[key]
        bucket.remove(root)
        if not bucket:
            del self.entries[key]
            keys = self._sorted_keys
            if keys is not None and _indexable(key):
                del keys[bisect_left(keys, key)]

    def _put(self, root: Oid, key: Any, last: bool = False) -> None:
        bucket = self.entries.get(key)
        if bucket is None:
            self.entries[key] = [root]
            if self._sorted_keys is not None and _indexable(key):
                try:
                    insort(self._sorted_keys, key)
                except TypeError:
                    # Keys of mixed types: the next range probe re-sorts
                    # and raises where it always did, at query time.
                    self._sorted_keys = None
        elif last:
            bucket.append(root)
        else:
            rank = self._scan_rank()
            bucket.insert(
                bisect_left(bucket, rank[root], key=rank.__getitem__), root
            )

    def _scan_rank(self) -> dict[Oid, int]:
        """Position of every root that ever was a member in the
        collection's scan order (which no commit ever reorders)."""
        if self._rank is None:
            self._rank = {
                oid: position
                for position, oid in enumerate(
                    self._mvcc.ever_members(self.definition.collection)
                )
            }
        return self._rank

    def _level_types(self) -> tuple[str, ...]:
        """Type of the object at each level of the path (0 = the root)."""
        if self._types is None:
            catalog = self._mvcc.store.catalog
            element = catalog.collection(self.definition.collection).element_type
            attrs = catalog.resolve_path(element, self.definition.path)
            self._types = (element, *(a.target_type for a in attrs[:-1]))
        return self._types

    # -- reverse-reference maps ------------------------------------------

    def _written_below_root(self, txn) -> list[Oid]:
        """Objects a transaction updated or deleted whose type the path
        passes through below its root."""
        if len(self.definition.path) == 1:
            return []
        below = self._level_types()[1:]
        return [
            oid
            for oid in (*txn.updates, *txn.deletes)
            if oid.type_name in below
        ]

    def _build_reverse_maps_now(self) -> None:
        """Build the reverse maps for a reading transaction: at the
        current CSN, with commits held off (commit lock first, as a
        commit takes them)."""
        with self._mvcc.commit_lock, self._lock:
            if self._rev is None and not self._private:
                self._build_reverse_maps(self._mvcc.current_csn)

    def _build_reverse_maps(self, csn: int) -> None:
        """Map every path link of every member backwards, as of ``csn``."""
        read = self._mvcc.reader(csn)
        self._rev = [{} for _ in self.definition.path[:-1]]
        for root in self._mvcc.members_at(self.definition.collection, csn):
            self._track(read, root, 0)
        self._rev_csn = max(self._rev_csn, csn)

    def _track(self, read: Reader, oid: Oid, level: int) -> None:
        """Record the link out of ``oid`` (an object at ``level``) and of
        everything below it that was not reachable before."""
        path = self.definition.path
        while level < len(self._rev):
            data = read(oid)
            target = data.get(path[level]) if data is not None else None
            if not isinstance(target, Oid):
                return
            sources = self._rev[level].get(target)
            if sources is not None:
                # Already reachable, so is everything below it.
                sources.add(oid)
                return
            self._rev[level][target] = {oid}
            oid, level = target, level + 1

    def _roots_reaching(self, oid: Oid) -> set[Oid]:
        """Members whose path passes through ``oid`` (a superset: a stale
        link costs one key comparison, a missing one would lose a root)."""
        types = self._level_types()
        roots: set[Oid] = set()
        for level in range(1, len(types)):
            if types[level] != oid.type_name:
                continue
            frontier = {oid}
            for link in range(level - 1, -1, -1):
                sources = self._rev[link]
                frontier = {
                    up for down in frontier for up in sources.get(down, ())
                }
            roots |= frontier
        return roots

    def _update_reverse_maps(
        self, csn, written, updated, removed, added, before, after
    ) -> None:
        path = self.definition.path
        types = self._level_types()
        gone = set(removed)
        for oid in written:
            for level in range(len(self._rev)):
                if types[level] != oid.type_name:
                    continue
                if level == 0:
                    if oid not in updated and oid not in gone:
                        continue
                elif oid not in self._rev[level - 1]:
                    continue
                old = (before(oid) or {}).get(path[level])
                new = (after(oid) or {}).get(path[level])
                if old == new:
                    continue
                if isinstance(old, Oid):
                    self._rev[level].get(old, set()).discard(oid)
                self._track(after, oid, level)
                self._rev_csn = csn
        for root in added:
            self._track(after, root, 0)
            self._rev_csn = csn


def _same_key(left: Any, right: Any) -> bool:
    if left is right:
        return True
    if left is _ABSENT or right is _ABSENT or left is _DANGLING or right is _DANGLING:
        return False
    return left == right


class _Seen:
    """The latest state of an index with some roots re-keyed: what a probe
    from an older snapshot, or from inside a transaction, reads."""

    __slots__ = ("index", "moved", "arrived", "appended", "late", "entry_count")

    def __init__(self, index, moved, arrived, appended, late, entry_count) -> None:
        self.index = index
        #: Roots that are not where `entries` has them.
        self.moved: set[Oid] = moved
        #: key -> roots the view sees under it, to merge in by scan rank /
        #: to append (the transaction's own inserts, last in scan order:
        #: ``late`` is their order among themselves).
        self.arrived: dict[Any, list[Oid]] = arrived
        self.appended: dict[Any, list[Oid]] = appended
        self.late: dict[Oid, int] = late
        self.entry_count = entry_count

    def bucket(self, key: Any) -> list[Oid]:
        moved = self.moved
        kept = [oid for oid in self.index.entries.get(key, ()) if oid not in moved]
        arrived = self.arrived.get(key)
        if arrived:
            kept = sorted(kept + arrived, key=self.index._scan_rank().__getitem__)
        return kept + self.appended.get(key, [])

    def dangling(self) -> bool:
        return bool(self.bucket(_DANGLING))

    def _keys(self) -> set[Any]:
        return {*self.index.entries, *self.arrived, *self.appended}

    def sorted_keys(self) -> list[Any]:
        return sorted(k for k in self._keys() if _indexable(k))

    def buckets_in_scan_order(self) -> list[tuple[Any, list[Oid]]]:
        rank = self.index._scan_rank()
        late = self.late

        def first_met(item) -> int:
            first = item[1][0]
            return len(rank) + late[first] if first in late else rank[first]

        buckets = [(key, self.bucket(key)) for key in self._keys()]
        return sorted((item for item in buckets if item[1]), key=first_met)


def _pick_eq(seen, key: Any) -> list[Oid]:
    return seen.bucket(key)


def _pick_range(seen, low, high, low_inclusive, high_inclusive) -> list[Oid]:
    keys = seen.sorted_keys()
    start, stop = 0, len(keys)
    # A bound even the farthest key fails (past the keys, or of a kind that
    # does not order against them) matches no key, as a filter decides.
    if low is not None and keys:
        op = CompOp.GE if low_inclusive else CompOp.GT
        if not comparison_holds(op, keys[-1], low):
            return []
        start = (bisect_left if low_inclusive else bisect_right)(keys, low)
    if high is not None and keys:
        op = CompOp.LE if high_inclusive else CompOp.LT
        if not comparison_holds(op, keys[0], high):
            return []
        stop = (bisect_right if high_inclusive else bisect_left)(keys, high)
    matches: list[Oid] = []
    for key in keys[start:stop]:
        matches.extend(seen.bucket(key))
    return matches


def _pick_ne(seen, key: Any) -> list[Oid]:
    return [
        oid
        for k, bucket in seen.buckets_in_scan_order()
        if _indexable(k) and k != key
        for oid in bucket
    ]


class IndexRegistry:
    """The maintained indexes of one store, by catalog index name.

    ``get`` builds on first use (under the commit lock, at the current
    CSN, with an empty change log), ``adopt`` takes a build the caller
    already made, and ``note_commit`` is the MVCC apply path's hook.  An index that is not built costs a commit nothing.
    """

    def __init__(self, store: "ObjectStore") -> None:
        self._store = store
        self._built: dict[str, IndexRuntime] = {}
        self._extents: dict[str, int] = {}  # name -> ordinal of its page extent

    def get(self, definition: IndexDef) -> IndexRuntime:
        """The maintained index for a catalog definition."""
        index = self._serving(definition)
        if index is None:
            # No commit may fall between the build and the registration.
            with self._store.mvcc.commit_lock:
                index = self._serving(definition)
                if index is None:
                    index = IndexRuntime.build(self._store.view(), definition)
                    self.adopt(definition, index)
        return index

    def _serving(self, definition: IndexDef) -> IndexRuntime | None:
        """The built index under the definition's name, unless it was
        built for another definition (a dropped index's name reused)."""
        index = self._built.get(definition.name)
        if index is not None and (
            index.definition is definition or index.definition == definition
        ):
            return index
        return None

    def adopt(self, definition: IndexDef, index: IndexRuntime) -> None:
        """Register an index built at the current CSN as the maintained
        one for ``definition`` (commit lock held by the caller)."""
        index.definition = definition
        self._extents.setdefault(definition.name, len(self._extents))
        self._built[definition.name] = index

    def page_base(self, name: str) -> int:
        """First page of index ``name``: one ``EXTENT_PAGES`` stride per name,
        in adoption order past the base segments, kept by every later build."""
        return self._store.total_pages() + EXTENT_PAGES * self._extents[name]

    def built(self, name: str) -> IndexRuntime | None:
        """The index registered under ``name``, if it has been built."""
        return self._built.get(name)

    def drop(self, name: str) -> None:
        """Forget index ``name``; unknown names are a no-op."""
        self._built.pop(name, None)

    def clear(self) -> None:
        """Forget every index (the state under them was replaced)."""
        self._built.clear()

    def note_commit(
        self,
        csn: int,
        written: list[Oid],
        members: dict[str, tuple[list[Oid], list[Oid], list[Oid]]],
    ) -> None:
        """Maintain every built index a commit can change.

        ``members`` maps each collection the commit touched to the members
        it (updated, removed, added).  Maintenance must not fail a commit
        that is already logged: an index that raises is dropped — the next
        probe rebuilds it — and the failure surfaces as a warning.
        """
        if not self._built:
            return
        type_names = {oid.type_name for oid in written}
        for name, index in list(self._built.items()):
            try:
                if index.concerns(members, type_names):
                    index.note_commit(
                        csn,
                        written,
                        *members.get(index.definition.collection, ((), (), ())),
                    )
            except Exception as exc:  # noqa: BLE001 - see docstring
                self._built.pop(name, None)
                warnings.warn(
                    f"maintaining index {name!r} at commit {csn} raised "
                    f"{exc!r}; the index will be rebuilt",
                    RuntimeWarning,
                    stacklevel=2,
                )


__all__ = ["IndexRegistry", "IndexRuntime", "btree_shape", "estimated_leaf_pages"]
