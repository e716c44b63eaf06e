"""MVCC: transactions, snapshots, and version visibility.

The store's write path.  The sealed base load is *commit 0*; every
committed transaction gets the next commit sequence number (CSN) and
appends — never overwrites — object versions and collection-membership
events.  A query pins a snapshot CSN ``s`` when it starts and sees
exactly the state produced by commits ``<= s``:

* object data: the latest version chained at ``csn <= s`` (the base
  record when no chain entry qualifies);
* collection membership: base members not yet removed at ``s``, plus
  members added at ``csn <= s``, in insertion order;
* a tombstone version (``data is None``) makes the object dangling from
  ``s >= csn`` on.

Readers never take the commit lock: commits append version and
membership entries *first* and publish the new CSN *last*, so a reader
pinned at ``s`` can never observe half of commit ``s+1`` — the entries
exist but fail every ``csn <= s`` visibility test until the CSN moves.

Write-write conflicts use first-committer-wins: a transaction that
updates or deletes an object some other transaction committed a write
to after this one's snapshot raises the typed
:class:`~repro.errors.WriteConflict` (checked eagerly at write time and
re-checked under the commit lock).  Readers are never blocked and never
block.  This is snapshot isolation, not serializability: write skew and
phantoms are possible (see docs §12).
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import StorageError, TransactionError, WriteConflict
from repro.storage.objects import Obj, Oid

if TYPE_CHECKING:
    from repro.storage.store import ObjectStore

#: Pages for post-seal inserts live in a reserved range past the index
#: extents and short of the spill region, so growth collides with neither.
OVERFLOW_PAGE_GAP = 50_000


@dataclass
class CommitRecord:
    """What one commit changed, as reported to commit listeners."""

    csn: int
    #: Net cardinality delta per touched collection (inserts - deletes).
    deltas: dict[str, int] = field(default_factory=dict)
    #: Objects whose data changed in place (updates), per collection.
    updated: int = 0


class Transaction:
    """One unit of DML work against a snapshot.

    Obtained from :meth:`TransactionManager.begin` (or
    ``Database.begin``).  Writes are buffered locally and applied
    atomically by :meth:`commit`; :meth:`rollback` discards them.  The
    transaction's own writes are visible to reads made through a
    :class:`SnapshotView` carrying it (read-your-own-writes), invisible
    to everyone else until commit.
    """

    def __init__(self, manager: "TransactionManager", snapshot: int) -> None:
        self._manager = manager
        self.snapshot = snapshot
        self.status = "active"
        #: oid -> replacement record (full data dict, already copied).
        self.updates: dict[Oid, dict[str, Any]] = {}
        #: oids deleted by this transaction.
        self.deletes: set[Oid] = set()
        #: insertion order: (target collection, oid, data).
        self.inserts: list[tuple[str, Oid, dict[str, Any]]] = []
        self._inserted: dict[Oid, int] = {}  # oid -> index into inserts
        #: Every OID this transaction ever minted, including inserts later
        #: canceled by delete/savepoint-rollback.  The write-ahead log
        #: records these so recovery replays the allocator to the same
        #: next-serial state; deliberately NOT restored by rollback_to
        #: (the allocator never rewinds).
        self.minted: list[Oid] = []

    # -- write buffering -------------------------------------------------

    def _require_active(self) -> None:
        if self.status != "active":
            raise TransactionError(
                f"transaction is {self.status}; begin a new one"
            )

    def insert(self, collection: str, data: dict[str, Any]) -> Oid:
        """Buffer a new object for ``collection``; returns its fresh OID."""
        self._require_active()
        oid = self._manager.mint(collection, data)
        self.minted.append(oid)
        self._inserted[oid] = len(self.inserts)
        self.inserts.append((collection, oid, dict(data)))
        return oid

    def update(self, oid: Oid, data: dict[str, Any]) -> None:
        """Buffer a full-record replacement for ``oid``.

        A write-write conflict detected here (another transaction
        already committed to ``oid`` after this snapshot) rolls the
        whole transaction back, exactly as the commit-time recheck
        would: once doomed, none of its writes can ever apply.
        """
        self._require_active()
        if oid in self.deletes:
            raise TransactionError(f"object {oid!r} already deleted here")
        if oid in self._inserted:
            position = self._inserted[oid]
            collection, _, _ = self.inserts[position]
            self.inserts[position] = (collection, oid, dict(data))
            return
        self._check_writable(oid)
        self.updates[oid] = dict(data)

    def delete(self, oid: Oid) -> None:
        """Buffer a deletion of ``oid`` (idempotent within the txn).

        Conflicts roll the transaction back, as in :meth:`update`.
        """
        self._require_active()
        if oid in self._inserted:
            position = self._inserted.pop(oid)
            self.inserts[position] = None  # type: ignore[call-overload]
            return
        self._check_writable(oid)
        self.updates.pop(oid, None)
        self.deletes.add(oid)

    def _check_writable(self, oid: Oid) -> None:
        """Visibility plus eager conflict check; conflicts doom the txn."""
        self._manager.check_visible(self, oid)
        try:
            self._manager.check_conflict(self, oid)
        except WriteConflict:
            self.rollback()
            raise

    # -- statement atomicity ---------------------------------------------

    def savepoint(self) -> tuple:
        """A deep snapshot of the buffered-write state.

        Taken before each DML statement runs inside an explicit
        transaction, so a mid-statement failure can restore the buffers
        via :meth:`rollback_to` — the statement applies all-or-nothing
        while the surrounding transaction stays usable.
        """
        return (
            {oid: dict(data) for oid, data in self.updates.items()},
            set(self.deletes),
            [
                entry if entry is None else (entry[0], entry[1], dict(entry[2]))
                for entry in self.inserts
            ],
            dict(self._inserted),
        )

    def rollback_to(self, savepoint: tuple) -> None:
        """Restore the buffers captured by :meth:`savepoint`.

        A no-op on a non-active transaction: an eager write-write
        conflict dooms the whole transaction (see :meth:`update`), and a
        doomed transaction must stay doomed — restoring buffers into it
        would resurrect writes that can never legally commit.
        """
        if self.status != "active":
            return
        updates, deletes, inserts, inserted = savepoint
        self.updates = {oid: dict(data) for oid, data in updates.items()}
        self.deletes = set(deletes)
        self.inserts = [
            entry if entry is None else (entry[0], entry[1], dict(entry[2]))
            for entry in inserts
        ]
        self._inserted = dict(inserted)

    # -- lifecycle -------------------------------------------------------

    @property
    def writes(self) -> int:
        """How many buffered write operations the transaction holds."""
        live_inserts = sum(1 for entry in self.inserts if entry is not None)
        return live_inserts + len(self.updates) + len(self.deletes)

    def commit(self) -> int:
        """Apply the buffered writes atomically; returns the new CSN.

        Raises :class:`~repro.errors.WriteConflict` (and rolls the
        transaction back) if any written object was committed to after
        this transaction's snapshot.
        """
        self._require_active()
        try:
            csn = self._manager.commit(self)
        except WriteConflict:
            self._discard()
            raise
        self.status = "committed"
        durability = self._manager.durability
        if durability is not None:
            # Every acknowledged commit, auto-commit or explicit; outside
            # the commit lock, which checkpointing takes.
            durability.maybe_checkpoint()
        return csn

    def rollback(self) -> None:
        """Discard the buffered writes (idempotent).

        The buffers are *emptied*, not merely abandoned: a rolled-back
        transaction that is accidentally kept around (a session variable
        pointing at a doomed transaction, say) must never leak its
        discarded writes into a later overlay read.
        """
        if self.status == "active":
            self._discard()

    def _discard(self) -> None:
        self.status = "rolled-back"
        self.updates.clear()
        self.deletes.clear()
        self.inserts.clear()
        self._inserted.clear()

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.status == "active":
            self.commit()
        else:
            self.rollback()

    # -- overlay reads (read-your-own-writes) ----------------------------

    def pending_members(self, collection: str) -> list[Oid]:
        """OIDs this txn inserted that belong in ``collection``."""
        out: list[Oid] = []
        for entry in self.inserts:
            if entry is None:
                continue
            target, oid, _ = entry
            if target == collection or collection in self._manager.auto_collections(
                target, oid.type_name
            ):
                out.append(oid)
        return out


class TransactionManager:
    """All MVCC state of one :class:`~repro.storage.store.ObjectStore`.

    Readers are lock-free; :meth:`commit` and OID minting serialize on
    one lock.  ``dirty`` stays False until the first commit, so stores
    that never see DML keep the exact pre-MVCC read paths.
    """

    def __init__(self, store: "ObjectStore") -> None:
        self._store = store
        self._lock = threading.Lock()
        self._csn = 0
        self.dirty = False
        #: oid -> [(csn, data-or-tombstone)], ascending csn.
        self._versions: dict[Oid, list[tuple[int, dict[str, Any] | None]]] = {}
        #: collection -> [(csn, +1 | -1, oid)], ascending csn.
        self._member_log: dict[str, list[tuple[int, int, Oid]]] = {}
        #: collection -> (csn, members): the membership of every snapshot
        #: at or after csn, a fresh list per commit that changes it.
        self._latest: dict[str, tuple[int, list[Oid]]] = {}
        #: oid -> csn of the last committed update/delete (conflicts).
        self._last_write: dict[Oid, int] = {}
        #: post-seal page assignments, oid -> absolute page id.
        self._overflow_pages: dict[Oid, int] = {}
        #: per-type (next serial, open page, free slots on it).
        self._allocators: dict[str, tuple[int, int, int]] = {}
        self._overflow_next: int | None = None
        #: current committed member sets, maintained incrementally under
        #: the commit lock (containment checks for deletes).
        self._member_sets: dict[str, set[Oid]] = {}
        self._listeners: list[Callable[[CommitRecord], None]] = []
        #: Optional DurabilityManager; when set, commit() logs + fsyncs
        #: each transaction before applying it (see log_commit there).
        self.durability = None

    # -- snapshots -------------------------------------------------------

    @property
    def current_csn(self) -> int:
        """The latest committed CSN (0 = the sealed base load)."""
        return self._csn

    @property
    def store(self) -> "ObjectStore":
        """The store whose write path this is."""
        return self._store

    @property
    def commit_lock(self) -> threading.Lock:
        """The commit lock, for checkpoint-style whole-state operations."""
        return self._lock

    def begin(self) -> Transaction:
        """Open a transaction pinned at the current committed snapshot."""
        return Transaction(self, self._csn)

    def add_listener(self, listener: Callable[[CommitRecord], None]) -> None:
        """Register a commit listener (called under the commit lock)."""
        self._listeners.append(listener)

    # -- OID minting and overflow pages ----------------------------------

    def mint(self, collection: str, data: dict[str, Any]) -> Oid:
        """Allocate a fresh OID (and its page) for a new object."""
        catalog = self._store.catalog
        type_name = catalog.collection(collection).element_type
        with self._lock:
            serial, page, slots = self._allocators.get(
                type_name, (self._base_serial(type_name), -1, 0)
            )
            if slots <= 0:
                object_size = catalog.type_of(type_name).object_size
                per_page = max(1, catalog.page_size // object_size)
                page = self._next_overflow_page()
                slots = per_page
            oid = Oid(type_name, serial)
            self._overflow_pages[oid] = page
            self._allocators[type_name] = (serial + 1, page, slots - 1)
        # The disk span grows at *commit*, not here: a rolled-back
        # insert must not permanently stretch the seek model.  (The
        # seek-cost fraction clamps at 1.0, so a read-your-own-writes
        # fetch of a not-yet-committed page is still well-defined.)
        return oid

    def _base_serial(self, type_name: str) -> int:
        try:
            return len(self._store.segment(type_name).oids)
        except StorageError:
            return 0

    def _next_overflow_page(self) -> int:
        if self._overflow_next is None:
            self._overflow_next = (
                self._store.total_pages() + OVERFLOW_PAGE_GAP
            )
        page = self._overflow_next
        self._overflow_next += 1
        return page

    def overflow_page(self, oid: Oid) -> int | None:
        """The page of a post-seal object, or None for base objects."""
        return self._overflow_pages.get(oid)

    # -- conflicts -------------------------------------------------------

    def check_conflict(self, txn: Transaction, oid: Oid) -> None:
        """First-committer-wins check for one written object."""
        last = self._last_write.get(oid, 0)
        if last > txn.snapshot:
            raise WriteConflict(
                f"write-write conflict on {oid!r}: committed at csn "
                f"{last}, after this transaction's snapshot "
                f"{txn.snapshot}",
                oid=oid,
            )

    def check_visible(self, txn: Transaction, oid: Oid) -> None:
        """Reject writes to objects that do not exist at the snapshot."""
        if self.reader(txn.snapshot)(oid) is None:
            raise TransactionError(
                f"cannot write unknown or deleted object {oid!r}"
            )

    # -- commit ----------------------------------------------------------

    def auto_collections(self, target: str, type_name: str) -> tuple[str, ...]:
        """Collections an insert into ``target`` implicitly joins.

        Inserting into a named set also inserts into the element type's
        extent (an extent is the set of *all* instances); inserting into
        the extent joins nothing else.
        """
        extent = self._store.catalog.extent_of(type_name)
        if extent is not None and extent.name != target:
            if self._store.has_collection(extent.name):
                return (extent.name,)
        return ()

    def collections_containing(self, oid: Oid) -> list[str]:
        """Collections the object currently (latest commit) belongs to."""
        out: list[str] = []
        for name in self._store.collection_names():
            element = self._store.catalog.collection(name).element_type
            if element != oid.type_name:
                continue
            if oid in self._current_members(name):
                out.append(name)
        return out

    def _current_members(self, name: str) -> set[Oid]:
        members = self._member_sets.get(name)
        if members is None:
            members = set(self._store.base_collection_oids(name))
            self._member_sets[name] = members
        return members

    def commit(self, txn: Transaction) -> int:
        """Apply a transaction's writes; see :meth:`Transaction.commit`.

        With durability attached the order under the lock is: conflict
        checks → CSN assignment → log append + fsync → in-memory apply →
        CSN publish → listeners.  The log append may raise (real I/O
        error, simulated crash); at that point *nothing* has been
        applied, so the failed commit was never visible and was never
        acknowledged — memory and log agree it didn't happen.
        """
        with self._lock:
            for oid in list(txn.updates) + list(txn.deletes):
                self.check_conflict(txn, oid)
            csn = self._csn + 1
            if self.durability is not None:
                self.durability.log_commit(csn, txn)
            record = self._apply_locked(
                csn, txn.updates, txn.deletes, txn.inserts
            )
            # Publish last: a reader pinned at any s < csn has already
            # failed every `<= s` test above; bumping the CSN is the
            # single atomic act that makes the commit visible.
            self.dirty = True
            self._csn = csn
            self._notify(record)
        return csn

    def _apply_locked(self, csn, updates, deletes, inserts) -> CommitRecord:
        """Append one commit's version/membership entries (lock held).

        Shared by :meth:`commit` and :meth:`apply_recovered`, so replay
        goes through the exact code the original commit did — index
        maintenance included, still before the CSN is published.  Deletes
        apply in sorted OID order to make the member-log byte-for-byte
        reproducible regardless of set iteration order.
        """
        record = CommitRecord(csn=csn)
        #: collection -> members this commit (updated, removed, added).
        members: dict[str, tuple[list[Oid], list[Oid], list[Oid]]] = {}
        for oid, data in updates.items():
            self._versions.setdefault(oid, []).append((csn, data))
            self._last_write[oid] = csn
            record.updated += 1
            for name in self.collections_containing(oid):
                members.setdefault(name, ([], [], []))[0].append(oid)
                record.deltas.setdefault(name, 0)
        removed = sorted(deletes)
        for oid in removed:
            self._versions.setdefault(oid, []).append((csn, None))
            self._last_write[oid] = csn
            for name in self.collections_containing(oid):
                self._member_log.setdefault(name, []).append(
                    (csn, -1, oid)
                )
                self._current_members(name).discard(oid)
                members.setdefault(name, ([], [], []))[1].append(oid)
                record.deltas[name] = record.deltas.get(name, 0) - 1
        last_page = -1
        for entry in inserts:
            if entry is None:
                continue
            target, oid, data = entry
            self._versions.setdefault(oid, []).append((csn, data))
            page = self._overflow_pages.get(oid)
            if page is not None:
                last_page = max(last_page, page)
            names = (target, *self.auto_collections(target, oid.type_name))
            for name in names:
                self._member_log.setdefault(name, []).append(
                    (csn, +1, oid)
                )
                self._current_members(name).add(oid)
                members.setdefault(name, ([], [], []))[2].append(oid)
                record.deltas[name] = record.deltas.get(name, 0) + 1
        # A fresh latest list per changed collection: no scan at or after
        # this CSN folds the log.
        for name, (_, gone, added) in members.items():
            if gone or added:
                kept = self.members_at(name, csn - 1)
                if gone:
                    drop = set(gone)
                    kept = [oid for oid in kept if oid not in drop]
                self._latest[name] = (csn, kept + added)
        # Every version and membership event of the commit is chained, so
        # the indexes can read the state before (csn - 1) and after (csn).
        self._store.indexes.note_commit(csn, [*updates, *removed], members)
        if last_page >= 0:
            self._store.disk.extend_span(last_page + 1)
        return record

    def _notify(self, record: CommitRecord) -> None:
        """Invoke commit listeners, containing their failures.

        By the time listeners run the commit is durable (logged, fsynced)
        and published (CSN bumped) — a listener raising must not travel
        back up through ``Transaction.commit`` and make the caller roll
        back / report failure for a transaction that actually committed.
        Listener bugs surface as warnings instead.
        """
        for listener in self._listeners:
            try:
                listener(record)
            except Exception as exc:  # noqa: BLE001 - see docstring
                warnings.warn(
                    f"commit listener {listener!r} raised {exc!r}; "
                    f"commit {record.csn} stands",
                    RuntimeWarning,
                    stacklevel=3,
                )

    # -- durability: recovery replay and checkpoint state ----------------

    def apply_recovered(
        self,
        csn: int,
        updates: dict[Oid, dict[str, Any]],
        deletes: list[Oid],
        inserts: list[tuple[str, Oid, dict[str, Any]]],
        minted: list[Oid],
    ) -> None:
        """Replay one logged commit during recovery.

        Runs the allocator for every OID the original transaction minted
        (so post-recovery minting continues the serial chain without
        collisions), then applies the writes through the same code path
        :meth:`commit` uses — listeners included, so the catalog's data
        versions advance exactly as they did the first time.  Never logs:
        these records are already in the log.
        """
        with self._lock:
            if csn <= self._csn:
                return
            self._replay_mints(minted)
            record = self._apply_locked(csn, updates, deletes, inserts)
            self.dirty = True
            self._csn = csn
            self._notify(record)

    def _replay_mints(self, minted: list[Oid]) -> None:
        """Re-run the allocator for logged mints (lock held).

        Serial numbers follow the logged OIDs (mints by *rolled-back*
        transactions were never logged, so the replayed allocator may
        skip serials the original burned — logged serials are
        authoritative).  Page/slot assignment re-runs the normal
        first-fit logic, which can differ from the original exactly when
        unlogged mints consumed slots; page ids affect only simulated
        I/O accounting, never data.
        """
        catalog = self._store.catalog
        for oid in minted:
            type_name = oid.type_name
            serial, page, slots = self._allocators.get(
                type_name, (self._base_serial(type_name), -1, 0)
            )
            if slots <= 0:
                object_size = catalog.type_of(type_name).object_size
                per_page = max(1, catalog.page_size // object_size)
                page = self._next_overflow_page()
                slots = per_page
            serial = max(serial, oid.serial)
            self._overflow_pages[oid] = page
            self._allocators[type_name] = (serial + 1, page, slots - 1)

    def state_snapshot(self) -> dict[str, Any]:
        """The MVCC state at the current CSN, for a checkpoint.

        Each written object's newest version (tombstones included), and
        each collection's membership events net of rows inserted and
        later deleted: no snapshot older than the checkpoint outlives a
        restart, so its size follows the objects written, not the
        commits.  The caller must hold :attr:`commit_lock` — checkpoints
        hold it across snapshot, file write, and log truncate so no
        commit can land in between and be dropped.
        """
        member_log = {}
        for name, log in self._member_log.items():
            added = {oid for _, delta, oid in log if delta > 0}
            gone = {oid for _, delta, oid in log if delta < 0 and oid in added}
            net = [event for event in log if event[2] not in gone]
            if net:
                member_log[name] = net
        return {
            "csn": self._csn,
            "dirty": self.dirty,
            "versions": {
                oid: [chain[-1]] for oid, chain in self._versions.items()
            },
            "member_log": member_log,
            "last_write": dict(self._last_write),
            "overflow_pages": dict(self._overflow_pages),
            "allocators": dict(self._allocators),
            "overflow_next": self._overflow_next,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Install a checkpointed :meth:`state_snapshot` (recovery only).

        Rebuilds the latest membership and the member sets from the
        restored logs and re-extends the disk span over committed
        overflow pages, so every derived structure matches what the
        original engine held at the checkpoint CSN.
        """
        with self._lock:
            self._csn = state["csn"]
            self.dirty = state["dirty"]
            # In place: readers hold the chains' lookup (see `reader`).
            self._versions.clear()
            self._versions.update(
                (oid, list(chain)) for oid, chain in state["versions"].items()
            )
            self._member_log = {
                name: list(log) for name, log in state["member_log"].items()
            }
            self._latest = {
                name: (self._csn, self._fold(name, self._csn))
                for name in self._member_log
            }
            self._last_write = dict(state["last_write"])
            self._overflow_pages = dict(state["overflow_pages"])
            self._allocators = dict(state["allocators"])
            self._overflow_next = state["overflow_next"]
            # `_current_members` lazily seeds from *base* members only;
            # after a restore the member sets must reflect the restored
            # member log too, so precompute them all eagerly.
            self._member_sets = {
                name: set(self.members_at(name, self._csn))
                for name in self._store.collection_names()
            }
            pages = [
                page
                for oid, page in self._overflow_pages.items()
                if oid in self._versions
            ]
            if pages:
                self._store.disk.extend_span(max(pages) + 1)
            # Built indexes describe the state just replaced; the next
            # probe rebuilds each at the restored CSN.
            self._store.indexes.clear()

    # -- visibility ------------------------------------------------------

    def reader(
        self, snapshot: int, txn: Transaction | None = None
    ) -> Callable[[Oid], dict[str, Any] | None]:
        """The one visibility rule: ``read(oid)`` is the record ``oid``
        has at ``snapshot`` — the latest version chained at a CSN ``<=
        snapshot``, else its base record — overlaid with ``txn``'s own
        writes when given; None when the object is deleted or unknown."""
        # Bound dict lookups, the base records' included: a read is the
        # closure's own frame only.
        chain_of, base = self._versions.get, self._store._data.get

        def read(oid: Oid) -> dict[str, Any] | None:
            chain = chain_of(oid)
            if chain is not None:
                for csn, data in reversed(chain):
                    if csn <= snapshot:
                        return data
            return base(oid)

        if txn is None:
            return read

        def read_own(oid: Oid) -> dict[str, Any] | None:
            if oid in txn.deletes:
                return None
            if oid in txn._inserted:
                return txn.inserts[txn._inserted[oid]][2]
            data = txn.updates.get(oid)
            return data if data is not None else read(oid)

        return read_own

    def members_at(self, name: str, snapshot: int) -> list[Oid]:
        """Membership of a collection at a snapshot, in scan order: the
        latest commit's list, or a fold of the log for an older snapshot."""
        latest = self._latest.get(name)
        if latest is None:
            return self._store.base_collection_oids(name)
        if snapshot >= latest[0]:
            return latest[1]
        return self._fold(name, snapshot)

    def _fold(self, name: str, snapshot: int) -> list[Oid]:
        """Replay a collection's member log up to ``snapshot``."""
        removed: set[Oid] = set()
        added: list[Oid] = []
        for csn, delta, oid in self._member_log[name]:
            if csn > snapshot:
                continue
            if delta < 0:
                removed.add(oid)
            else:
                added.append(oid)
        base = self._store.base_collection_oids(name)
        kept = [oid for oid in base if oid not in removed]
        kept.extend(oid for oid in added if oid not in removed)
        return kept

    def ever_members(self, name: str) -> list[Oid]:
        """Every object that was ever a member, in scan order: base
        members, then inserted ones in insertion order.  Membership at
        any snapshot is a subsequence of this list."""
        members = list(self._store.base_collection_oids(name))
        members.extend(
            oid for _, delta, oid in self._member_log.get(name, ()) if delta > 0
        )
        return members


class SnapshotView:
    """A read view of a store pinned at one snapshot CSN.

    Exposes the :class:`~repro.storage.store.ObjectStore` read surface
    (``scan`` / ``fetch`` / ``peek`` / ``collection_oids`` / partition
    scans), resolving every read at ``snapshot`` — optionally overlaid
    with one in-flight transaction's own writes.  Everything else
    (buffer pool, disk, catalog, temp pages) delegates to the store, so
    iterators, index builds, and spill operators take a view anywhere
    they take a store.
    """

    def __init__(
        self,
        store: "ObjectStore",
        snapshot: int,
        txn: Transaction | None = None,
    ) -> None:
        self._store = store
        self.snapshot = snapshot
        self.txn = txn
        #: ``read(oid)``: the record this view sees, None when deleted.
        self._read = store.mvcc.reader(snapshot, txn)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    # -- the store read surface ------------------------------------------

    def peek(self, oid: Oid) -> dict[str, Any]:
        """Snapshot read without I/O accounting (index builds, checks)."""
        data = self._read(oid)
        if data is None:
            raise StorageError(f"dangling reference {oid!r}")
        return data

    def fetch(self, oid: Oid) -> dict[str, Any]:
        """Snapshot read of one object, charging one page read."""
        data = self._read(oid)
        if data is None:
            raise StorageError(f"dangling reference {oid!r}")
        self._store.buffer.read_page(self._store.page_of(oid))
        return data

    def collection_oids(self, name: str) -> list[Oid]:
        """Member OIDs visible in this view, in scan order."""
        members = self._store.mvcc.members_at(name, self.snapshot)
        if self.txn is None:
            return members
        pending = self.txn.pending_members(name)
        deleted = self.txn.deletes
        if not pending and not deleted:
            return members
        # Copy before applying the overlay: `members_at` may hand back the
        # store's own base list.
        members = [oid for oid in members if oid not in deleted]
        members.extend(pending)
        return members

    def collection_cardinality(self, name: str) -> int:
        return len(self.collection_oids(name))

    def has_collection(self, name: str) -> bool:
        return self._store.has_collection(name)

    def scan(self, name: str, var: str) -> Iterator[dict[str, Obj]]:
        """Sequentially scan a collection at the snapshot, charging I/O,
        binding each member to ``var``."""
        return self._store._scan_members(
            name, self.collection_oids(name), self._read, var
        )

    # Kept for the frozen benchmark tracer; see ObjectStore.scan_partition.
    def scan_partition(
        self, name: str, partition: int, degree: int, var: str
    ) -> Iterator[dict[str, Obj]]:
        """Scan one contiguous share of the snapshot's page runs."""
        return self._store._scan_members(
            name, self.collection_oids(name), self._read, var, (partition, degree)
        )


__all__ = [
    "CommitRecord",
    "OVERFLOW_PAGE_GAP",
    "SnapshotView",
    "Transaction",
    "TransactionManager",
]
