"""The durability glue: manifest, commit hook, checkpoints, recovery.

A durable database directory contains:

* ``manifest.json`` — how to rebuild the *base* database (the seeded
  bootstrap: sample scale/seed or a fuzz ``WorldSpec``) plus the index
  DDL, so ``Database.open`` can reconstruct the sealed store the log
  was written against.
* ``checkpoint-<csn>.ckpt`` — the newest consistent snapshot (see
  :mod:`repro.durability.checkpoint`).
* ``wal.log`` — framed commit records since that checkpoint (see
  :mod:`repro.durability.wal`).

The :class:`DurabilityManager` hangs off ``Database.durability`` and
``TransactionManager.durability``; the latter calls :meth:`log_commit`
under the commit lock, after conflict checks and CSN assignment but
*before* any in-memory state changes — so a simulated crash during the
append leaves memory untouched and the log the only evidence.
"""

from __future__ import annotations

import json
import os
import threading
from typing import TYPE_CHECKING, Any

from repro.durability.checkpoint import (
    load_newest_checkpoint,
    write_checkpoint,
)
from repro.durability.codec import (
    decode_oid,
    decode_value,
    encode_oid,
    encode_record,
)
from repro.durability.wal import LOG_NAME, LogRecord, WalWriter, scan_log
from repro.errors import StorageError
from repro.governor.faults import CrashPlan

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api import Database
    from repro.storage.mvcc import Transaction

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = 1
CHECKPOINT_SCHEMA = 1


class DurabilityManager:
    """Owns one durable directory on behalf of one :class:`Database`.

    Create via ``Database.enable_durability(directory)`` (fresh
    directory) or ``Database.open(directory)`` (recovery); not usually
    constructed directly.
    """

    def __init__(
        self,
        directory: str,
        crash_plan: CrashPlan | None = None,
        checkpoint_every: int | None = None,
    ) -> None:
        self.directory = directory
        self.crash_plan = crash_plan
        #: Auto-checkpoint after this many logged commits (None = only
        #: explicit ``Database.checkpoint()`` / ``close()`` checkpoints).
        self.checkpoint_every = checkpoint_every
        self.db: "Database | None" = None
        self.wal: WalWriter | None = None
        self.commits_since_checkpoint = 0
        #: Set by :meth:`recover`: {"checkpoint_csn", "replayed"}.
        self.last_recovery: dict[str, int] | None = None
        # Serializes checkpoint/close against each other (the commit
        # lock serializes them against commits).
        self._admin_lock = threading.Lock()

    @property
    def log_path(self) -> str:
        return os.path.join(self.directory, LOG_NAME)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def initialize(self, db: "Database") -> None:
        """Make a fresh directory durable for ``db``.

        Writes the manifest, takes an initial checkpoint (capturing any
        commits the in-memory database already holds), and opens the
        log.  Refuses a directory that already has a manifest — reopen
        those with ``Database.open``.
        """
        if db.bootstrap is None:
            raise StorageError(
                "durability requires a reproducible bootstrap; build the "
                "database via Database.sample or the fuzz world generator"
            )
        os.makedirs(self.directory, exist_ok=True)
        if os.path.exists(self.manifest_path):
            raise StorageError(
                f"{self.directory!r} is already a durable database "
                "directory; reopen it with Database.open"
            )
        self._bind(db)
        self.write_manifest()
        self.wal = WalWriter(self.log_path, self.crash_plan)
        self.checkpoint()

    def recover(self, db: "Database") -> dict[str, int]:
        """Restore ``db`` from the directory: checkpoint, then log replay.

        Loads the newest checksum-valid checkpoint (if any), replays
        every complete log record with a CSN past it through the MVCC
        apply path, truncates a torn tail off the log file, and opens
        the log for new appends.  Safe to call on a freshly
        bootstrapped, never-written ``db`` only.
        """
        self._bind(db)
        mvcc = db.store.mvcc
        state = load_newest_checkpoint(self.directory)
        checkpoint_csn = 0
        if state is not None:
            mvcc.restore_state(_decode_mvcc(state["mvcc"]))
            db.catalog.restore_durable_state(state["catalog"])
            checkpoint_csn = state["csn"]
        records, valid_bytes = scan_log(self.log_path)
        replayed = 0
        for record in records:
            # Records at or below the recovered CSN are already covered
            # by the checkpoint (a crash after the checkpoint rename but
            # before the log truncate leaves them behind) — replaying
            # them again would double-apply; skipping makes recovery
            # idempotent.
            if record.csn <= mvcc.current_csn:
                continue
            mvcc.apply_recovered(
                record.csn,
                record.updates,
                record.deletes,
                record.inserts,
                record.minted,
            )
            replayed += 1
        if os.path.exists(self.log_path):
            size = os.path.getsize(self.log_path)
            if size > valid_bytes:
                with open(self.log_path, "r+b") as fh:
                    fh.truncate(valid_bytes)
                    fh.flush()
                    os.fsync(fh.fileno())
        self.wal = WalWriter(self.log_path, self.crash_plan)
        self.last_recovery = {
            "checkpoint_csn": checkpoint_csn,
            "replayed": replayed,
        }
        return self.last_recovery

    def close(self) -> None:
        """Final checkpoint, close the log, detach from the database."""
        with self._admin_lock:
            if self.db is None:
                return
            self._checkpoint_locked()
            if self.wal is not None:
                self.wal.close()
            self.db.store.mvcc.durability = None
            self.db.durability = None
            self.db = None

    def _bind(self, db: "Database") -> None:
        if db.store is None:
            raise StorageError("durability requires a populated store")
        self.db = db
        db.durability = self
        db.store.mvcc.durability = self

    # ------------------------------------------------------------------
    # The commit hook (called under the MVCC commit lock)
    # ------------------------------------------------------------------

    def log_commit(self, csn: int, txn: "Transaction") -> None:
        """Append and fsync one commit record — the durability point.

        Runs after conflict checks and CSN assignment, before any
        in-memory apply.  Raising here (a real I/O error or a simulated
        crash) aborts the commit with memory untouched: the transaction
        is never acknowledged, which is exactly the contract the crash
        oracle checks.
        """
        record = LogRecord(
            csn=csn,
            updates=dict(txn.updates),
            deletes=sorted(txn.deletes),
            inserts=[entry for entry in txn.inserts if entry is not None],
            minted=list(txn.minted),
        )
        if self.wal is None:
            raise StorageError("durability manager has no open log")
        self.wal.append(record)
        self.commits_since_checkpoint += 1

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the engine state at the current CSN and truncate the log.

        Holds the commit lock across snapshot → write → rename →
        truncate, so no commit can slip between the snapshot and the
        truncate and be lost.  Returns the checkpoint CSN.
        """
        with self._admin_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> int:
        db = self.db
        if db is None or db.store is None:
            raise StorageError("durability manager is closed")
        mvcc = db.store.mvcc
        with mvcc.commit_lock:
            raw = mvcc.state_snapshot()
            state = {
                "schema": CHECKPOINT_SCHEMA,
                "csn": raw["csn"],
                "mvcc": _encode_mvcc(raw),
                "catalog": db.catalog.durable_state(),
            }
            write_checkpoint(self.directory, state, self.crash_plan)
            if self.wal is not None:
                self.wal.truncate()
            self.commits_since_checkpoint = 0
            return raw["csn"]

    def maybe_checkpoint(self) -> int | None:
        """Auto-checkpoint when ``checkpoint_every`` commits accumulated."""
        if (
            self.checkpoint_every is not None
            and self.commits_since_checkpoint >= self.checkpoint_every
        ):
            return self.checkpoint()
        return None

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def write_manifest(self) -> None:
        """(Re)write the manifest: bootstrap recipe + current index DDL."""
        db = self.db
        if db is None:
            raise StorageError("durability manager is closed")
        doc = {
            "schema": MANIFEST_SCHEMA,
            "bootstrap": db.bootstrap,
            "indexes": [
                {
                    "name": ix.name,
                    "collection": ix.collection,
                    "path": list(ix.path),
                    "distinct_keys": ix.distinct_keys,
                }
                for ix in db.catalog.indexes()
            ],
        }
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, self.manifest_path)

    def open_database(self, database_cls: "type[Database]", config=None) -> "Database":
        """Rebuild the database the manifest describes, then recover it:
        the reading half of :meth:`write_manifest`'s format."""
        manifest = self.read_manifest(self.directory)
        bootstrap = manifest.get("bootstrap") or {}
        kind = bootstrap.get("kind")
        if kind == "sample":
            db = database_cls.sample(
                scale=bootstrap["scale"],
                seed=bootstrap["seed"],
                config=config,
            )
        elif kind == "world":
            from repro.fuzz.worldgen import WorldSpec, build_database

            db = build_database(WorldSpec.from_dict(bootstrap["spec"]))
            if config is not None:
                db.config = config
        else:
            raise StorageError(
                f"manifest has unknown bootstrap kind {kind!r}"
            )
        # Reconcile index DDL to the manifest: the bootstrap may create
        # its own indexes; the manifest records what actually existed.
        # Through the database's own DDL, so the store's index registry
        # follows; with the recorded distinct keys nothing is built here —
        # each index is built on first use, at the recovered CSN.
        wanted = {
            entry["name"]: entry for entry in manifest.get("indexes", [])
        }
        for index in list(db.catalog.indexes()):
            if index.name not in wanted:
                db.drop_index(index.name)
        existing = {index.name for index in db.catalog.indexes()}
        for name, entry in wanted.items():
            if name not in existing:
                db.create_index(
                    name,
                    entry["collection"],
                    tuple(entry["path"]),
                    entry["distinct_keys"],
                )
        self.recover(db)
        return db

    @staticmethod
    def read_manifest(directory: str) -> dict:
        """Load and validate ``manifest.json`` from a durable directory."""
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise StorageError(
                f"{directory!r} is not a durable database directory "
                "(no manifest.json)"
            ) from None
        except ValueError as exc:
            raise StorageError(f"corrupt manifest in {directory!r}: {exc}") from None
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise StorageError(
                f"unsupported manifest schema {manifest.get('schema')!r}"
            )
        return manifest

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """One dict for `.durability` and tests."""
        db = self.db
        return {
            "directory": self.directory,
            "attached": db is not None,
            "csn": (
                db.store.mvcc.current_csn
                if db is not None and db.store is not None
                else None
            ),
            "commits_since_checkpoint": self.commits_since_checkpoint,
            "checkpoint_every": self.checkpoint_every,
            "last_recovery": self.last_recovery,
        }


# ----------------------------------------------------------------------
# MVCC state <-> JSON
# ----------------------------------------------------------------------


def _encode_mvcc(raw: dict) -> dict:
    """JSON-encode a raw ``TransactionManager.state_snapshot`` dict."""
    return {
        "versions": [
            [
                encode_oid(oid),
                [[csn, encode_record(data)] for csn, data in chain],
            ]
            for oid, chain in raw["versions"].items()
        ],
        "member_log": {
            name: [[csn, delta, encode_oid(oid)] for csn, delta, oid in log]
            for name, log in raw["member_log"].items()
        },
        "last_write": [
            [encode_oid(oid), csn] for oid, csn in raw["last_write"].items()
        ],
        "overflow_pages": [
            [encode_oid(oid), page]
            for oid, page in raw["overflow_pages"].items()
        ],
        "allocators": {
            name: list(triple) for name, triple in raw["allocators"].items()
        },
        "overflow_next": raw["overflow_next"],
        "csn": raw["csn"],
        "dirty": raw["dirty"],
    }


def _decode_mvcc(doc: dict) -> dict:
    """Invert :func:`_encode_mvcc` back to raw Python state (keys this
    version does not write, such as an older checkpoint's ``touch_csns``,
    are ignored)."""
    return {
        "csn": doc["csn"],
        "dirty": doc["dirty"],
        "versions": {
            decode_oid(pair): [
                (csn, decode_value(data)) for csn, data in chain
            ]
            for pair, chain in doc["versions"]
        },
        "member_log": {
            name: [(csn, delta, decode_oid(pair)) for csn, delta, pair in log]
            for name, log in doc["member_log"].items()
        },
        "last_write": {
            decode_oid(pair): csn for pair, csn in doc["last_write"]
        },
        "overflow_pages": {
            decode_oid(pair): page for pair, page in doc["overflow_pages"]
        },
        "allocators": {
            name: tuple(triple) for name, triple in doc["allocators"].items()
        },
        "overflow_next": doc["overflow_next"],
    }


__all__ = ["DurabilityManager", "MANIFEST_NAME"]
