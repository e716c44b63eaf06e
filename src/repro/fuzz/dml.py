"""The DML-interleaved differential oracle.

The plan-equivalence fuzzer (:mod:`repro.fuzz.oracle`) checks that every
engine configuration computes the same *answer* to a read-only query.
This module extends the idea to writes: one seeded batch of
INSERT/UPDATE/DELETE statements — some auto-committed, some grouped
into explicit transactions — is applied to a fresh copy of the same
world under every configuration, with a deterministic ordered read
after each statement.  The transcripts (every read's exact row
sequence, every typed error's class name, every final collection scan)
must be **byte-identical** across configurations: plan cache on or off,
restricted rule sets.  Any divergence means MVCC visibility, catalog
data-versioning, or the plan cache disagreed about the same committed
history.

Indexes are part of that history.  After every statement the transcript
takes one equality probe per index of the world (``WHERE <indexed path>
== <value>``, inside the open transaction when there is one), so the
``no-index-collapse`` configuration answers from scans what the others
answer from the maintained index; and after every commit each
maintained index must equal a fresh ``IndexRuntime.build`` of the same
state — same keys, same OID order per key, same entry count.

:class:`DmlMode` plugs it into the harness.  Its shrink candidates drop
ops one at a time, then shrink the world through the plan oracle's
candidates; minimal repros serialize into ``tests/corpus/`` as
``repro-dml-*.json``.  :func:`walk_batch` is the one transaction-group
walk, which the crash oracle replays workloads with too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api import Database
from repro.errors import ReproError, StorageError
from repro.fuzz.querygen import QuerySpec
from repro.fuzz.runner import Finding, Mode, first_difference
from repro.fuzz.shrink import world_candidates
from repro.fuzz.worldgen import IndexSpec, WorldSpec, build_database
from repro.optimizer.config import (
    COLLAPSE_TO_INDEX_SCAN,
    HYBRID_HASH_JOIN,
    MERGE_JOIN,
)
from repro.storage.index import IndexRuntime

#: Read-path configurations every batch is replayed under.
DML_CONFIGS = (
    "cache-off",
    "no-index-collapse",
    "no-hash-join",
)

#: Ops per generated batch (before shrinking).
DEFAULT_OPS_PER_BATCH = 8


def _render_value(value) -> str:
    if isinstance(value, str):
        return "'" + value + "'"
    if value is None:
        return "null"
    return str(value)


@dataclass(frozen=True)
class DmlOpSpec:
    """One DML statement of a batch, as structured (shrinkable) data.

    ``txn_group`` groups consecutive ops into one explicit transaction
    (committed when the group's last op has run); ``None`` means
    auto-commit.  All generated values are scalars, so rendering is
    lossless.
    """

    kind: str  # "insert" | "update" | "delete"
    collection: str
    var: str = "x"
    columns: tuple[str, ...] = ()
    values: tuple[tuple, ...] = ()  # insert rows
    set_attr: str | None = None
    set_value: object = None
    where_attr: str | None = None
    where_op: str = "=="
    where_value: object = 0
    txn_group: int | None = None

    def render(self) -> str:
        """The statement's ZQL text."""
        if self.kind == "insert":
            columns = ", ".join(self.columns)
            rows = ", ".join(
                "(" + ", ".join(_render_value(v) for v in row) + ")"
                for row in self.values
            )
            return f"INSERT INTO {self.collection} ({columns}) VALUES {rows}"
        where = ""
        if self.where_attr is not None:
            where = (
                f" WHERE {self.var}.{self.where_attr} {self.where_op} "
                f"{_render_value(self.where_value)}"
            )
        if self.kind == "update":
            return (
                f"UPDATE {self.var} IN {self.collection} SET "
                f"{self.var}.{self.set_attr} = "
                f"{_render_value(self.set_value)}{where}"
            )
        return f"DELETE {self.var} IN {self.collection}{where}"

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "collection": self.collection,
            "var": self.var,
            "columns": list(self.columns),
            "values": [list(row) for row in self.values],
            "set_attr": self.set_attr,
            "set_value": self.set_value,
            "where_attr": self.where_attr,
            "where_op": self.where_op,
            "where_value": self.where_value,
            "txn_group": self.txn_group,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DmlOpSpec":
        """Rebuild an op from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            collection=data["collection"],
            var=data.get("var", "x"),
            columns=tuple(data.get("columns", ())),
            values=tuple(tuple(row) for row in data.get("values", ())),
            set_attr=data.get("set_attr"),
            set_value=data.get("set_value"),
            where_attr=data.get("where_attr"),
            where_op=data.get("where_op", "=="),
            where_value=data.get("where_value", 0),
            txn_group=data.get("txn_group"),
        )


@dataclass(frozen=True)
class DmlBatchSpec:
    """A whole case: the ordered ops plus the collections read back."""

    ops: tuple[DmlOpSpec, ...]

    def collections(self) -> tuple[str, ...]:
        """Every collection the batch writes, in first-touch order."""
        seen: list[str] = []
        for op in self.ops:
            if op.collection not in seen:
                seen.append(op.collection)
        return tuple(seen)

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {"ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_dict(cls, data: dict) -> "DmlBatchSpec":
        """Rebuild a batch from :meth:`to_dict` output."""
        return cls(ops=tuple(DmlOpSpec.from_dict(o) for o in data["ops"]))


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _scalar_attrs(world: WorldSpec, type_name: str):
    return [
        a for a in world.type_spec(type_name).attrs if a.kind == "scalar"
    ]


def _scalar_value(rng: random.Random, attr) -> object:
    if attr.scalar_type == "str":
        return f"w{rng.randrange(max(1, attr.distinct))}"
    return rng.randrange(max(1, attr.distinct))


def _index_path_links(world: WorldSpec) -> dict[str, list[tuple[str, bool]]]:
    """Per type, the (attribute, is the root's own) links that some index
    path of the world reads: writing one of them moves index entries."""
    element = dict(world.collections())
    links: dict[str, list[tuple[str, bool]]] = {}
    for index in world.indexes:
        type_name = element[index.collection]
        for level, link in enumerate(index.path):
            links.setdefault(type_name, []).append((link, level == 0))
            if level < len(index.path) - 1:
                type_name = next(
                    a.target
                    for a in world.type_spec(type_name).attrs
                    if a.name == link
                )
    return links


def random_batch(
    rng: random.Random,
    world: WorldSpec,
    ops: int = DEFAULT_OPS_PER_BATCH,
) -> DmlBatchSpec:
    """Draw one seeded write batch against ``world``'s collections.

    Only collections whose element type has at least one scalar
    attribute are touched (updates and WHERE clauses need one), and
    deletes are kept rarer than inserts so collections do not drain
    (and never remove an object an index path passes through).
    A share of the updates is aimed at what the world's indexes read:
    the keyed attribute itself, on the object that holds it (the root
    of an attribute index, a *referenced* object of a path index), and
    the links of a path, set to null.
    """
    candidates = [
        (coll, type_name)
        for coll, type_name in world.collections()
        if _scalar_attrs(world, type_name)
    ]
    if not candidates:
        return DmlBatchSpec(ops=())
    indexed = _index_path_links(world)
    # Collections of objects an index path passes through below its root.
    referenced = [
        (coll, type_name)
        for coll, type_name in candidates
        if any(not own for _, own in indexed.get(type_name, ()))
    ]
    out: list[DmlOpSpec] = []
    group: int | None = None
    groups = 0
    for i in range(ops):
        if group is None and rng.random() < 0.25:
            group = groups = groups + 1
        elif group is not None and rng.random() < 0.5:
            group = None
        coll, type_name = rng.choice(candidates)
        kind = rng.choices(
            ("insert", "update", "delete"), weights=(4, 4, 2)
        )[0]
        if kind == "update" and referenced and rng.random() < 0.4:
            coll, type_name = rng.choice(referenced)
        if kind == "delete" and (coll, type_name) in referenced:
            # A deleted object that an index path still points at makes
            # the probe's answer depend on the plan (a join drops the
            # root, an assembly raises on the dangling reference, as a
            # fresh index build does) — not this oracle's subject.
            spared = [c for c in candidates if c not in referenced]
            if spared:
                coll, type_name = rng.choice(spared)
            else:
                kind = "update"
        scalars = _scalar_attrs(world, type_name)
        where = rng.choice(scalars)
        if kind == "insert":
            chosen = [
                a for a in scalars if rng.random() < 0.8
            ] or scalars[:1]
            rows = tuple(
                tuple(_scalar_value(rng, a) for a in chosen)
                for _ in range(rng.randint(1, 3))
            )
            out.append(
                DmlOpSpec(
                    kind="insert",
                    collection=coll,
                    columns=tuple(a.name for a in chosen),
                    values=rows,
                    txn_group=group,
                )
            )
        elif kind == "update":
            target = rng.choice(scalars)
            value = _scalar_value(rng, target)
            links = indexed.get(type_name)
            if links and rng.random() < 0.5:
                by_name = {a.name: a for a in world.type_spec(type_name).attrs}
                target = by_name[rng.choice(links)[0]]
                # A link of a path can only be cut (ZQL assigns no OIDs).
                value = (
                    _scalar_value(rng, target)
                    if target.kind == "scalar"
                    else None
                )
            out.append(
                DmlOpSpec(
                    kind="update",
                    collection=coll,
                    set_attr=target.name,
                    set_value=value,
                    where_attr=where.name,
                    where_op=rng.choice(("==", "<", ">=")),
                    where_value=_scalar_value(rng, where),
                    txn_group=group,
                )
            )
        else:
            out.append(
                DmlOpSpec(
                    kind="delete",
                    collection=coll,
                    where_attr=where.name,
                    where_op="==",
                    where_value=_scalar_value(rng, where),
                    txn_group=group,
                )
            )
    return DmlBatchSpec(ops=tuple(out))


# ----------------------------------------------------------------------
# Replay and comparison
# ----------------------------------------------------------------------


def _read_query(world: WorldSpec, collection: str) -> str:
    """A totally-ordered scan of one collection (exactly comparable)."""
    for coll, type_name in world.collections():
        if coll == collection:
            scalars = _scalar_attrs(world, type_name)
            if scalars:
                return (
                    f"SELECT * FROM x IN {collection} "
                    f"ORDER BY x.{scalars[0].name} ASC"
                )
    return f"SELECT * FROM x IN {collection}"


def _index_probe(world: WorldSpec, index: IndexSpec, salt: str) -> tuple[str, bool]:
    """One equality read through ``index``'s path, and whether the query
    orders its rows itself.  The constant is drawn (seeded by ``salt``,
    so every configuration asks the same question) from the values the
    world's data or the batch generator can have put there."""
    element = dict(world.collections())[index.collection]
    holder = world.type_spec(element)
    for link in index.path[:-1]:
        target = next(a.target for a in holder.attrs if a.name == link)
        holder = world.type_spec(target)
    keyed = next(a for a in holder.attrs if a.name == index.path[-1])
    rng = random.Random(f"index-probe:{salt}:{index.name}")
    choice = rng.randrange(max(1, keyed.distinct))
    if keyed.scalar_type == "str":
        value = rng.choice((f"{keyed.name}_{choice}", f"w{choice}"))
    else:
        value = choice
    text = (
        f"SELECT * FROM x IN {index.collection} "
        f"WHERE x.{'.'.join(index.path)} == {_render_value(value)}"
    )
    scalars = _scalar_attrs(world, element)
    if scalars:
        return f"{text} ORDER BY x.{scalars[0].name} ASC", True
    return text, False


@dataclass
class IndexChecks:
    """Maintained index against fresh build, after commits and recovery."""

    performed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, db: Database, label: str) -> None:
        """Every catalog index of ``db`` must equal ``IndexRuntime.build``
        on the latest committed state: same keys, same OID order per key,
        same entry count — or both must find a dangling reference."""
        for definition in db.catalog.indexes():
            self.performed += 1
            maintained = db.store.indexes.get(definition)
            try:
                fresh = IndexRuntime.build(db.store.view(), definition)
            except StorageError:
                if not maintained.dangling():
                    self.problems.append(
                        f"{label} {definition.name}: a fresh build finds a "
                        "dangling reference, the maintained index does not"
                    )
                continue
            if maintained.dangling():
                self.problems.append(
                    f"{label} {definition.name}: the maintained index holds "
                    "a dangling reference no fresh build finds"
                )
            elif maintained.entry_count != fresh.entry_count:
                self.problems.append(
                    f"{label} {definition.name}: entry count "
                    f"{maintained.entry_count}, a fresh build has "
                    f"{fresh.entry_count}"
                )
            elif maintained.entries != fresh.entries:
                keys = [
                    key
                    for key in {*maintained.entries, *fresh.entries}
                    if maintained.entries.get(key) != fresh.entries.get(key)
                ]
                self.problems.append(
                    f"{label} {definition.name}: buckets differ from a "
                    f"fresh build under keys {keys[:3]!r}"
                )


def _row_bytes(row: dict) -> str:
    """One row rendered canonically: oid plus sorted resident data."""
    parts = []
    for name in sorted(row):
        value = row[name]
        oid = getattr(value, "oid", None)
        if oid is not None:
            data = getattr(value, "data", None)
            rendered = (
                "{"
                + ",".join(
                    f"{k}={data[k]!r}" for k in sorted(data)
                )
                + "}"
                if data is not None
                else "-"
            )
            parts.append(f"{name}={oid}:{rendered}")
        else:
            parts.append(f"{name}={value!r}")
    return "|".join(parts)


def walk_batch(
    db: Database,
    batch: DmlBatchSpec,
    after=None,
    stop_after: int | None = None,
    **options,
) -> int:
    """Apply the batch's ops in order; returns the acknowledged commits.

    Ops with a ``txn_group`` share one explicit transaction, committed at
    the group's last op; the rest auto-commit.  ``options`` go to every
    ``db.query``.  ``after(position, op, outcome, commit, txn)`` sees each
    op's outcome (its result, or the ``ReproError`` it raised), the
    commit's (a CSN or an error; ``None`` when the op closes no group) and
    the transaction still open (``None`` once committed or auto-committed).
    ``stop_after`` ends the walk at that many acknowledged commits,
    checked before every op, so a group whose commit would exceed it is
    abandoned.  Groups left open are rolled back, except when an exception
    escapes: a ``SimulatedCrash`` leaves the "dead" engine's transactions
    as they are, since a killed process runs no rollback code.
    """
    acknowledged = 0
    open_txns: dict[int, object] = {}
    last = {op.txn_group: position for position, op in enumerate(batch.ops)}
    for position, op in enumerate(batch.ops):
        if stop_after is not None and acknowledged >= stop_after:
            break
        txn = None
        if op.txn_group is not None:
            txn = open_txns.get(op.txn_group)
            if txn is None:
                txn = open_txns[op.txn_group] = db.begin()
        try:
            outcome = db.query(op.render(), transaction=txn, **options)
            acknowledged += txn is None
        except ReproError as exc:
            outcome = exc
        commit = None
        if op.txn_group is not None and last[op.txn_group] == position:
            del open_txns[op.txn_group]
            try:
                commit = txn.commit()
                acknowledged += 1
            except ReproError as exc:
                commit = exc
            txn = None
        if after is not None:
            after(position, op, outcome, commit, txn)
    for txn in open_txns.values():
        txn.rollback()
    return acknowledged


def replay(
    db: Database,
    world: WorldSpec,
    batch: DmlBatchSpec,
    use_cache: bool = True,
    config=None,
    index_checks: IndexChecks | None = None,
) -> list[str]:
    """Apply the batch, reading after every op; returns the transcript.

    The transcript has one line per event: each statement's outcome
    (affected count or typed error class), one equality probe per index
    after every statement (through the statement's transaction while it
    is open), each post-commit ordered read, and a final ordered scan of
    every touched collection.  Two correct configurations must produce
    byte-identical transcripts.  ``index_checks`` additionally compares
    every maintained index with a fresh build after each commit.
    """
    transcript: list[str] = []

    def query(text: str, txn=None):
        return db.query(text, use_cache=use_cache, config=config, transaction=txn)

    def read(collection: str, label: str) -> None:
        result = query(_read_query(world, collection))
        body = ";".join(_row_bytes(row) for row in result.rows)
        transcript.append(f"{label} {collection}: {body}")

    def probe_indexes(position: int, txn) -> None:
        for index in world.indexes:
            text, ordered = _index_probe(world, index, str(position))
            try:
                rows = query(text, txn).rows
            except ReproError as exc:
                body = type(exc).__name__
            else:
                rendered = [_row_bytes(row) for row in rows]
                body = ";".join(rendered if ordered else sorted(rendered))
            transcript.append(f"op{position} probe {index.name}: {body}")

    def after(position, op, outcome, commit, txn) -> None:
        if isinstance(outcome, ReproError):
            transcript.append(f"op{position} {op.kind}: {type(outcome).__name__}")
        else:
            transcript.append(f"op{position} {op.kind}: affected={outcome.affected}")
        if isinstance(commit, ReproError):
            transcript.append(f"op{position} commit: {type(commit).__name__}")
        elif commit is not None:
            transcript.append(f"op{position} commit: csn={commit}")
        if txn is None and index_checks is not None:
            index_checks.run(db, f"op{position}")
        probe_indexes(position, txn)
        if txn is None:
            read(op.collection, f"op{position} read")

    walk_batch(db, batch, after, use_cache=use_cache, config=config)
    for collection in batch.collections():
        read(collection, "final")
    return transcript


def _replay_options(kind: str, db: Database) -> dict:
    """The :func:`replay` keywords that make up one of ``DML_CONFIGS``."""
    if kind == "cache-off":
        return {"use_cache": False}
    if kind == "no-index-collapse":
        return {"config": db.config.without(COLLAPSE_TO_INDEX_SCAN)}
    if kind == "no-hash-join":
        return {"config": db.config.without(HYBRID_HASH_JOIN, MERGE_JOIN)}
    raise ValueError(f"unknown DML configuration {kind!r}")


@dataclass(frozen=True)
class DmlMode(Mode):
    """A case is ``(world, batch, ...)``: one seeded write batch over a
    fresh world, replayed under every one of ``DML_CONFIGS``."""

    name = "dml"
    prefix = "repro-dml-"
    world_tag = "dml-world"
    batch_tag = "dml-batch"
    counts = (
        ("replays", "configuration replays"),
        ("index_checks", "index-equality checks"),
    )
    ops_per_batch: int = DEFAULT_OPS_PER_BATCH

    def draw(self, seed, i, world, counts):
        rng = random.Random(f"{seed}:{self.batch_tag}:{i}")
        batch = random_batch(rng, world, ops=self.ops_per_batch)
        return (world, batch) if batch.ops else None

    def check(self, case, counts, db=None):
        """Replay the batch under every configuration; the findings are
        transcript divergences from the reference, and any maintained
        index that differs from a fresh build."""
        world, batch = case
        if not batch.ops:
            return None
        checks = IndexChecks()
        reference = replay(build_database(world), world, batch, index_checks=checks)
        findings = []
        for kind in DML_CONFIGS:
            fresh = build_database(world)
            transcript = replay(
                fresh, world, batch, index_checks=checks, **_replay_options(kind, fresh)
            )
            findings.append(first_difference(kind, reference, transcript))
        counts["replays"] += len(DML_CONFIGS)
        counts["index_checks"] += checks.performed
        return [f for f in findings if f is not None] + [
            Finding("index-equality", problem) for problem in checks.problems
        ]

    def candidates(self, case):
        """Drop one op at a time, then shrink the world through the plan
        oracle's candidates, with a proxy query ranging over the batch's
        collections."""
        world, batch, *rest = case
        ops = batch.ops
        if len(ops) > 1:
            for i in range(len(ops)):
                yield (world, DmlBatchSpec(ops=ops[:i] + ops[i + 1 :]), *rest)
        proxy = QuerySpec(
            ranges=tuple((f"v{i}", coll) for i, coll in enumerate(batch.collections()))
        )
        for smaller in world_candidates(world, proxy):
            yield (smaller, batch, *rest)

    def encode(self, case) -> dict:
        return {"world": case[0].to_dict(), "dml": case[1].to_dict()}

    def decode(self, data: dict):
        return WorldSpec.from_dict(data["world"]), DmlBatchSpec.from_dict(data["dml"])

    def describe(self, case) -> dict:
        return {"statements": [op.render() for op in case[1].ops]}


__all__ = [
    "DEFAULT_OPS_PER_BATCH",
    "DML_CONFIGS",
    "DmlBatchSpec",
    "DmlMode",
    "DmlOpSpec",
    "IndexChecks",
    "random_batch",
    "replay",
    "walk_batch",
]
