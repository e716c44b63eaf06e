"""The crash-recovery fuzz oracle.

The durability contract has two halves, and each crash point exercises
one of them:

* a commit that was **acknowledged** (or whose log record was fully
  fsynced — ``post-record-pre-ack``, ``mid-checkpoint-rename``) must
  survive recovery byte-for-byte;
* a commit whose record was **torn** (``mid-record``) must vanish
  completely, as if it was never attempted.

Each case builds a seeded world, makes it durable in a scratch
directory, and replays a seeded DML batch (reusing the DML fuzzer's
generator) until a seeded :class:`~repro.governor.faults.CrashPlan`
"kills the process".  The directory is then reopened with
``Database.open`` and compared against a *clean* in-memory engine that
executed exactly the durable-commit prefix of the same workload:

* every collection's totally-ordered scan must match byte-for-byte;
* the recovered CSN must match;
* every index of the recovered engine must equal a fresh
  ``IndexRuntime.build`` of the recovered state;
* one deterministic follow-up UPDATE must behave identically on both
  engines (an UPDATE, not an INSERT: transactions that rolled back
  before the crash burned OID serials the log never saw, so the
  recovered allocator may lag the clean engine's — by design, since
  logged OIDs are authoritative — and an INSERT continuation would
  report that known, harmless skew instead of a real divergence).

Failures shrink through the DML fuzzer's delta-debugging loop and
serialize into the corpus as ``repro-crash-*.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Database
from repro.errors import ReproError
from repro.fuzz.dml import (
    DEFAULT_OPS_PER_BATCH,
    DmlBatchSpec,
    IndexChecks,
    _read_query,
    _row_bytes,
    random_batch,
    shrink_dml_case,
)
from repro.fuzz.worldgen import WorldSpec, build_database, random_world
from repro.governor.faults import CrashPlan, SimulatedCrash

#: Relative frequency of each crash point in generated plans.
_POINT_WEIGHTS = (
    ("mid-record", 4),
    ("post-record-pre-ack", 4),
    ("mid-checkpoint-rename", 2),
)

#: Crash points after which the in-flight commit is durable (its log
#: record was fully fsynced before the "power loss").
_DURABLE_POINTS = frozenset(("post-record-pre-ack", "mid-checkpoint-rename"))


@dataclass(frozen=True)
class CrashDivergence:
    """One disagreement between the recovered and the clean engine."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class CrashStats:
    """Aggregated outcome of one crash-recovery fuzz run."""

    iterations: int = 0
    skipped: int = 0
    crashed: int = 0
    clean_closes: int = 0
    replayed_commits: int = 0
    #: Recovered-index-equals-fresh-build comparisons performed.
    index_checks: int = 0
    divergences: list = field(default_factory=list)
    repro_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every recovery matched its acknowledged prefix."""
        return not self.divergences


# ----------------------------------------------------------------------
# Workload execution
# ----------------------------------------------------------------------


def run_workload(
    db: Database,
    batch: DmlBatchSpec,
    stop_after: int | None = None,
) -> int:
    """Apply the batch's ops; returns the number of acknowledged commits.

    Ops with a ``txn_group`` share one explicit transaction committed at
    the group's last op; the rest auto-commit.  ``stop_after`` caps the
    run at that many *commits* (the clean reference executing a durable
    prefix) — the cap is checked before every op, so a partially-built
    transaction group whose commit would exceed it is simply abandoned
    and rolled back, exactly like the group a crash cut short.

    :class:`SimulatedCrash` propagates to the caller; the "dead"
    engine's open transactions are deliberately left as-is (a killed
    process runs no rollback code).
    """
    acknowledged = 0
    open_txns: dict[int, object] = {}
    for position, op in enumerate(batch.ops):
        if stop_after is not None and acknowledged >= stop_after:
            break
        txn = None
        if op.txn_group is not None:
            txn = open_txns.get(op.txn_group)
            if txn is None:
                txn = open_txns[op.txn_group] = db.begin()
        try:
            db.query(op.render(), transaction=txn)
            if txn is None:
                acknowledged += 1
        except ReproError:
            pass
        closes_group = op.txn_group is not None and not any(
            later.txn_group == op.txn_group
            for later in batch.ops[position + 1 :]
        )
        if closes_group:
            txn = open_txns.pop(op.txn_group)
            try:
                txn.commit()
                acknowledged += 1
            except ReproError:
                pass
    for txn in open_txns.values():
        txn.rollback()
    return acknowledged


def _continuation_update(world: WorldSpec) -> str | None:
    """One deterministic post-recovery UPDATE statement, or ``None``."""
    for coll, type_name in world.collections():
        scalars = [
            a
            for a in world.type_spec(type_name).attrs
            if a.kind == "scalar"
        ]
        if scalars:
            attr = scalars[0]
            value = "'zz'" if attr.scalar_type == "str" else "999983"
            return f"UPDATE x IN {coll} SET x.{attr.name} = {value}"
    return None


def _state_lines(db: Database, world: WorldSpec) -> list[str]:
    """The comparable engine state: CSN plus every ordered scan."""
    lines = [f"csn={db.store.mvcc.current_csn}"]
    for coll, _type_name in world.collections():
        result = db.query(_read_query(world, coll))
        body = ";".join(_row_bytes(row) for row in result.rows)
        lines.append(f"{coll}: {body}")
    return lines


def _compare(
    kind: str,
    reference: list[str],
    recovered: list[str],
) -> list[CrashDivergence]:
    out: list[CrashDivergence] = []
    for want, got in zip(reference, recovered):
        if want != got:
            out.append(
                CrashDivergence(kind, f"expected {want!r} got {got!r}")
            )
            return out
    if len(reference) != len(recovered):
        out.append(
            CrashDivergence(
                kind,
                f"{len(reference)} reference lines vs {len(recovered)}",
            )
        )
    return out


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------


def run_crash_case(
    world: WorldSpec,
    batch: DmlBatchSpec,
    plan: CrashPlan,
    checkpoint_every: int | None = None,
    stats: CrashStats | None = None,
) -> list[CrashDivergence]:
    """Crash one seeded workload, recover, compare; returns divergences.

    Returns an empty list when the recovered engine byte-matched the
    clean engine that executed exactly the durable-commit prefix.
    ``stats`` collects the number of index checks performed.
    """
    if not batch.ops:
        return []
    directory = tempfile.mkdtemp(prefix="repro-crash-")
    try:
        return _run_crash_case(
            world, batch, plan, checkpoint_every, directory, stats
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run_crash_case(
    world: WorldSpec,
    batch: DmlBatchSpec,
    plan: CrashPlan,
    checkpoint_every: int | None,
    directory: str,
    stats: CrashStats | None,
) -> list[CrashDivergence]:
    victim = build_database(world)
    victim.enable_durability(directory, checkpoint_every=checkpoint_every)
    # Installed *after* enable_durability so the initial checkpoint
    # (taken before any commits exist) cannot fire a checkpoint crash.
    victim.durability.crash_plan = plan
    victim.durability.wal.crash_plan = plan

    crashed = True
    try:
        acknowledged = run_workload(victim, batch)
        # The plan never fired (e.g. a checkpoint plan over a batch of
        # explicit transactions, which never auto-checkpoint).  Closing
        # still exercises it — a checkpoint plan kills the shutdown
        # checkpoint — else this degrades to clean close/reopen parity.
        try:
            victim.close()
            crashed = False
        except SimulatedCrash:
            pass
    except SimulatedCrash:
        # The crashed append's ordinal is authoritative: the workload is
        # single-threaded, so every append before it was acknowledged
        # and the crashing one never returned to its caller.  (For a
        # checkpoint crash the triggering statement died post-commit but
        # pre-return inside maybe_checkpoint — same accounting.)
        acknowledged = max(0, victim.durability.wal.appended - 1)

    # The durable prefix: every acknowledged commit, plus the in-flight
    # one when the crash point guarantees its record was fully fsynced.
    budget = acknowledged
    if crashed and plan.crash_point in _DURABLE_POINTS:
        durable = victim.durability.wal.appended
        budget = max(acknowledged, min(durable, acknowledged + 1))

    reference = build_database(world)
    run_workload(reference, batch, stop_after=budget)

    recovered = Database.open(directory)
    divergences = _compare(
        "state",
        _state_lines(reference, world),
        _state_lines(recovered, world),
    )
    if not divergences:
        divergences = _check_continuation(world, reference, recovered)
    # After the continuation, so the indexes are checked both as recovery
    # left them (built on first use) and as one more commit maintained them.
    checks = IndexChecks()
    checks.run(recovered, "recovered")
    divergences.extend(
        CrashDivergence("index-equality", problem) for problem in checks.problems
    )
    if stats is not None:
        stats.index_checks += checks.performed
    recovered.close()
    return divergences


def _check_continuation(
    world: WorldSpec,
    reference: Database,
    recovered: Database,
) -> list[CrashDivergence]:
    """Run one identical UPDATE on both engines and compare everything."""
    statement = _continuation_update(world)
    if statement is None:
        return []
    outcomes: list[str] = []
    for db in (reference, recovered):
        try:
            result = db.query(statement)
            outcomes.append(f"affected={result.affected} csn={result.csn}")
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
    if outcomes[0] != outcomes[1]:
        return [
            CrashDivergence(
                "continuation",
                f"{statement!r}: reference {outcomes[0]} "
                f"vs recovered {outcomes[1]}",
            )
        ]
    return _compare(
        "continuation-state",
        _state_lines(reference, world),
        _state_lines(recovered, world),
    )


# ----------------------------------------------------------------------
# Plan generation, corpus, loop
# ----------------------------------------------------------------------


def random_plan(rng: random.Random, total_commits: int) -> CrashPlan:
    """Draw one seeded crash plan aimed inside ``total_commits``."""
    points = [p for p, _ in _POINT_WEIGHTS]
    weights = [w for _, w in _POINT_WEIGHTS]
    point = rng.choices(points, weights=weights)[0]
    ordinal = rng.randint(1, max(1, total_commits))
    torn = -1
    if point == "mid-record":
        # 0 = header never lands, small = torn header, -1 = half frame,
        # large = torn payload; every band has its own failure mode.
        torn = rng.choice((-1, 0, 1, 3, 7, rng.randrange(8, 64)))
    return CrashPlan(
        crash_at_commit=ordinal,
        crash_point=point,
        crash_after_bytes=torn,
    )


def save_crash_repro(
    directory: str | Path,
    world: WorldSpec,
    batch: DmlBatchSpec,
    plan: CrashPlan,
    checkpoint_every: int | None,
    note: str = "",
) -> Path:
    """Write one crash repro (``repro-crash-*.json``); stable per content."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    document = {
        "note": note,
        "statements": [op.render() for op in batch.ops],
        "world": world.to_dict(),
        "dml": batch.to_dict(),
        "plan": {
            "crash_at_commit": plan.crash_at_commit,
            "crash_point": plan.crash_point,
            "crash_after_bytes": plan.crash_after_bytes,
        },
        "checkpoint_every": checkpoint_every,
    }
    canonical = json.dumps(
        {
            "world": document["world"],
            "dml": document["dml"],
            "plan": document["plan"],
            "checkpoint_every": checkpoint_every,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    path = directory / f"repro-crash-{digest}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_crash_repro(
    path: str | Path,
) -> tuple[WorldSpec, DmlBatchSpec, CrashPlan, int | None]:
    """Load one saved crash repro back into its case tuple."""
    data = json.loads(Path(path).read_text())
    plan = data["plan"]
    return (
        WorldSpec.from_dict(data["world"]),
        DmlBatchSpec.from_dict(data["dml"]),
        CrashPlan(
            crash_at_commit=plan["crash_at_commit"],
            crash_point=plan["crash_point"],
            crash_after_bytes=plan["crash_after_bytes"],
        ),
        data.get("checkpoint_every"),
    )


def crash_fuzz(
    seed: int = 0,
    iterations: int = 50,
    ops_per_batch: int = DEFAULT_OPS_PER_BATCH,
    shrink: bool = True,
    corpus_dir: str | Path | None = None,
    log=None,
) -> CrashStats:
    """Run ``iterations`` seeded crash-recovery cases; aggregate stats.

    Every case derives deterministically from ``seed`` and its index:
    the world, the batch, and the crash plan (whose ordinal is drawn
    from a fault-free dry run's commit count, so crashes land inside
    the workload rather than past its end).
    """
    stats = CrashStats()
    for i in range(iterations):
        world_rng = random.Random(f"{seed}:crash-world:{i}")
        world = random_world(world_rng)
        batch_rng = random.Random(f"{seed}:crash-batch:{i}")
        batch = random_batch(batch_rng, world, ops=ops_per_batch)
        stats.iterations += 1
        if not batch.ops:
            stats.skipped += 1
            continue
        # Fault-free dry run: how many commits does this batch perform?
        total = run_workload(build_database(world), batch)
        if total == 0:
            stats.skipped += 1
            continue
        plan_rng = random.Random(f"{seed}:crash-plan:{i}")
        plan = random_plan(plan_rng, total)
        checkpoint_every = None
        if plan.crash_point == "mid-checkpoint-rename":
            checkpoint_every = plan_rng.randint(1, 3)
        elif plan_rng.random() < 0.3:
            # Sometimes checkpoint mid-workload even for commit-point
            # crashes, so recovery exercises checkpoint + log replay.
            checkpoint_every = plan_rng.randint(1, max(1, total // 2))
        divergences = run_crash_case(
            world, batch, plan, checkpoint_every, stats
        )
        if plan.crash_point in ("mid-record", "post-record-pre-ack"):
            stats.crashed += 1
        stats.replayed_commits += total
        if divergences:
            stats.divergences.extend(divergences)
            if log is not None:
                for divergence in divergences:
                    log(f"CRASH DIVERGENCE {divergence}")
            if shrink:
                world, batch = shrink_dml_case(
                    world,
                    batch,
                    lambda w, b: bool(
                        run_crash_case(w, b, plan, checkpoint_every)
                    ),
                )
                if log is not None:
                    for op in batch.ops:
                        log(f"shrunk op: {op.render()}")
            if corpus_dir is not None:
                note = "; ".join(str(d) for d in divergences[:3])
                path = save_crash_repro(
                    corpus_dir, world, batch, plan, checkpoint_every, note
                )
                stats.repro_paths.append(path)
                if log is not None:
                    log(f"repro written: {path}")
        elif log is not None and (i + 1) % 25 == 0:
            log(
                f"{i + 1}/{iterations} crash cases, "
                f"{len(stats.divergences)} divergence(s)"
            )
    return stats


__all__ = [
    "CrashDivergence",
    "CrashStats",
    "crash_fuzz",
    "load_crash_repro",
    "random_plan",
    "run_crash_case",
    "run_workload",
    "save_crash_repro",
]
