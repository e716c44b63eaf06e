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

:class:`CrashMode` plugs it into the harness.  It shrinks like the DML
mode (the crash plan stays fixed) and serializes into the corpus as
``repro-crash-*.json``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import asdict, dataclass

from repro.api import Database
from repro.errors import ReproError
from repro.fuzz.dml import (
    DmlBatchSpec,
    DmlMode,
    IndexChecks,
    _read_query,
    _row_bytes,
    walk_batch,
)
from repro.fuzz.runner import Finding, first_difference
from repro.fuzz.worldgen import WorldSpec, build_database
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


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------


def _recover_and_compare(
    world: WorldSpec,
    batch: DmlBatchSpec,
    plan: CrashPlan,
    checkpoint_every: int | None,
    directory: str,
    counts,
) -> list[Finding]:
    victim = build_database(world)
    victim.enable_durability(directory, checkpoint_every=checkpoint_every)
    # Installed *after* enable_durability so the initial checkpoint
    # (taken before any commits exist) cannot fire a checkpoint crash.
    victim.durability.crash_plan = plan
    victim.durability.wal.crash_plan = plan

    crashed = True
    try:
        acknowledged = walk_batch(victim, batch)
        # The plan never fired (e.g. a checkpoint plan over a batch of
        # fewer commits than `checkpoint_every`).  Closing still
        # exercises it — a checkpoint plan kills the shutdown
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
    walk_batch(reference, batch, stop_after=budget)

    recovered = Database.open(directory)
    finding = first_difference(
        "state", _state_lines(reference, world), _state_lines(recovered, world)
    ) or _check_continuation(world, reference, recovered)
    findings = [finding] if finding is not None else []
    # After the continuation, so the indexes are checked both as recovery
    # left them (built on first use) and as one more commit maintained them.
    checks = IndexChecks()
    checks.run(recovered, "recovered")
    findings += [Finding("index-equality", problem) for problem in checks.problems]
    counts["index_checks"] += checks.performed
    recovered.close()
    return findings


def _check_continuation(
    world: WorldSpec,
    reference: Database,
    recovered: Database,
) -> Finding | None:
    """Run one identical UPDATE on both engines and compare everything."""
    statement = _continuation_update(world)
    if statement is None:
        return None
    outcomes: list[str] = []
    for db in (reference, recovered):
        try:
            result = db.query(statement)
            outcomes.append(f"affected={result.affected} csn={result.csn}")
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
    if outcomes[0] != outcomes[1]:
        return Finding(
            "continuation",
            f"{statement!r}: reference {outcomes[0]} vs recovered {outcomes[1]}",
        )
    return first_difference(
        "continuation-state",
        _state_lines(reference, world),
        _state_lines(recovered, world),
    )


# ----------------------------------------------------------------------
# Plan generation and the mode
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


@dataclass(frozen=True)
class CrashMode(DmlMode):
    """A case is ``(world, batch, crash plan, checkpoint_every)``.  The
    plan's ordinal is drawn from a fault-free dry run's commit count, so
    crashes land inside the workload rather than past its end."""

    name = "crash"
    prefix = "repro-crash-"
    world_tag = "crash-world"
    batch_tag = "crash-batch"
    counts = (
        ("crashed", "commit-point crashes"),
        ("commits", "commits exercised"),
        ("index_checks", "index-equality checks"),
    )

    def draw(self, seed, i, world, counts):
        case = super().draw(seed, i, world, counts)
        if case is None:
            return None
        total = walk_batch(build_database(world), case[1])
        if total == 0:
            return None
        plan_rng = random.Random(f"{seed}:crash-plan:{i}")
        plan = random_plan(plan_rng, total)
        checkpoint_every = None
        if plan.crash_point == "mid-checkpoint-rename":
            checkpoint_every = plan_rng.randint(1, 3)
        elif plan_rng.random() < 0.3:
            # Sometimes checkpoint mid-workload even for commit-point
            # crashes, so recovery exercises checkpoint + log replay.
            checkpoint_every = plan_rng.randint(1, max(1, total // 2))
        counts["crashed"] += plan.crash_point in ("mid-record", "post-record-pre-ack")
        counts["commits"] += total
        return (*case, plan, checkpoint_every)

    def check(self, case, counts, db=None):
        """Crash the workload, recover, and compare with a clean engine
        that executed exactly the durable-commit prefix."""
        world, batch, plan, checkpoint_every = case
        if not batch.ops:
            return None
        directory = tempfile.mkdtemp(prefix="repro-crash-")
        try:
            return _recover_and_compare(
                world, batch, plan, checkpoint_every, directory, counts
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def encode(self, case) -> dict:
        return {
            **super().encode(case),
            "plan": asdict(case[2]),
            "checkpoint_every": case[3],
        }

    def decode(self, data: dict):
        return (
            *super().decode(data),
            CrashPlan(**data["plan"]),
            data.get("checkpoint_every"),
        )


__all__ = ["CrashMode", "random_plan"]
