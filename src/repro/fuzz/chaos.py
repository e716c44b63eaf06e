"""Chaos mode: the differential oracle under seeded fault injection.

Each case runs a generated query twice on the same database: once
fault-free (the oracle) and once under a seeded
:class:`~repro.governor.FaultPlan` — transient read errors, latency
spikes, and occasionally a persistently corrupt index.  The governor's
contract is *fail typed or answer right*: the faulted run must either

* produce exactly the oracle's rows (retries and the degrade-to-scan
  replan are invisible to the result), or
* raise a typed :class:`~repro.errors.GovernorError`.

Anything else — a wrong answer or an untyped crash — is a chaos
mismatch.  Hangs are covered by the CI per-test timeout rather than an
in-process watchdog.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import GovernorError, ReproError
from repro.fuzz.corpus import save_repro
from repro.fuzz.oracle import Mismatch, _bag
from repro.fuzz.querygen import QuerySpec, random_query
from repro.fuzz.worldgen import WorldSpec, build_database, random_world
from repro.governor.context import QueryContext
from repro.governor.faults import FaultPlan

#: Default transient-fault probability for a chaos sweep (the issue's
#: acceptance bar is zero wrong answers at 5%).
DEFAULT_FAULT_RATE = 0.05


@dataclass
class ChaosStats:
    """Aggregated outcome of one chaos sweep."""

    iterations: int = 0
    skipped: int = 0
    matched: int = 0
    typed_failures: int = 0
    degraded: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    repro_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every faulted run matched or failed typed."""
        return not self.mismatches


def run_chaos_case(
    db,
    spec: QuerySpec,
    fault_rate: float,
    fault_seed: int,
    stats: ChaosStats,
) -> None:
    """One query: fault-free oracle vs the same query under faults."""
    text = spec.render()
    stats.iterations += 1
    try:
        reference = db.query(text, use_cache=False)
    except ReproError:
        stats.skipped += 1  # the stack legitimately rejects the query
        return
    ctx = QueryContext(fault_plan=FaultPlan.chaos(fault_seed, fault_rate))
    try:
        faulted = db.query(text, use_cache=False, governor=ctx)
    except GovernorError:
        stats.typed_failures += 1
    except Exception:  # noqa: BLE001 - an untyped crash IS the finding
        stats.mismatches.append(
            Mismatch(
                "chaos-untyped-error", text, traceback.format_exc(limit=3)
            )
        )
    else:
        if _bag(faulted.rows) != _bag(reference.rows):
            stats.mismatches.append(
                Mismatch(
                    "chaos-wrong-answer",
                    text,
                    f"faulted run returned {len(faulted.rows)} row(s), "
                    f"oracle {len(reference.rows)}; degraded={ctx.degraded}",
                )
            )
        else:
            stats.matched += 1
            if ctx.degraded:
                stats.degraded += 1


def chaos_fuzz(
    seed: int = 0,
    iterations: int = 200,
    fault_rate: float = DEFAULT_FAULT_RATE,
    queries_per_world: int = 5,
    corpus_dir: str | Path | None = None,
    log=None,
) -> ChaosStats:
    """Run ``iterations`` chaos cases; deterministic in ``seed``."""
    stats = ChaosStats()
    world: WorldSpec | None = None
    db = None
    for i in range(iterations):
        if world is None or i % max(1, queries_per_world) == 0:
            world_rng = random.Random(
                f"{seed}:world:{i // max(1, queries_per_world)}"
            )
            world = random_world(world_rng)
            db = build_database(world)
        query_rng = random.Random(f"{seed}:query:{i}")
        query = random_query(query_rng, world)
        before = len(stats.mismatches)
        run_chaos_case(db, query, fault_rate, seed + i, stats)
        if len(stats.mismatches) > before:
            if log is not None:
                for mismatch in stats.mismatches[before:]:
                    log(f"CHAOS MISMATCH {mismatch}")
            if corpus_dir is not None:
                note = "; ".join(
                    f"{m.kind}: fault_seed={seed + i} rate={fault_rate}"
                    for m in stats.mismatches[before:]
                )
                path = save_repro(corpus_dir, world, query, note)
                stats.repro_paths.append(path)
                if log is not None:
                    log(f"repro written: {path}")
            world = None  # fresh world after a failure
        elif log is not None and (i + 1) % 25 == 0:
            log(
                f"{i + 1}/{iterations} chaos cases: {stats.matched} matched, "
                f"{stats.typed_failures} typed failure(s), "
                f"{stats.degraded} degraded, "
                f"{len(stats.mismatches)} mismatch(es)"
            )
    return stats


__all__ = ["DEFAULT_FAULT_RATE", "ChaosStats", "chaos_fuzz", "run_chaos_case"]
