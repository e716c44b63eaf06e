"""The fuzz loop: seeded worlds, queries per world, shrink on failure."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.corpus import save_repro
from repro.fuzz.oracle import Mismatch, run_case
from repro.fuzz.querygen import QuerySpec, random_query
from repro.fuzz.shrink import shrink_case
from repro.fuzz.worldgen import WorldSpec, build_database, random_world

#: Queries drawn from each world before a fresh one is generated
#: (building a store is the expensive part of a case).
DEFAULT_QUERIES_PER_WORLD = 5


@dataclass
class FuzzStats:
    """Aggregated outcome of one fuzz run."""

    iterations: int = 0
    skipped: int = 0
    pairs_run: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    repro_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every configuration pair agreed on every case."""
        return not self.mismatches


def case_fails(
    world: WorldSpec,
    query: QuerySpec,
    no_rewrites: bool = False,
    feedback: bool = False,
) -> bool:
    """Fresh-database oracle check, as the shrinker's predicate."""
    db = build_database(world)
    if no_rewrites:
        db.config = db.config.with_rewrites(False)
    if feedback:
        db.config = db.config.with_feedback(True)
    return bool(run_case(db, query).mismatches)


def fuzz(
    seed: int = 0,
    iterations: int = 100,
    queries_per_world: int = DEFAULT_QUERIES_PER_WORLD,
    shrink: bool = True,
    corpus_dir: str | Path | None = None,
    no_rewrites: bool = False,
    feedback: bool = False,
    log=None,
) -> FuzzStats:
    """Run ``iterations`` differential cases; returns aggregated stats.

    Each case is derived deterministically from ``seed`` and its index,
    so any failure is replayable with the same arguments.  With
    ``corpus_dir`` set, every (shrunk) failing case is saved there.
    ``no_rewrites`` flips the reference database to the rewrite-ablation
    config, so every oracle pair exercises the engine with the pre-memo
    rewrite stage disabled (the default sweep already compares
    rewrites-on against rewrites-off per case).  ``feedback`` flips the
    reference to feedback-on, so every pair runs with fed estimates and
    possible mid-query replans in the *reference* path (the default
    sweep already compares feedback-on against feedback-off per case).
    """
    stats = FuzzStats()
    world: WorldSpec | None = None
    db = None
    for i in range(iterations):
        if world is None or i % max(1, queries_per_world) == 0:
            world_rng = random.Random(f"{seed}:world:{i // max(1, queries_per_world)}")
            world = random_world(world_rng)
            db = build_database(world)
            if no_rewrites:
                db.config = db.config.with_rewrites(False)
            if feedback:
                db.config = db.config.with_feedback(True)
        query_rng = random.Random(f"{seed}:query:{i}")
        query = random_query(query_rng, world)
        outcome = run_case(db, query)
        stats.iterations += 1
        stats.pairs_run += outcome.pairs_run
        if outcome.skipped:
            stats.skipped += 1
        if outcome.mismatches:
            stats.mismatches.extend(outcome.mismatches)
            if log is not None:
                for mismatch in outcome.mismatches:
                    log(f"MISMATCH {mismatch}")
            shrunk_world, shrunk_query = world, query
            if shrink:
                shrunk_world, shrunk_query = shrink_case(
                    world,
                    query,
                    lambda w, q: case_fails(
                        w, q, no_rewrites=no_rewrites, feedback=feedback
                    ),
                )
                if log is not None:
                    log(f"shrunk to: {shrunk_query.render()}")
            if corpus_dir is not None:
                note = "; ".join(
                    f"{m.kind}: {m.detail.splitlines()[-1] if m.detail else ''}"
                    for m in outcome.mismatches
                )
                path = save_repro(corpus_dir, shrunk_world, shrunk_query, note)
                stats.repro_paths.append(path)
                if log is not None:
                    log(f"repro written: {path}")
            # A world that produced a failure may keep producing the same
            # one; move on to a fresh world for the next iteration.
            world = None
        elif log is not None and (i + 1) % 25 == 0:
            log(f"{i + 1}/{iterations} cases, {stats.pairs_run} pairs, "
                f"{len(stats.mismatches)} mismatch(es)")
    return stats


__all__ = ["DEFAULT_QUERIES_PER_WORLD", "FuzzStats", "case_fails", "fuzz"]
