"""The fuzz harness: one loop, one finding type and one stats type.

An oracle plugs in as a :class:`Mode`, which supplies only what differs
between oracles: how case *i* of a seed is drawn, what a case checks, the
smaller candidates its shrinker tries, and its corpus JSON form and file
prefix.  Everything else lives here once: seeded case derivation, world
reuse, shrinking, saving and logging on failure, and progress lines.

The modes are :class:`~repro.fuzz.oracle.PlanMode` (the differential plan
oracle), :class:`~repro.fuzz.chaos.ChaosMode`,
:class:`~repro.fuzz.dml.DmlMode` and :class:`~repro.fuzz.crash.CrashMode`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.fuzz.corpus import save
from repro.fuzz.shrink import shrink_case
from repro.fuzz.worldgen import WorldSpec, random_world

#: A case is a tuple whose first element is its :class:`WorldSpec`; what
#: follows is the mode's (a query, a write batch, a fault or crash plan).
Case = tuple


@dataclass(frozen=True)
class Finding:
    """One divergence an oracle found, with the ZQL text when there is one."""

    kind: str  # e.g. "greedy", "cache-hit", "index-equality", "state"
    detail: str
    query: str = ""

    def __str__(self) -> str:
        where = f" {self.query}\n " if self.query else ""
        return f"[{self.kind}]{where} {self.detail}"


@dataclass
class Stats:
    """Aggregated outcome of one sweep.  ``counts`` holds the mode's own
    counters, under the keys its :attr:`Mode.counts` names."""

    iterations: int = 0
    skipped: int = 0
    counts: Counter = field(default_factory=Counter)
    findings: list[Finding] = field(default_factory=list)
    repro_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no case found anything."""
        return not self.findings


class Mode:
    """What one oracle supplies to the harness.

    Subclasses are frozen dataclasses whose fields are exactly the
    command-line options the oracle reads.
    """

    #: Name on the command line and in summaries.
    name = ""
    #: Corpus file prefix: a case saves as ``<prefix><content hash>.json``.
    prefix = ""
    #: Tag of the world's seed string, ``"<seed>:<world_tag>:<n>"``.
    world_tag = ""
    #: The mode's counters, each with the words its summary prints.
    counts: tuple[tuple[str, str], ...] = ()
    #: Consecutive cases drawn from one world (and its shared database).
    queries_per_world = 1

    def database(self, world: WorldSpec):
        """The database the cases of ``world`` share, or None when every
        check builds its own."""
        return None

    def draw(self, seed: int, i: int, world: WorldSpec, counts: Counter) -> Case | None:
        """Case ``i`` of ``seed`` in ``world``, or None when the case is
        skipped before any check runs."""
        raise NotImplementedError

    def check(self, case: Case, counts: Counter, db=None) -> list[Finding] | None:
        """Run the oracle on ``case`` against ``db`` (a fresh database when
        None); returns its findings, or None when the case is skipped
        (the reference rejects it, or it has nothing to run)."""
        raise NotImplementedError

    def candidates(self, case: Case) -> Iterator[Case]:
        """Structurally smaller cases, in the order the shrinker tries them."""
        raise NotImplementedError

    def encode(self, case: Case) -> dict:
        """The canonical JSON form, which the corpus file name hashes."""
        raise NotImplementedError

    def decode(self, data: dict) -> Case:
        """Rebuild a case from a corpus document (inverse of :meth:`encode`)."""
        raise NotImplementedError

    def describe(self, case: Case) -> dict:
        """Readable renderings saved beside the canonical form."""
        raise NotImplementedError

    def fails(self, case: Case) -> bool:
        """The shrinker's predicate: the oracle still finds something."""
        return bool(self.check(case, Counter()))


def summary(mode: Mode, stats: Stats) -> str:
    """One line: cases, skipped cases, the mode's counters, findings."""
    counts = "".join(f", {stats.counts[key]} {words}" for key, words in mode.counts)
    return (
        f"{stats.iterations} {mode.name} cases ({stats.skipped} skipped)"
        f"{counts}, {len(stats.findings)} finding(s)"
    )


def first_difference(kind: str, want: list[str], got: list[str]) -> Finding | None:
    """Compare two transcripts: the first differing line, else the length."""
    for line, (expected, actual) in enumerate(zip(want, got)):
        if expected != actual:
            return Finding(kind, f"line {line}: expected {expected!r} got {actual!r}")
    if len(want) != len(got):
        return Finding(kind, f"transcript length {len(want)} vs {len(got)}")
    return None


def fuzz(
    mode: Mode,
    seed: int = 0,
    iterations: int = 100,
    shrink: bool = True,
    corpus_dir: str | Path | None = None,
    log=None,
) -> Stats:
    """Run ``iterations`` cases of ``mode``; returns aggregated stats.

    Case ``i`` derives from ``seed`` and ``i`` alone, so any failure
    replays with the same arguments.  A failing case is shrunk (unless
    ``shrink`` is false), saved under ``corpus_dir`` when one is given,
    and the next case gets a fresh database: a world that produced a
    failure may keep producing the same one.
    """
    say = log if log is not None else (lambda message: None)
    stats = Stats()
    per_world = max(1, mode.queries_per_world)
    world = db = None
    for i in range(iterations):
        if world is None or i % per_world == 0:
            world = random_world(
                random.Random(f"{seed}:{mode.world_tag}:{i // per_world}")
            )
            db = mode.database(world)
        stats.iterations += 1
        case = mode.draw(seed, i, world, stats.counts)
        findings = None if case is None else mode.check(case, stats.counts, db)
        if findings is None:
            stats.skipped += 1
        elif findings:
            stats.findings.extend(findings)
            for finding in findings:
                say(f"FINDING {finding}")
            if shrink:
                case = shrink_case(case, mode.candidates, mode.fails)
                for key, value in mode.describe(case).items():
                    say(f"shrunk {key}: {value}")
            if corpus_dir is not None:
                note = "; ".join(
                    f"{f.kind}: {f.detail.splitlines()[-1] if f.detail else ''}"
                    for f in findings[:3]
                )
                stats.repro_paths.append(save(corpus_dir, mode, case, note))
                say(f"repro written: {stats.repro_paths[-1]}")
            world = None
            continue
        if (i + 1) % 25 == 0:
            say(summary(mode, stats))
    return stats


__all__ = ["Case", "Finding", "Mode", "Stats", "first_difference", "fuzz", "summary"]
