"""Every counter of the tier-1 fuzz sweeps, and the corpus bytes, pinned.

The plan, chaos, DML and crash oracles are the system's specification, so
a change to the harness around them must run exactly the same cases.  This
test runs the in-process sweeps tier 1 relies on and compares every stats
counter (cases, skipped cases, findings, and each mode's own counts) with
``tests/golden/fuzz_outcomes.json``.  It also pins the file name and bytes
that saving case 0 of seed 0 writes in plan, DML and crash mode, so a
re-found repro keeps its corpus name.  Exact counts imply every bound the
per-oracle smoke tests used to assert.

Regenerate (only when a PR *means* to change which cases run, and says why):
``PYTHONPATH=src python -m tests.integration.test_fuzz_outcomes``.
"""

from __future__ import annotations

import json
import random
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import pytest

from repro.fuzz import ChaosMode, CrashMode, DmlMode, PlanMode, fuzz, random_world, save

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fuzz_outcomes.json"

SWEEPS = {
    "plan seed 2026 x25": (PlanMode(), 2026, 25),
    "plan seed 7 x15": (PlanMode(), 7, 15),
    "dml seed 11 x8": (DmlMode(), 11, 8),
    "dml seed 42 x6": (DmlMode(), 42, 6),
    "chaos seed 20260806 x200 rate 0.05": (ChaosMode(fault_rate=0.05), 20260806, 200),
    "crash seed 11 x6": (CrashMode(), 11, 6),
}


def run_sweeps() -> dict[str, tuple]:
    """Each sweep's findings and its counters under the pinned names."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, (mode, seed, iterations) in SWEEPS.items():
            stats = fuzz(mode, seed=seed, iterations=iterations, shrink=False)
            out[name] = (
                stats.findings,
                {
                    "iterations": stats.iterations,
                    "skipped": stats.skipped,
                    "findings": len(stats.findings),
                    **{key: stats.counts[key] for key, _ in mode.counts},
                },
            )
    return out


def saved_case_zero(directory: Path) -> dict[str, dict]:
    """File name and text written for case 0 of seed 0, per corpus kind."""
    saved = {}
    for mode in (PlanMode(), DmlMode(), CrashMode()):
        world = random_world(random.Random(f"0:{mode.world_tag}:0"))
        path = save(directory, mode, mode.draw(0, 0, world, Counter()), "pinned")
        saved[f"save {mode.name}"] = {"name": path.name, "text": path.read_text()}
    return saved


def record_all(sweeps=None) -> dict[str, dict]:
    sweeps = run_sweeps() if sweeps is None else sweeps
    cases = {f"sweep {name}": counts for name, (_, counts) in sweeps.items()}
    with tempfile.TemporaryDirectory() as directory:
        cases.update(saved_case_zero(Path(directory)))
    return cases


@pytest.fixture(scope="module")
def sweeps():
    return run_sweeps()


@pytest.fixture(scope="module")
def recorded(sweeps) -> dict[str, dict]:
    return record_all(sweeps)


def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_every_golden_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(golden())


@pytest.mark.parametrize("case", sorted(golden()) if GOLDEN.exists() else [])
def test_outcome(recorded, case):
    assert recorded[case] == golden()[case]


def test_sweeps_find_nothing(sweeps):
    for name, (found, _) in sweeps.items():
        assert not found, f"{name}:\n" + "\n".join(str(f) for f in found)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
