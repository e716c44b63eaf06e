"""Seeded fuzzing: one harness, four oracles.

The optimizer's central claim — every plan the search, the baselines
and the plan cache produce for one query returns the *same rows* — is
checked here by construction: random OODB worlds
(:mod:`repro.fuzz.worldgen`), random ZQL queries
(:mod:`repro.fuzz.querygen`), and an oracle that runs each query through
every configuration pair and compares results
(:mod:`repro.fuzz.oracle`).  The same harness (:mod:`repro.fuzz.runner`)
runs the chaos, DML and crash-recovery oracles as modes.  Failures are
minimized by :mod:`repro.fuzz.shrink` and pinned forever as JSON repros
in ``tests/corpus/`` (:mod:`repro.fuzz.corpus`).

Run it::

    PYTHONPATH=src python -m repro.fuzz --seed 0 --iterations 200
"""

from repro.fuzz.chaos import ChaosMode
from repro.fuzz.corpus import corpus_files, load, save
from repro.fuzz.crash import CrashMode
from repro.fuzz.dml import DmlMode
from repro.fuzz.oracle import PlanMode, run_case
from repro.fuzz.querygen import PredicateSpec, QuerySpec, random_query
from repro.fuzz.runner import Finding, Mode, Stats, fuzz, summary
from repro.fuzz.shrink import shrink_case
from repro.fuzz.worldgen import (
    AttrSpec,
    IndexSpec,
    TypeSpec,
    WorldSpec,
    build_database,
    random_world,
)

#: Every mode, by the name the CLI and summaries use.
MODES = {mode.name: mode for mode in (PlanMode, ChaosMode, DmlMode, CrashMode)}

__all__ = [
    "AttrSpec",
    "ChaosMode",
    "CrashMode",
    "DmlMode",
    "Finding",
    "IndexSpec",
    "MODES",
    "Mode",
    "PlanMode",
    "PredicateSpec",
    "QuerySpec",
    "Stats",
    "TypeSpec",
    "WorldSpec",
    "build_database",
    "corpus_files",
    "fuzz",
    "load",
    "random_query",
    "random_world",
    "run_case",
    "save",
    "shrink_case",
    "summary",
]
