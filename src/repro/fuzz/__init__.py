"""Differential plan-equivalence fuzzing.

The optimizer's central claim — every plan the search, the baselines
and the plan cache produce for one query returns the *same rows* — is
checked here by construction: random OODB worlds
(:mod:`repro.fuzz.worldgen`), random ZQL queries
(:mod:`repro.fuzz.querygen`), and an oracle that runs each query through
every configuration pair and compares results
(:mod:`repro.fuzz.oracle`).  Failures are minimized by
:mod:`repro.fuzz.shrink` and pinned forever as JSON repros in
``tests/corpus/`` (:mod:`repro.fuzz.corpus`).

Run it::

    PYTHONPATH=src python -m repro.fuzz --seed 0 --iterations 200
"""

from repro.fuzz.corpus import (
    case_from_json,
    case_to_json,
    corpus_files,
    load_repro,
    save_repro,
)
from repro.fuzz.oracle import Mismatch, run_case
from repro.fuzz.querygen import PredicateSpec, QuerySpec, random_query
from repro.fuzz.runner import FuzzStats, fuzz
from repro.fuzz.shrink import shrink_case
from repro.fuzz.worldgen import (
    AttrSpec,
    IndexSpec,
    TypeSpec,
    WorldSpec,
    build_database,
    random_world,
)

__all__ = [
    "AttrSpec",
    "FuzzStats",
    "IndexSpec",
    "Mismatch",
    "PredicateSpec",
    "QuerySpec",
    "TypeSpec",
    "WorldSpec",
    "build_database",
    "case_from_json",
    "case_to_json",
    "corpus_files",
    "fuzz",
    "load_repro",
    "random_query",
    "random_world",
    "run_case",
    "save_repro",
    "shrink_case",
]
