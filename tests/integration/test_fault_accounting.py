"""Pool accounting across a statement that dies mid-run, pinned.

A governed statement whose page read exhausts its retries raises out of
the middle of the operator tree, and the traceback keeps every generator
suspended *below* the raising operator alive.  Whatever those generators
still owe the buffer pool must be settled inside the failed statement's
own accounting window, not whenever the traceback is dropped — so each
case keeps the exception alive while the same text runs clean, and pins
the hit / miss deltas of both windows plus the clean run's figures.

``tests/golden/fault_accounting.json`` was recorded before scans and
reference sweeps stopped requesting the pool once per object; its
``pt_emp`` cases, before a page miss stopped going through the retry
ladder when no injector is installed.  Regenerate
only on purpose: ``PYTHONPATH=src python -m tests.integration.test_fault_accounting``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Database
from repro.errors import StorageFaultError
from repro.governor import FaultPlan, QueryContext

from tests.conftest import QUERY_1, QUERY_2, QUERY_4
from tests.integration.test_page_state import BY_INDEX, PT_EMP, probe_db
from tests.integration.test_page_trace import FIGURES

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fault_accounting.json"
QUERIES = {"q1": QUERY_1, "q2": QUERY_2, "q4": QUERY_4}
#: (read_error_prob, max_retries): fail fast, fail often, mostly recover.
FAULTS = ((0.02, 0), (0.3, 1), (0.05, 4))
SEEDS = range(6)


def _delta(before, after) -> list[int]:
    return [after.hits - before.hits, after.misses - before.misses]


def _pair(db: Database, text: str, plan: FaultPlan, config=None):
    """The governed run of ``text`` under ``plan``, then the same text clean."""
    pool = db.store.buffer
    start = pool.stats_snapshot()
    failure = None
    try:
        db.query(text, config=config, governor=QueryContext(fault_plan=plan))
    except StorageFaultError as exc:
        failure = exc  # and with it every suspended generator
    middle = pool.stats_snapshot()
    clean = db.query(text, config=config).execution
    end = pool.stats_snapshot()
    entry = {
        "raised": failure is not None,
        "governed": _delta(start, middle),
        "clean": _delta(middle, end),
    }
    del failure  # its traceback holds this frame
    for figure in FIGURES:
        entry[figure] = getattr(clean, figure)
    return entry


def record_all() -> dict[str, dict]:
    cases: dict[str, dict] = {}
    db = Database.sample(scale=0.05, seed=1)
    for seed in SEEDS:
        for prob, retries in FAULTS:
            for name, text in QUERIES.items():
                plan = FaultPlan(seed=seed, read_error_prob=prob, max_retries=retries)
                cases[f"seed{seed}-p{prob}-r{retries}-{name}"] = _pair(db, text, plan)
    # The point lookup's fetches, one miss each, on a database of its own
    # (the disk head it leaves behind is part of the cases above).
    db = probe_db(0.05)
    for seed in SEEDS:
        for prob, retries in FAULTS:
            plan = FaultPlan(seed=seed, read_error_prob=prob, max_retries=retries)
            cases[f"seed{seed}-p{prob}-r{retries}-pt_emp"] = _pair(db, PT_EMP, plan, BY_INDEX)
    return cases


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return record_all()


def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_every_golden_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(golden())
    assert sum(entry["raised"] for entry in recorded.values()) == 46


@pytest.mark.parametrize("case", sorted(golden()) if GOLDEN.exists() else [])
def test_both_windows_match_parent(recorded, case):
    assert recorded[case] == golden()[case]


def test_a_failed_statement_owes_the_next_one_nothing(recorded):
    by_query: dict[str, set] = {name: set() for name in (*QUERIES, "pt_emp")}
    for case, entry in recorded.items():
        # Simulated time is left out: it depends on where the governed run
        # left the disk head.
        by_query[case.rsplit("-", 1)[1]].add(
            (tuple(entry["clean"]), *(entry[figure] for figure in FIGURES[:2]))
        )
    # However the governed run ended, the clean run requests the same.
    assert all(len(seen) == 1 for seen in by_query.values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
