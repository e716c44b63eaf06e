"""What a statement leaves behind in the pool and on the disk, pinned.

``test_page_trace.py`` pins the *request* sequence by wrapping the pool's
entry points.  This file pins the *state* those requests produce and
touches nothing the storage layer may restructure: it wraps
``DiskSimulator.read`` on one instance (a disk read is a miss whatever
the pool calls the request that took it) and reads counters.  Per case:
the ordered disk reads with the I/O scope that took each miss, the global
hit / miss totals, EXPLAIN ANALYZE's per-operator hits / misses / rows,
the final LRU frame order, and the three ``ExecutionResult`` figures.

``tests/golden/page_state.json`` was recorded before scans and reference
sweeps stopped requesting the pool once per object; its ``probe-emp``
cases, before an index scan's fetch and page miss each became one call
per layer.  Regenerate only when
a PR *means* to change simulated I/O, and says why:
``PYTHONPATH=src python -m tests.integration.test_page_state``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import Database
from repro.optimizer.config import FILE_SCAN, OptimizerConfig

from tests.conftest import QUERY_2
from tests.integration.test_page_trace import CITY_SCAN, FIGURES, PAPER, RANGE_PROBE

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "page_state.json"
SCALES = (0.05, 0.2)

#: The statement benchmark's ``pt_emp`` point lookup: one name bucket of
#: 400 employees on 400 distinct pages, at either scale, each a fetch.
PT_EMP = 'SELECT * FROM Employee e IN extent(Employee) WHERE e.name == "ename1"'
#: At scale 0.05 the optimizer would rather scan the extent; with the file
#: scan switched off the probe stays on the index scan at every scale.
BY_INDEX = OptimizerConfig().without(FILE_SCAN)


def probe_db(scale: float) -> Database:
    """The sample database with the benchmark's ``ix_employees_name``."""
    db = Database.sample(scale=scale, seed=1)
    db.create_index("ix_employees_name", "extent(Employee)", ("name",))
    return db


def _digest(items) -> list:
    items = list(items)
    text = ";".join(map(str, items))
    return [len(items), hashlib.sha256(text.encode()).hexdigest()]


def observed(db: Database, run) -> dict:
    """Run one statement; the golden entry for what it did to the store."""
    pool, disk = db.store.buffer, db.store.disk
    scopes: list[object] = []
    reads: list[str] = []
    original = disk.read

    def recording(page_id: int) -> float:
        stack = pool._io_scopes.stack
        scope = None
        if stack:
            if not any(stack[-1] is seen for seen in scopes):
                scopes.append(stack[-1])
            scope = next(n for n, seen in enumerate(scopes) if seen is stack[-1])
        reads.append(f"{page_id}:{scope}")
        return original(page_id)

    before = pool.stats_snapshot()
    disk.read = recording
    try:
        outcome = run()
    finally:
        del disk.read
    after = pool.stats_snapshot()
    execution = getattr(outcome, "execution", outcome)
    entry = {
        "disk_reads": _digest(reads),
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "frames": _digest(pool._frames),
        "rows": len(execution.rows),
    }
    for name in FIGURES:
        entry[name] = getattr(execution, name)
    root = getattr(outcome, "root", None)
    if root is not None:  # EXPLAIN ANALYZE: the plan tree in preorder
        operators, stack = [], [root]
        while stack:
            node = stack.pop()
            operators.append(
                [node.algorithm, node.buffer_hits, node.buffer_misses, node.actual_rows]
            )
            stack.extend(reversed(node.children))
        entry["operators"] = operators
    return entry


def record_scale(scale: float) -> dict[str, dict]:
    cases: dict[str, dict] = {}

    db = Database.sample(scale=scale, seed=1)
    for name, text in PAPER.items():
        result = db.query(text)
        cases[f"cold-{name}"] = observed(db, lambda: db.query(text))
        cases[f"warm-{name}"] = observed(
            db,
            lambda: db.execute_plan(result.plan, cold=False, consts=result.consts),
        )

    for capacity in (3, 16, 64):
        db = Database.sample(scale=scale, seed=1)
        db.store.buffer.capacity = capacity
        for name, text in PAPER.items():
            cases[f"capacity{capacity}-{name}"] = observed(db, lambda: db.query(text))

    db = Database.sample(scale=scale, seed=1)
    db.create_index("ix_mayor", "Cities", ("mayor", "name"))
    db.create_index("ix_time", "Tasks", ("time",))
    cases["index-q2"] = observed(db, lambda: db.query(QUERY_2))
    cases["index-range"] = observed(db, lambda: db.query(RANGE_PROBE))

    for capacity in (2048, 16):
        db = Database.sample(scale=scale, seed=1)
        db.store.buffer.capacity = capacity
        for name, text in PAPER.items():
            cases[f"analyze{capacity}-{name}"] = observed(
                db, lambda: db.explain_analyze(text)
            )

    db = Database.sample(scale=scale, seed=1)
    pinned = db.begin()
    db.query("UPDATE c IN Cities SET c.population = 7 WHERE c.name == 'city3'")
    db.query("INSERT INTO Cities (name, population) VALUES ('overflow', 1)")
    db.query("DELETE c IN Cities WHERE c.name == 'city5'")
    cases["dirty-latest"] = observed(db, lambda: db.query(CITY_SCAN))
    cases["dirty-pinned"] = observed(
        db, lambda: db.query(CITY_SCAN, transaction=pinned)
    )
    writer = db.begin()
    db.query(
        "INSERT INTO Cities (name, population) VALUES ('pending', 2)",
        transaction=writer,
    )
    cases["dirty-open-txn"] = observed(
        db, lambda: db.query(CITY_SCAN, transaction=writer)
    )
    for name, text in PAPER.items():
        cases[f"dirty-{name}"] = observed(db, lambda: db.query(text))
    writer.rollback()
    pinned.rollback()

    def probe(db: Database, transaction=None):
        return observed(
            db, lambda: db.query(PT_EMP, config=BY_INDEX, transaction=transaction)
        )

    db = probe_db(scale)
    cases["probe-emp"] = probe(db)
    db = probe_db(scale)
    db.store.buffer.capacity = 16
    cases["probe-emp-capacity16"] = probe(db)
    db = probe_db(scale)
    db.query("UPDATE e IN extent(Employee) SET e.age = 99 "
             "WHERE e.name == 'ename1' AND e.age == 21")
    db.query("INSERT INTO Employees (name, age) VALUES ('ename1', 30)")
    db.query("DELETE e IN extent(Employee) WHERE e.name == 'ename1' AND e.age == 26")
    cases["probe-emp-dirty-latest"] = probe(db)
    writer = db.begin()
    db.query("UPDATE e IN extent(Employee) SET e.age = 98 "
             "WHERE e.name == 'ename1' AND e.age == 31", transaction=writer)
    db.query("INSERT INTO Employees (name, age) VALUES ('ename1', 31)",
             transaction=writer)
    cases["probe-emp-open-txn"] = probe(db, writer)
    writer.rollback()
    return cases


def record_all() -> dict[str, dict]:
    return {
        f"{scale}/{name}": entry
        for scale in SCALES
        for name, entry in record_scale(scale).items()
    }


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return record_all()


def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_every_golden_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(golden())
    assert len(recorded) == 82


@pytest.mark.parametrize("case", sorted(golden()) if GOLDEN.exists() else [])
def test_pool_and_disk_state_match_parent(recorded, case):
    # Plain ==, floats included: same requests, same simulated disk, same bits.
    assert recorded[case] == golden()[case]


def test_the_cases_exercise_what_they_claim(recorded):
    for scale in SCALES:
        def case(name: str) -> dict:
            return recorded[f"{scale}/{name}"]

        for name in PAPER:
            cold, warm = case(f"cold-{name}"), case(f"warm-{name}")
            assert warm["misses"] == 0 < cold["misses"]  # the pool held it all
            assert warm["hits"] == cold["hits"] + cold["misses"]
            assert case(f"capacity3-{name}")["frames"][0] == 3  # evicting
            analyzed = case(f"analyze16-{name}")
            assert sum(op[1] for op in analyzed["operators"]) == analyzed["hits"]
            assert sum(op[2] for op in analyzed["operators"]) == analyzed["misses"]
            assert analyzed["misses"] == analyzed["disk_reads"][0]
        # A 16-frame pool evicts, so Q2's mayor fetches miss again.
        assert case("capacity16-q2")["misses"] > case("cold-q2")["misses"]
        assert case("dirty-open-txn")["hits"] == case("dirty-latest")["hits"] + 1
        probe = case("probe-emp")
        assert probe["rows"] == 400 and probe["misses"] == probe["disk_reads"][0]
        assert case("probe-emp-capacity16")["frames"][0] == 16
        latest, txn = case("probe-emp-dirty-latest"), case("probe-emp-open-txn")
        assert txn["rows"] == latest["rows"] + 1  # the transaction's own insert


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
