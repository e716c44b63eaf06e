"""The statement lifecycle contract, checked from outside the program.

Every statement runs admit -> plan -> execute (-> replan) in
``repro/api.py``.  The statement-level benchmark reads its per-layer
numbers from spans that ``benchmarks/e2e/tracing.py`` wraps around the
names those stages call, so a refactor that moves a call behind another
module's import silently deletes a layer — and one that admits a DML
target query separately takes two slots for one statement.  This test
installs that very tracer in-process and pins which spans each kind of
statement records, and that each statement is admitted exactly once.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.api import Database
from repro.governor.admission import AdmissionController

from tests.conftest import QUERY_1
from tests.integration.test_page_state import BY_INDEX, PT_EMP, probe_db

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"

QUERY = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "%s"'
PREPARED = "SELECT * FROM City c IN Cities WHERE c.mayor.name == $name"
UPDATE = "UPDATE c IN Cities SET c.population = 1 WHERE c.name == 'city0'"

PLANNING = {"simplify", "optimizer.rewrite", "optimizer.search"}
EXECUTION = {"storage.view", "engine.materialise", "engine.execute"}
ADMISSION = "governor.admission_wait"


@pytest.fixture(scope="module")
def tracing():
    """The benchmark's own tracing module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans(tracing) -> dict[str, list[tuple[str, str | None]]]:
    """Per statement label: its (span name, parent span name) pairs."""
    db = Database.sample(scale=0.02)
    db.create_index("ix_mayor", "Cities", ("mayor", "name"))
    db.admission = AdmissionController(2)
    prepared = db.prepare(PREPARED)
    statements = {
        "miss": lambda: db.query(QUERY % "Joe"),
        "hit": lambda: db.query(QUERY % "Fred"),
        "bypass": lambda: db.query(QUERY % "Joe", use_cache=False),
        "prepared": lambda: prepared.execute(name="Joe"),
        "update": lambda: db.query(UPDATE),
        "recalled update": lambda: db.query(
            UPDATE.replace("= 1", "= 2").replace("city0", "city1")
        ),
    }
    outcomes = {}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label, run in statements.items():
            tracer.begin_statement(label)
            outcomes[label] = run()
    finally:
        tracer.uninstall()
    assert [outcomes[k].cache.outcome for k in ("miss", "hit", "bypass")] == [
        "miss", "hit", "bypass",
    ]
    assert outcomes["update"].affected == outcomes["recalled update"].affected == 1

    names = {record[0]: record[1] for record in tracer.records}
    recorded: dict[str, list[tuple[str, str | None]]] = {k: [] for k in statements}
    for _id, name, parent, statement, _start, _end in tracer.records:
        recorded[statement].append((name, names.get(parent)))
    return recorded


def names_of(pairs) -> Counter:
    return Counter(name for name, _parent in pairs)


def test_miss_records_every_layer_under_api_query(spans):
    pairs = spans["miss"]
    assert names_of(pairs) == Counter(
        {"api.query", "lang.parse", "cache.parameterize", "cache.lookup",
         "cache.rebind", ADMISSION} | PLANNING | EXECUTION
    )
    parents = dict(pairs)
    assert parents.pop("api.query") is None
    assert parents.pop("engine.execute") == "engine.materialise"
    assert parents.pop("optimizer.rewrite") == "optimizer.search"
    # Everything else — the snapshot pin included, so that a replan
    # re-runs on it — is called from the stages themselves.
    assert set(parents.values()) == {"api.query"}


def test_hit_rebinds_without_planning(spans):
    """A hit is recognised by its digest: no parse, no AST, no search."""
    names = names_of(spans["hit"])
    assert not PLANNING & set(names)
    assert names == Counter(
        {"api.query", "cache.lookup", "cache.rebind", ADMISSION} | EXECUTION
    )
    assert dict(spans["hit"])["engine.execute"] == "engine.materialise"


def test_bypass_plans_without_touching_the_cache(spans):
    names = names_of(spans["bypass"])
    assert "cache.lookup" not in names
    assert PLANNING | EXECUTION <= set(names)


def test_prepared_execute_skips_parse_and_enters_the_same_stages(spans):
    names = names_of(spans["prepared"])
    assert names == Counter(
        {"cache.lookup", "cache.rebind", ADMISSION} | PLANNING | EXECUTION
    )


def test_autocommit_update_plans_its_target_and_commits(spans):
    names = names_of(spans["update"])
    assert names == Counter(
        {"api.query", "lang.parse", "cache.parameterize", "cache.lookup",
         "cache.rebind", ADMISSION, "storage.commit"} | PLANNING | EXECUTION
    )


def test_recalled_update_is_neither_parsed_nor_parameterized(spans):
    """A write whose text differs from an earlier one only in literals is
    recalled by its digest, and its target query hits the plan cache."""
    names = names_of(spans["recalled update"])
    assert names == Counter(
        {"api.query", "cache.lookup", "cache.rebind", ADMISSION,
         "storage.commit"} | EXECUTION
    )


@pytest.mark.parametrize(
    "label", ["miss", "hit", "bypass", "prepared", "update", "recalled update"]
)
def test_every_statement_is_admitted_exactly_once(spans, label):
    assert names_of(spans[label])[ADMISSION] == 1


#: Python + C calls of paper Q2 on a plan-cache hit, sample(scale=0.05,
#: seed=1), CPython 3.11: 50,277 before the per-object overhead below the
#: operators was removed (PR 19), 24,293 after.  The bound sits ~15 %
#: above the latter: room for honest work, not for the overhead to return.
Q2_CALLS_BEFORE, Q2_CALLS_AFTER, Q2_CALLS_BOUND = 50_277, 24_293, 28_000


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call count was taken on CPython 3.11; other minors differ",
)
def test_per_object_overhead_has_not_crept_back(tracing):
    db = Database.sample(scale=0.05, seed=1)
    db.query(QUERY % "Joe")
    counter = tracing.CallCounter()
    result = counter.run(lambda: db.query(QUERY % "Joe"))
    assert result.cache.outcome == "hit"
    assert counter.calls <= Q2_CALLS_BOUND, (
        f"Q2 on a plan-cache hit made {counter.calls:,} calls; it made "
        f"{Q2_CALLS_BEFORE:,} with per-object page lookups, dataclass OID "
        f"hashing and per-row term dispatch, and {Q2_CALLS_AFTER:,} without"
    )


#: Python + C calls of ``Database.query`` on a plan-cache hit, sample(scale=
#: 0.05, seed=1), CPython 3.11, as (text, before, after, bound): before,
#: every object scanned and every reference swept or emitted was its own
#: ``read_page`` call (and each reference was fetched twice); after, the
#: pool is called once per page run.  Bound = after + 15 %.
PAGE_RUN_CALLS = {
    "paper Q1": (QUERY_1, 60_818, 47_504, 54_600),
    "paper Q2": (QUERY % "Joe", 23_046, 14_914, 17_100),
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call counts were taken on CPython 3.11; other minors differ",
)
@pytest.mark.parametrize("label", sorted(PAGE_RUN_CALLS))
def test_per_object_pool_requests_have_not_crept_back(tracing, label):
    text, before, after, bound = PAGE_RUN_CALLS[label]
    db = Database.sample(scale=0.05, seed=1)
    db.query(text)
    counter = tracing.CallCounter()
    result = counter.run(lambda: db.query(text))
    assert result.cache.outcome == "hit"
    assert counter.calls <= bound, (
        f"{label} on a plan-cache hit made {counter.calls:,} calls; it made "
        f"{before:,} with one buffer-pool request per object and {after:,} "
        f"with one per page run"
    )


#: Python + C calls of a point lookup by index on a plan-cache hit (the
#: benchmark's ``pt_city`` shape), sample(scale=0.05, seed=1), CPython 3.11:
#: 942 when a hit ran lexer, parser and ``parameterize`` and rebuilt the
#: cached plan around tagged constants; 230 now that the digest names the
#: template and the cached plan runs as it is.
PT_CITY = 'SELECT * FROM City c IN Cities WHERE c.name == "%s"'
PT_CITY_CALLS_BEFORE, PT_CITY_CALLS_AFTER, PT_CITY_CALLS_BOUND = 942, 230, 270


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call count was taken on CPython 3.11; other minors differ",
)
def test_the_hit_path_preamble_has_not_crept_back(tracing):
    db = Database.sample(scale=0.05, seed=1)
    db.create_index("ix_city_name", "Cities", ("name",))
    first, second = (
        row["c.name"]
        for row in db.query("SELECT c.name FROM City c IN Cities").rows[:2]
    )
    db.query(PT_CITY % first)
    counter = tracing.CallCounter()
    result = counter.run(lambda: db.query(PT_CITY % second))
    assert result.cache.outcome == "hit" and len(result.rows) == 1
    assert counter.calls <= PT_CITY_CALLS_BOUND, (
        f"a pt_city hit made {counter.calls:,} calls; it made "
        f"{PT_CITY_CALLS_BEFORE:,} when every hit was parsed and its plan "
        f"rebuilt, and {PT_CITY_CALLS_AFTER:,} without"
    )


#: Python + C calls of the benchmark's ``pt_emp`` lookup on a plan-cache hit
#: (400 rows, each an index-scan fetch and a page miss), sample(scale=0.05,
#: seed=1), file scan off, CPython 3.11: 8,438 when each fetch went through
#: the seal check, ``peek``, the retry ladder and the shared seek curve and
#: the SELECT * projection copied every row; 6,155 with one frame per layer
#: and the rows handed back as built.  Bound = after + 15 %.
PT_EMP_CALLS_BEFORE, PT_EMP_CALLS_AFTER, PT_EMP_CALLS_BOUND = 8_438, 6_155, 7_080


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call count was taken on CPython 3.11; other minors differ",
)
def test_the_point_lookup_row_tax_has_not_crept_back(tracing):
    db = probe_db(0.05)
    db.query(PT_EMP, config=BY_INDEX)
    counter = tracing.CallCounter()
    result = counter.run(
        lambda: db.query(PT_EMP.replace("ename1", "ename2"), config=BY_INDEX)
    )
    assert result.cache.outcome == "hit" and len(result.rows) == 400
    assert counter.calls <= PT_EMP_CALLS_BOUND, (
        f"a pt_emp hit made {counter.calls:,} calls; it made "
        f"{PT_EMP_CALLS_BEFORE:,} when every fetched row paid three frames "
        f"per layer, and {PT_EMP_CALLS_AFTER:,} with one"
    )


#: Python + C calls of one ``Database.optimize`` (parse, simplify, rewrite,
#: search; nothing cached), sample(scale=0.05, seed=1), CPython 3.11, as
#: (before, after, bound): before the search's per-goal bookkeeping was
#: removed (PR 20: rules indexed by operator, candidates generated once
#: per goal, derived sets / hashes / subtree costs computed once) and
#: after, with the bound ~15 % above the latter.
WORST_ADHOC = (
    'SELECT e.department.name, e.job.name FROM Employee e IN Employees '
    'WHERE e.name == "ename1" AND e.department.plant.location == "loc2" '
    "AND e.job.pay_grade == 9"
)
OPTIMIZE_CALLS = {
    "paper Q1": (QUERY_1, 54_915, 22_318, 25_700),
    # The worst adhoc_plan shape: 262 tasks over 109 goals, 2,479 candidates.
    "worst adhoc_plan shape": (WORST_ADHOC, 382_765, 114_570, 131_800),
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call counts were taken on CPython 3.11; other minors differ",
)
@pytest.mark.parametrize("label", sorted(OPTIMIZE_CALLS))
def test_search_bookkeeping_has_not_crept_back(tracing, label):
    text, before, after, bound = OPTIMIZE_CALLS[label]
    db = Database.sample(scale=0.05, seed=1)
    db.optimize(text)
    counter = tracing.CallCounter()
    counter.run(lambda: db.optimize(text))
    assert counter.calls <= bound, (
        f"optimizing {label} made {counter.calls:,} calls; it made "
        f"{before:,} when every rule was offered every m-expr under every "
        f"task and derived sets, hashes and subtree costs were recomputed "
        f"per use, and {after:,} without"
    )
