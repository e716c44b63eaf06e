"""The optimizer's search, pinned from outside as a transcript.

For a statement and a configuration the search is a deterministic
function: the chosen plan, its cost, the group count, every
``SearchStats`` counter, the search-state lines a traced run records
and the order of its rule / memo / task / prune / enforcer events.  An
untraced run must decide the same plan, cost, groups and counters.
This test hashes all of that per case and compares it with
``tests/golden/search_transcript.json``, recorded *before* the search's
bookkeeping was optimised (operator-indexed rules, per-goal candidate
lists, once-computed hashes and derived sets), so a change that alters
any decision — which rule sees which m-expr, in which order candidates
are costed, what a goal is searched again for — fails here rather than
as a drifted golden plan three layers up.

The digests do not depend on the string hash seed (checked at recording
time under ``PYTHONHASHSEED`` 0, 1, 2 and random, and by CI under 0 and
random): nothing the search decides may come to depend on set or dict
iteration order over strings.

Regenerate (only when a PR *means* to change a search decision, and says
which): ``PYTHONPATH=src python -m tests.integration.test_search_transcript``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from repro.api import Database
from repro.errors import NoPlanFoundError
from repro.governor.context import QueryContext
from repro.obs.tracer import Tracer, search_states
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer import config as C
from repro.optimizer.optimizer import OptimizationResult
from repro.optimizer.plans import MergeJoinNode, SortNode

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "search_transcript.json"
PAPER = {"q1": QUERY_1, "q2": QUERY_2, "q3": QUERY_3, "q4": QUERY_4}

# The four indexes the statement-level benchmark's workloads create.
INDEXES = (
    ("ix_cities_mayor_name", "Cities", ("mayor", "name")),
    ("ix_tasks_time", "Tasks", ("time",)),
    ("ix_employees_name", "extent(Employee)", ("name",)),
    ("ix_cities_name", "Cities", ("name",)),
)

# The scalability bench's join chain (bench_search_scalability.chain_query;
# width 5 is the query test_rewrite_stage.py and bench_quick pin).
_RANGES = (
    ("Employee e IN Employees", None),
    ("Department d IN extent(Department)", "e.department == d"),
    ("Job j IN extent(Job)", "e.job == j"),
    ("Task t IN Tasks", "t.time == 100"),
    ("Country n IN extent(Country)", "n.name != 'x'"),
    ("Person p IN extent(Person)", "n.president == p"),
)

ORDER_BY = "SELECT c.name FROM c IN Cities WHERE c.population < 100000 ORDER BY c.name"
MERGE_ORDER = (
    "SELECT * FROM Employee e IN Employees, Department d IN extent(Department) "
    "WHERE e.department == d ORDER BY d"
)
MERGE_ONLY = OptimizerConfig().without(
    C.HYBRID_HASH_JOIN, C.NESTED_LOOPS, C.JOIN_TO_MAT
)
USER_RULE_QUERY = (
    "SELECT e.name FROM Employee e IN Employees "
    'WHERE e.department.plant.location == "Dallas"'
)


def chain_query(width: int) -> str:
    ranges = ", ".join(r for r, _ in _RANGES[:width])
    conds = " AND ".join(c for _, c in _RANGES[:width] if c)
    return f"SELECT e.name FROM {ranges} WHERE {conds}"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def decisions(result: OptimizationResult) -> list:
    """What one optimization decided, as JSON-able values."""
    return [
        result.plan.pretty(costs=True, props=True),
        repr(result.cost),
        result.groups,
        sorted(dataclasses.asdict(result.stats).items()),
    ]


def transcript(result: OptimizationResult) -> list:
    """A traced optimization's decisions plus its search-state lines."""
    return decisions(result) + [search_states(result.trace_events)]


def events_of(tracer: Tracer) -> list:
    return [[e.category, e.name] for e in tracer.events]


def traced(optimize):
    """``optimize(tracer)`` under an enabled tracer, checked against an
    untraced run: attaching a tracer must not change the search."""
    plain = optimize(None)
    tracer = Tracer()
    result = optimize(tracer)
    assert decisions(result) == decisions(plain), (
        "attaching a tracer changed the search"
    )
    return result, tracer


def entry(optimize, events: bool = True, check=None) -> dict:
    """The golden entry of one case: the transcript of a traced run and,
    unless ``events`` is off, its tracer's event order."""
    result, tracer = traced(optimize)
    if check is not None:
        check(result)
    out = {"transcript": _sha(transcript(result))}
    if events:
        out["events"] = _sha(events_of(tracer))
        out["event_count"] = len(tracer.events)
    return out


def no_plan(optimize) -> dict:
    """The golden entry of a case whose search finds no plan: the error
    and the traced event order up to it."""
    tracer = Tracer()
    with pytest.raises(NoPlanFoundError) as failure:
        optimize(tracer)
    return {
        "error": str(failure.value),
        "events": _sha(events_of(tracer)),
        "event_count": len(tracer.events),
    }


def has(node_type):
    def check(result: OptimizationResult) -> None:
        assert any(isinstance(n, node_type) for n in result.plan.walk()), (
            f"the case no longer exercises {node_type.__name__}"
        )

    return check


class ExpireAfter(QueryContext):
    """A governor whose search budget runs out at the N-th poll, so an
    anytime search can be pinned without pinning a duration."""

    polls_left = 0

    def search_expired(self) -> bool:
        self.polls_left -= 1
        return self.polls_left < 0


def anytime(db: Database, text: str, governor_factory, config=None) -> dict:
    """One anytime case; also records the fallback its degradation names."""
    exits = []

    def optimize(tracer):
        watch = Tracer()
        governor = governor_factory(watch)
        result = db.optimize(text, config, tracer=tracer, governor=governor)
        exits.append(
            [e.get("fallback") for e in watch.events_in("degraded")
             if e.get("fallback") is not None]
        )
        return result

    out = entry(optimize)
    assert exits[0] == exits[1] and len(exits[0]) == 1
    out["exit"] = exits[0][0]
    return out


def adhoc_shapes() -> tuple[Database, list[str]]:
    """The 160 ``adhoc_plan`` statements and the database they run on."""
    workloads = _load(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    spec = workloads.SPECS["adhoc_plan"]
    ref = workloads.Reference(spec, 1)
    pools = random.Random(f"{spec.name}/1/pools")
    shapes = workloads._adhoc_shapes(pools, ref)
    return workloads.build_database(spec, 1), [op.text for op in shapes]


def record_all() -> dict[str, dict]:
    cases: dict[str, dict] = {}

    plain = Database.sample(scale=0.05, seed=1)
    indexed = Database.sample(scale=0.05, seed=1)
    for index in INDEXES:
        indexed.create_index(*index)

    def case(name, db, text, config=None, **kwargs):
        cases[name] = entry(
            lambda tracer: db.optimize(text, config, tracer=tracer), **kwargs
        )

    for name, text in PAPER.items():
        case(f"paper-{name}", plain, text)
        case(f"paper-{name}-indexed", indexed, text)

    unrewritten = OptimizerConfig().with_rewrites(False)
    for width in range(2, 7):
        case(f"chain{width}", plain, chain_query(width))
        # Width 6 unrewritten fires 9,492 rules; its entry pins the
        # transcript without the event order.
        case(f"chain{width}-norewrite", plain, chain_query(width), unrewritten,
             events=width < 6)

    case("order-by-sort", indexed, ORDER_BY, check=has(SortNode))
    case("order-by-merge-join", plain, MERGE_ORDER, MERGE_ONLY,
         check=has(MergeJoinNode))

    # Warm-start assembly is off by default: pin it on, on lone Mats and
    # on the chain's traversal Mats (which also get an extent hash join),
    # and the chain with one Mat algorithm gone.
    warm = OptimizerConfig().with_rules(C.WARM_START_ASSEMBLY)
    for name, text in PAPER.items():
        case(f"warm-start-{name}", plain, text, warm)
        case(f"warm-start-{name}-indexed", indexed, text, warm)
    case("warm-start-chain5", plain, chain_query(5), warm)
    for rule in (C.POINTER_JOIN, C.ASSEMBLY):
        ablated = OptimizerConfig().without(rule)
        case(f"without-{rule}-q3", plain, QUERY_3, ablated)
        case(f"without-{rule}-chain5", plain, chain_query(5), ablated)
    case("without-pointer-join-q1", plain, QUERY_1,
         OptimizerConfig().without(C.POINTER_JOIN))
    # Only assembly reaches Plant (no extent, so no population to join
    # or partition against): Query 1 has no plan without it.
    cases["without-assembly-q1"] = no_plan(
        lambda tracer: plain.optimize(
            QUERY_1, OptimizerConfig().without(C.ASSEMBLY), tracer=tracer
        )
    )

    case("candidate-cap1-chain5", plain, chain_query(5),
         OptimizerConfig().with_heuristics(candidate_cap=1))
    case("rules-disabled-q1", plain, QUERY_1,
         OptimizerConfig().without(C.MAT_TO_JOIN, C.HYBRID_HASH_JOIN))

    # ``$search_timeout`` of zero: the budget is gone before the first
    # exploration round, so the greedy descent plans the unexplored memo.
    cases["anytime-timeout0-chain5"] = anytime(
        plain, chain_query(5),
        lambda watch: QueryContext(search_timeout_ms=0, tracer=watch),
    )

    # The budget runs out mid-descent (poll 150 of an unrewritten width-5
    # chain: ten exploration rounds, then goals), so the greedy descent
    # starts from the winners the budgeted search had already proved.
    def expiring(watch):
        governor = ExpireAfter(tracer=watch)
        governor.polls_left = 150
        return governor

    cases["anytime-poll150-chain5"] = anytime(
        plain, chain_query(5), expiring, unrewritten
    )

    fed = Database.sample(scale=0.05, seed=1)
    feedback = OptimizerConfig().with_feedback(True)
    fed.query(QUERY_1, config=feedback)
    case("feedback-second-q1", fed, QUERY_1, feedback)

    example = _load(
        "example_extending", ROOT / "examples" / "extending_the_optimizer.py"
    )
    simplified = plain.simplify(USER_RULE_QUERY)

    def with_user_rule(tracer):
        return Optimizer(
            plain.catalog,
            OptimizerConfig(),
            extra_implementations=(example.SampledScanRule(),),
        ).optimize(
            simplified.tree, result_vars=simplified.result_vars, tracer=tracer
        )

    def sampled(result):
        assert result.plan.pretty(costs=True) != plain.optimize(
            USER_RULE_QUERY
        ).plan.pretty(costs=True), "the user rule no longer wins anything"

    cases["user-rule"] = entry(with_user_rule, check=sampled)

    db, texts = adhoc_shapes()
    assert len(texts) == 160
    cases["adhoc-160"] = {
        "transcript": _sha([
            transcript(traced(
                lambda tracer, text=text: db.optimize(text, tracer=tracer)
            )[0])
            for text in texts
        ])
    }
    return cases


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return record_all()


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_recorded_case_is_still_exercised(recorded):
    assert sorted(recorded) == sorted(GOLDEN_CASES)


def test_anytime_cases_take_the_greedy_descent():
    exits = [entry["exit"] for entry in GOLDEN_CASES.values() if "exit" in entry]
    assert exits == ["greedy-descent", "greedy-descent"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_search_transcript_is_unchanged(recorded, name):
    assert recorded[name] == GOLDEN_CASES[name], (
        f"{name}: the search decided something differently (plan, cost, "
        "counters, search states or traced event order)"
    )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
