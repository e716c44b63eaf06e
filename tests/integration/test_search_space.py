"""The explored search space, pinned per statement.

``test_search_transcript.py`` hashes everything the search decided,
rule-application counts included, so any change to *how* exploration
runs moves it.  This test pins what exploration must *reach* regardless
of how it gets there: per statement the chosen plan, its cost, the live
group count and the live m-expr count after exploration (read off the
memo once ``SearchEngine.explore`` returns).  A change to the exploration
mechanism keeps ``tests/golden/search_space.json`` byte-identical.

The cases are every ``search_transcript.json`` case (recorded through
that module's ``record_all``), each of the 160 ``adhoc_plan`` statements
and the join chains 1-6 with rewrites on and off.

``test_every_group_is_keyed_by_what_it_computes`` checks each recorded
memo's group keys (``test_prop_memo.key_violations``),
``test_every_floor_is_admissible`` each search's cost floors against its
winners (``test_prop_floor.floor_violations``), and
``test_exploration_reaches_a_fixpoint`` checks the memo itself: after
exploration, one more application of every enabled rule to every m-expr
produces only expressions the memo already holds, in the group it
already holds them in.

Regenerate (only when a change *means* to move the search space):
``PYTHONPATH=src python -m tests.integration.test_search_space``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import Database
from repro.errors import NoPlanFoundError
from repro.obs.tracer import Tracer
from repro.optimizer import OptimizerConfig
from repro.optimizer.search import SearchEngine

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4
from tests.integration import test_search_transcript as transcripts
from tests.integration.test_search_transcript import adhoc_shapes, chain_query
from tests.property.test_prop_floor import after_search, floor_violations
from tests.property.test_prop_memo import key_violations

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "search_space.json"
UNREWRITTEN = OptimizerConfig().with_rewrites(False)


@contextmanager
def after_explore(hook):
    """Run ``hook(engine)`` each time exploration finishes."""
    original = SearchEngine.explore

    def explore(engine):
        original(engine)
        hook(engine)

    SearchEngine.explore = explore
    try:
        yield
    finally:
        SearchEngine.explore = original


def chain_text(width: int) -> str:
    """The scalability chain of ``width`` ranges (width 1 has no WHERE)."""
    return chain_query(width).removesuffix(" WHERE ")


def live_mexprs(engine: SearchEngine) -> int:
    return sum(len(group.mexprs) for group in engine.ctx.memo.groups())


def record_all() -> dict[str, list]:
    live: list[int] = []

    def space(result) -> list:
        return [
            result.plan.pretty(costs=True),
            repr(result.cost),
            result.groups,
            live[-1],
        ]

    # The transcript module's cases, each recorded as its search space:
    # one untraced run, no hashing.
    def entry(optimize, events=True, check=None):
        return space(optimize(None))

    def no_plan(optimize):
        with pytest.raises(NoPlanFoundError) as failure:
            optimize(None)
        return [str(failure.value), live[-1]]

    def anytime(db, text, governor_factory, config=None):
        return entry(
            lambda tracer: db.optimize(
                text, config, governor=governor_factory(Tracer())
            )
        )

    patched = {
        "entry": entry,
        "no_plan": no_plan,
        "anytime": anytime,
        "transcript": space,
        "traced": lambda optimize: (optimize(None), None),
        "_sha": lambda payload: payload,
    }
    saved = {name: getattr(transcripts, name) for name in patched}
    cases: dict[str, list] = {}
    with after_explore(lambda engine: live.append(live_mexprs(engine))):
        for name, value in patched.items():
            setattr(transcripts, name, value)
        try:
            for name, value in transcripts.record_all().items():
                if name == "adhoc-160":
                    continue  # recorded per statement below
                cases[f"transcript/{name}"] = value
        finally:
            for name, value in saved.items():
                setattr(transcripts, name, value)

        db, texts = adhoc_shapes()
        for number, text in enumerate(texts):
            cases[f"adhoc/{number:03d}"] = space(db.optimize(text))
        plain = Database.sample(scale=0.05, seed=1)
        for width in range(1, 7):
            cases[f"chain/{width}"] = space(plain.optimize(chain_text(width)))
        for width in range(1, 7):
            cases[f"chain/{width}-norewrite"] = space(
                plain.optimize(chain_text(width), UNREWRITTEN)
            )
    return cases


@pytest.fixture(scope="module")
def key_checks() -> list:
    """Per exploration while recording: its memo's key violations."""
    return []


@pytest.fixture(scope="module")
def floor_checks() -> list:
    """Per search while recording: its cost floors above a winner."""
    return []


@pytest.fixture(scope="module")
def recorded(key_checks, floor_checks) -> dict[str, list]:
    with after_explore(
        lambda engine: key_checks.append(key_violations(engine.ctx.memo))
    ), after_search(
        lambda engine: floor_checks.append(floor_violations(engine))
    ):
        return record_all()


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_recorded_case_is_still_exercised(recorded):
    assert sorted(recorded) == sorted(GOLDEN_CASES)
    assert len(GOLDEN_CASES) == 41 + 160 + 6 + 6


def test_every_group_is_keyed_by_what_it_computes(recorded, key_checks):
    """Every m-expr of every pinned statement computes its group's key,
    and no two groups share one."""
    assert len(key_checks) >= len(GOLDEN_CASES)
    violations = [found for checked in key_checks for found in checked]
    assert not violations, violations[:5]


def test_every_floor_is_admissible(recorded, floor_checks):
    """No group's cost floor exceeds the cost of a goal it won."""
    assert len(floor_checks) >= len(GOLDEN_CASES)
    violations = [found for checked in floor_checks for found in checked]
    assert not violations, violations[:5]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_search_space_is_unchanged(recorded, name):
    assert recorded[name] == GOLDEN_CASES[name], (
        f"{name}: exploration reached a different space (plan, cost, "
        "group count or live m-expr count)"
    )


# ----------------------------------------------------------------------
# Fixpoint: one more rule pass adds nothing
# ----------------------------------------------------------------------


def fire(rule, mexpr, memo):
    """Every tree ``rule`` yields for ``mexpr`` against all its inputs."""
    inners = (
        () if rule.input is None else memo.group(mexpr.children[rule.input]).mexprs
    )
    return rule.apply(mexpr, memo, inners)


def missing_after_one_more_pass(engine: SearchEngine) -> list[str]:
    """The rule outputs the explored memo does not hold where it should."""
    memo = engine.ctx.memo
    home: dict[tuple, int] = {}
    for group in memo.groups():
        for mexpr in group.mexprs:
            home[mexpr.key()] = group.gid

    def resolve(tree) -> int | None:
        op, children = tree
        gids = []
        for child in children:
            gid = child if isinstance(child, int) else resolve(child)
            if gid is None:
                return None
            gids.append(gid)
        return home.get((op.signature(), tuple(gids)))

    missing = []
    for group in memo.groups():
        for mexpr in list(group.mexprs):
            for rule in engine.transformations:
                if rule.operators is not None and not isinstance(
                    mexpr.op, rule.operators
                ):
                    continue
                for tree in fire(rule, mexpr, memo):
                    if resolve(tree) != group.gid:
                        missing.append(
                            f"{rule.name} on {mexpr.op.describe()} "
                            f"in group {group.gid}"
                        )
    return missing


def _fixpoint_cases() -> list:
    cases = []
    for name, text in (
        ("q1", QUERY_1), ("q2", QUERY_2), ("q3", QUERY_3), ("q4", QUERY_4)
    ):
        cases.append((f"paper-{name}", text, None))
        cases.append((f"paper-{name}-norewrite", text, UNREWRITTEN))
    for width in range(2, 7):
        cases.append((f"chain{width}-norewrite", chain_query(width), UNREWRITTEN))
    return cases


@pytest.fixture(scope="module")
def plain_db() -> Database:
    return Database.sample(scale=0.05, seed=1)


@pytest.fixture(scope="module")
def adhoc():
    return adhoc_shapes()


def _check_fixpoint(db, text, config) -> None:
    missing: list[str] = []
    with after_explore(
        lambda engine: missing.extend(missing_after_one_more_pass(engine))
    ):
        db.optimize(text, config)
    assert not missing, missing[:5]


@pytest.mark.parametrize(
    "text,config",
    [case[1:] for case in _fixpoint_cases()],
    ids=[case[0] for case in _fixpoint_cases()],
)
def test_exploration_reaches_a_fixpoint(plain_db, text, config):
    _check_fixpoint(plain_db, text, config)


@pytest.mark.parametrize("number", range(0, 160, 8))
def test_adhoc_exploration_reaches_a_fixpoint(adhoc, number):
    db, texts = adhoc
    _check_fixpoint(db, texts[number], None)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
