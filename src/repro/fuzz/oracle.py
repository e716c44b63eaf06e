"""The differential plan oracle: one query, every configuration pair.

Each case runs the query through:

* the default Volcano search (the *reference*);
* rule-restricted searches (no index collapse, no hash/merge join, no
  Mat-to-Join, pre-memo rewrites off) — different plan shapes, same
  logical query;
* the naive and greedy baseline optimizers (where they apply);
* the plan-cache path — miss, hit, and re-optimization after a catalog
  mutation (index created and dropped between runs) — plus an
  explicitly prepared ``$param`` variant;
* a traced run (enabled Tracer) against the untraced reference.

Results are compared as bags of :func:`repro.engine.tuples.row_key`
identities; ordered outputs additionally compare exact sequences when
the order is total (single range, unique root binding per row).  A crash
in any configuration where the reference succeeded is a finding too.
:class:`PlanMode` plugs it into the harness.
"""

from __future__ import annotations

import random
import traceback
from collections import Counter
from dataclasses import dataclass, replace

from repro.api import Database
from repro.baselines.greedy import GreedyOptimizer
from repro.baselines.naive import NaiveOptimizer
from repro.engine.tuples import Row, row_key
from repro.errors import (
    NoPlanFoundError,
    OptimizerError,
    ReproError,
)
from repro.fuzz.querygen import QuerySpec, random_query
from repro.fuzz.runner import Finding, Mode
from repro.fuzz.shrink import query_candidates, world_candidates
from repro.fuzz.worldgen import WorldSpec, build_database
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.config import (
    COLLAPSE_TO_INDEX_SCAN,
    HYBRID_HASH_JOIN,
    MAT_TO_JOIN,
    MERGE_JOIN,
)
from repro.optimizer.optimizer import Optimizer

#: Queries drawn from each world before a fresh one is generated
#: (building a store is the expensive part of a case).
DEFAULT_QUERIES_PER_WORLD = 5


def _bag(rows: list[Row]) -> Counter:
    return Counter(row_key(row) for row in rows)


def _seq(rows: list[Row]) -> list[tuple]:
    return [row_key(row) for row in rows]


def _diff(reference: Counter, candidate: Counter) -> str:
    missing = reference - candidate
    extra = candidate - reference
    parts = []
    if missing:
        parts.append(f"missing {sum(missing.values())} row(s): "
                     f"{list(missing)[:3]!r}")
    if extra:
        parts.append(f"extra {sum(extra.values())} row(s): "
                     f"{list(extra)[:3]!r}")
    return "; ".join(parts) or "row multiset differs"


def _total_order(spec: QuerySpec) -> bool:
    """True when the query's ordered output has one row per root binding.

    With the engine's total ordering key (value, then root identity),
    such outputs are deterministic across *any* correct plan, so exact
    sequences must agree.  Aggregates qualify too: group keys are unique
    and ordered aggregate output is deterministically tie-broken.
    """
    if spec.order_path is None:
        return False
    if spec.agg is not None:
        return True
    return len(spec.ranges) == 1 and not spec.subqueries and not spec.distinct


def run_case(db: Database, spec: QuerySpec, counts: Counter) -> list[Finding] | None:
    """Run one query through every configuration pair on ``db``.

    Returns the findings, or None when the reference itself rejects the
    query; ``counts["pairs"]`` counts the pairs compared.
    """
    text = spec.render()
    findings: list[Finding] = []
    try:
        reference = db.query(text, use_cache=False)
    except ReproError:
        # The generator produced a query the stack legitimately rejects
        # (unsupported shape, unknown path, ...): nothing to compare.
        return None
    except Exception:  # noqa: BLE001 - any crash IS the finding here
        return [Finding("reference-crash", traceback.format_exc(limit=3), text)]

    ref_bag = _bag(reference.rows)
    ref_seq = _seq(reference.rows)
    exact = _total_order(spec)

    def compare(kind: str, rows: list[Row], sequence: bool) -> None:
        counts["pairs"] += 1
        bag = _bag(rows)
        if bag != ref_bag:
            findings.append(Finding(kind, _diff(ref_bag, bag), text))
        elif sequence and _seq(rows) != ref_seq:
            findings.append(Finding(kind, "same rows, different order", text))

    def attempt(kind: str, run, sequence: bool = False) -> None:
        try:
            rows = run()
        except (NoPlanFoundError, OptimizerError):
            return  # configuration cannot plan this query: not a bug
        except Exception:  # noqa: BLE001 - any crash IS the finding here
            counts["pairs"] += 1
            findings.append(Finding(kind, traceback.format_exc(limit=3), text))
            return
        compare(kind, rows, sequence)

    # --- rule-restricted searches -------------------------------------
    variants = {
        "no-index-collapse": db.config.without(COLLAPSE_TO_INDEX_SCAN),
        "no-hash-join": db.config.without(HYBRID_HASH_JOIN, MERGE_JOIN),
        "no-mat-to-join": db.config.without(MAT_TO_JOIN),
        # Pre-memo rewrite stage on (reference) vs off: any unsound
        # rewrite — a bad fusion, a wrong pushdown — shows up as a row
        # divergence here.
        "no-rewrites": db.config.with_rewrites(False),
        # Cardinality feedback on vs the feedback-off reference: the loop
        # may only ever change plans, never result bytes.
        "feedback": db.config.with_feedback(True),
    }
    for kind, config in variants.items():
        attempt(
            kind,
            lambda config=config: db.query(
                text, config=config, use_cache=False
            ).rows,
            sequence=exact,
        )

    # A second feedback-on run re-optimizes *with* the observations the
    # first one just ingested — fed estimates, possibly a different plan
    # (and possibly a mid-query adaptive replan); rows must still be
    # byte-identical to the feedback-off reference.
    attempt(
        "feedback-warmed",
        lambda: db.query(
            text, config=db.config.with_feedback(True), use_cache=False
        ).rows,
        sequence=exact,
    )

    # --- baseline optimizers ------------------------------------------
    def baseline(kind: str):
        simplified = db.simplify(text)
        cost_model = Optimizer(db.catalog, db.config).cost_model
        if kind == "naive":
            plan = NaiveOptimizer(db.catalog, cost_model).optimize(simplified.tree)
        else:
            plan = GreedyOptimizer(db.catalog, cost_model).optimize(
                simplified.tree, result_vars=simplified.result_vars
            )
        return db.execute_plan(plan, result_vars=simplified.result_vars).rows

    # Baselines ignore ORDER BY, so only bags are compared.
    for kind in ("naive", "greedy"):
        attempt(kind, lambda kind=kind: baseline(kind))

    # --- plan cache: miss, hit, and catalog mutation in between -------
    attempt("cache-miss", lambda: db.query(text).rows, sequence=exact)
    attempt("cache-hit", lambda: db.query(text).rows, sequence=exact)
    mutation = _mutation_index(db, spec)
    if mutation is not None:
        collection, path = mutation
        try:
            db.create_index("__fuzz_mutation__", collection, path)
        except ReproError:
            mutation = None
    if mutation is not None:
        attempt("cache-post-create", lambda: db.query(text).rows, sequence=exact)
        db.drop_index("__fuzz_mutation__")
        attempt("cache-post-drop", lambda: db.query(text).rows, sequence=exact)

    # --- prepared $param variant --------------------------------------
    prepared = _parameterized(spec)
    if prepared is not None:
        param_text, name, value = prepared
        def run_prepared():
            pq = db.prepare(param_text)
            return pq.execute(**{name: value}).rows
        attempt("prepared", run_prepared, sequence=exact)

    # --- traced vs. untraced ------------------------------------------
    def run_traced():
        previous = db.tracer
        db.tracer = Tracer()
        try:
            return db.query(text, use_cache=False).rows
        finally:
            db.tracer = previous if previous is not None else NULL_TRACER
    attempt("traced", run_traced, sequence=exact)

    return findings


def _mutation_index(
    db: Database, spec: QuerySpec
) -> tuple[str, tuple[str, ...]] | None:
    """A valid (collection, path) for the cache-invalidation mutation."""
    from repro.catalog.schema import AttrKind

    for _, collection in spec.ranges:
        try:
            element = db.catalog.element_type(collection)
        except ReproError:
            continue
        for attr in element.attributes:
            if attr.kind is AttrKind.SCALAR:
                if db.catalog.find_index(collection, (attr.name,)) is None:
                    return collection, (attr.name,)
    return None


def _parameterized(spec: QuerySpec) -> tuple[str, str, object] | None:
    """Rewrite the first constant predicate as ``$p0``; (text, name, value)."""
    for position, pred in enumerate(spec.predicates):
        if pred.right_is_path or not isinstance(pred.right, (int, str)):
            continue
        if isinstance(pred.right, bool):
            continue
        rendered = []
        for j, p in enumerate(spec.predicates):
            if j == position:
                rendered.append(f"{'.'.join(p.left)} {p.op} $p0")
            else:
                rendered.append(p.render())
        rendered += [s.render() for s in spec.subqueries]
        base = replace(spec, predicates=(), subqueries=())
        text = base.render()
        marker = " WHERE "
        if marker in text:
            return None  # unexpected: base already has conditions
        insertion = " WHERE " + " && ".join(rendered)
        # Insert the WHERE clause before GROUP BY / ORDER BY tails.
        for tail in (" GROUP BY ", " ORDER BY "):
            at = text.find(tail)
            if at != -1:
                return text[:at] + insertion + text[at:], "p0", pred.right
        return text + insertion, "p0", pred.right
    return None


@dataclass(frozen=True)
class QueryMode(Mode):
    """A case is one generated query, ``(world, query, ...)``; consecutive
    cases share a world and its database.  Shared by the plan oracle and
    chaos."""

    world_tag = "world"
    queries_per_world: int = DEFAULT_QUERIES_PER_WORLD

    def database(self, world: WorldSpec) -> Database:
        return build_database(world)

    def draw(self, seed, i, world, counts):
        return world, random_query(random.Random(f"{seed}:query:{i}"), world)

    def candidates(self, case):
        world, query, *rest = case
        for smaller in query_candidates(query):
            yield (world, smaller, *rest)
        for smaller in world_candidates(world, query):
            yield (smaller, query, *rest)

    def encode(self, case) -> dict:
        return {"world": case[0].to_dict(), "query": case[1].to_dict()}

    def decode(self, data: dict):
        return WorldSpec.from_dict(data["world"]), QuerySpec.from_dict(data["query"])

    def describe(self, case) -> dict:
        return {"query_text": case[1].render()}


@dataclass(frozen=True)
class PlanMode(QueryMode):
    """The differential plan oracle (:func:`run_case`).  ``no_rewrites``
    and ``feedback`` switch the reference database to the rewrite- or
    feedback-ablation config, so every pair runs with that stage off or
    on (the default sweep already compares both settings per case)."""

    name = "plan"
    prefix = "repro-"
    counts = (("pairs", "configuration pairs"),)
    no_rewrites: bool = False
    feedback: bool = False

    def database(self, world: WorldSpec) -> Database:
        db = build_database(world)
        if self.no_rewrites:
            db.config = db.config.with_rewrites(False)
        if self.feedback:
            db.config = db.config.with_feedback(True)
        return db

    def check(self, case, counts, db=None):
        world, query = case
        return run_case(db if db is not None else self.database(world), query, counts)


__all__ = [
    "DEFAULT_QUERIES_PER_WORLD",
    "PlanMode",
    "QueryMode",
    "run_case",
]
