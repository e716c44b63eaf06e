"""The differential oracle: one query, every configuration pair.

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
in any configuration where the reference succeeded is a mismatch too.
"""

from __future__ import annotations

import traceback
from collections import Counter
from dataclasses import dataclass, replace

from repro.api import Database
from repro.engine.tuples import Row, row_key
from repro.errors import (
    NoPlanFoundError,
    OptimizerError,
    ReproError,
)
from repro.fuzz.querygen import QuerySpec
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.config import (
    COLLAPSE_TO_INDEX_SCAN,
    HYBRID_HASH_JOIN,
    MAT_TO_JOIN,
    MERGE_JOIN,
)


@dataclass(frozen=True)
class Mismatch:
    """One divergence between the reference and a variant configuration."""

    kind: str  # e.g. "greedy", "cache-hit", "no-hash-join"
    query: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.query}\n  {self.detail}"


@dataclass
class CaseResult:
    """What happened to one fuzz case."""

    query: str
    mismatches: list[Mismatch]
    skipped: bool = False  # reference itself rejected the query
    pairs_run: int = 0


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


def run_case(db: Database, spec: QuerySpec) -> CaseResult:
    """Run one query through every configuration pair on ``db``."""
    text = spec.render()
    result = CaseResult(query=text, mismatches=[])
    try:
        reference = db.query(text, use_cache=False)
    except ReproError:
        # The generator produced a query the stack legitimately rejects
        # (unsupported shape, unknown path, ...): nothing to compare.
        result.skipped = True
        return result
    except Exception:  # noqa: BLE001 - any crash IS the finding here
        result.mismatches.append(
            Mismatch("reference-crash", text, traceback.format_exc(limit=3))
        )
        return result

    ref_bag = _bag(reference.rows)
    ref_seq = _seq(reference.rows)
    exact = _total_order(spec)

    def compare(kind: str, rows: list[Row], sequence: bool) -> None:
        result.pairs_run += 1
        bag = _bag(rows)
        if bag != ref_bag:
            result.mismatches.append(Mismatch(kind, text, _diff(ref_bag, bag)))
        elif sequence and _seq(rows) != ref_seq:
            result.mismatches.append(
                Mismatch(kind, text, "same rows, different order")
            )

    def attempt(kind: str, run, sequence: bool = False) -> None:
        try:
            rows = run()
        except (NoPlanFoundError, OptimizerError):
            return  # configuration cannot plan this query: not a bug
        except Exception:  # noqa: BLE001 - any crash IS the finding here
            result.pairs_run += 1
            result.mismatches.append(
                Mismatch(kind, text, traceback.format_exc(limit=3))
            )
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
    def baseline(plan_for):
        simplified = db.simplify(text)
        plan = plan_for(text)
        return db.execute_plan(
            plan, result_vars=simplified.result_vars
        ).rows

    # Baselines ignore ORDER BY, so only bags are compared.
    attempt("naive", lambda: baseline(db.naive_plan))
    attempt("greedy", lambda: baseline(db.greedy_plan))

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

    return result


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


__all__ = ["CaseResult", "Mismatch", "run_case"]
