"""Greedy delta-debugging: the one shrinker, and the candidates of
generated queries and worlds.

The shrinker repeatedly walks a mode's structurally smaller candidates —
fewer predicates/clauses, fewer statements, fewer indexes, fewer types,
smaller populations — and keeps the first one that still fails the
oracle, iterating to a fixpoint.  Because specs are plain data, every
candidate is just a ``dataclasses.replace`` away, and the final minimal
case serializes straight into ``tests/corpus/``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro.fuzz.querygen import QuerySpec
from repro.fuzz.worldgen import TypeSpec, WorldSpec

#: Candidate population sizes tried (in order) when shrinking a type.
_COUNT_LADDER = (1, 2, 3, 5, 10, 20)


def shrink_case(
    case,
    candidates: Callable[[object], Iterable],
    fails: Callable[[object], bool],
    max_attempts: int = 250,
):
    """Return the smallest case reachable from ``case`` that still fails.

    ``fails`` must be True for the input case; the shrinker only ever
    moves between failing cases, so the result is always a valid repro.
    A candidate whose check crashes is no progress, not the bug being
    minimized.
    """
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in candidates(case):
            if attempts >= max_attempts:
                break
            attempts += 1
            try:
                failed = fails(candidate)
            except Exception:  # noqa: BLE001 - a crashing candidate is just
                # a failed shrink step, not the bug being minimized
                failed = False
            if failed:
                case = candidate
                progress = True
                break
    return case


def query_candidates(query: QuerySpec):
    """Structurally smaller queries, most aggressive first."""
    for i in range(len(query.predicates)):
        smaller = query.predicates[:i] + query.predicates[i + 1 :]
        yield replace(query, predicates=smaller)
    for i in range(len(query.subqueries)):
        smaller = query.subqueries[:i] + query.subqueries[i + 1 :]
        yield replace(query, subqueries=smaller)
    if query.agg is not None:
        yield replace(query, agg=None, group_path=None, order_path=None)
    if query.order_path is not None:
        yield replace(query, order_path=None)
    if query.distinct:
        yield replace(query, distinct=False)
    if query.select_paths:
        yield replace(query, select_paths=(), distinct=False)
    if len(query.ranges) > 1:
        # Dropping a range only works if no clause mentions its variable.
        head = query.ranges[:1]
        dropped = {var for var, _ in query.ranges[1:]}
        if not any(
            set(_pred_vars(p)) & dropped for p in query.predicates
        ):
            yield replace(query, ranges=head)


def _pred_vars(pred) -> tuple[str, ...]:
    vars_ = [pred.left[0]]
    if pred.right_is_path:
        vars_.append(pred.right[0])
    return tuple(vars_)


def world_candidates(world: WorldSpec, query: QuerySpec):
    """Smaller worlds that still define everything the query touches."""
    for i in range(len(world.indexes)):
        smaller = world.indexes[:i] + world.indexes[i + 1 :]
        yield replace(world, indexes=smaller)
    needed = _needed_types(world, query)
    if len(needed) < len(world.types):
        kept = tuple(t for t in world.types if t.name in needed)
        yield replace(
            world,
            types=kept,
            indexes=tuple(
                ix
                for ix in world.indexes
                if any(_collection_of(t, ix.collection) for t in kept)
            ),
        )
    for i, t in enumerate(world.types):
        for count in _COUNT_LADDER:
            if count >= t.count:
                break
            shrunk = replace(
                t,
                count=count,
                named_set_count=min(t.named_set_count, count),
            )
            yield replace(
                world, types=world.types[:i] + (shrunk,) + world.types[i + 1 :]
            )


def _collection_of(t: TypeSpec, collection: str) -> bool:
    return collection == f"extent({t.name})" or collection == t.named_set


def _needed_types(world: WorldSpec, query: QuerySpec) -> set[str]:
    """Types reachable from the query's collections via references."""
    roots: set[str] = set()
    collections = [coll for _, coll in query.ranges]
    collections += [s.collection for s in query.subqueries]
    for t in world.types:
        if any(_collection_of(t, c) for c in collections):
            roots.add(t.name)
    # Close over reference targets (refs always point at earlier types).
    changed = True
    while changed:
        changed = False
        for t in world.types:
            if t.name not in roots:
                continue
            for a in t.attrs:
                if a.target and a.target not in roots:
                    roots.add(a.target)
                    changed = True
    return roots


__all__ = ["query_candidates", "shrink_case", "world_candidates"]
