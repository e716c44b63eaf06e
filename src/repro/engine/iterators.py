"""Physical operator implementations as generators (Volcano iterators).

Each function takes the store (and child row iterators) and yields rows.
The operators are faithful to the algorithms the optimizer costs:

* **assembly** keeps a window of open references, fetches them in elevator
  (page) order, and emits rows in arrival order — windowed batching is
  observable in the disk simulator as shorter seeks;
* **pointer join** blocks, sorts *all* references by page, and sweeps;
* **hybrid hash join** builds on its left input and probes with the right,
  deriving equi-key columns from the predicate;
* **index scan** probes the runtime index and fetches qualifying root
  objects — path components stay non-resident, exactly as the optimizer's
  delivered-property vector claims.

Operators that evaluate a predicate take the statement's ``consts``: the
plan may be a plan-cache template whose constants are slots.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.algebra.operators import ProjectItem, RefSource, SetOpKind
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    VarRef,
    term_vars,
)
from repro.engine.tuples import (
    Obj,
    ReversedKey,
    Row,
    join_key,
    lower,
    lower_key,
    ordering_key,
    row_key,
    value_key,
)
from repro.errors import ExecutionError
from repro.storage.index import IndexRuntime
from repro.storage.objects import Oid
from repro.storage.store import ObjectStore


def instrumented(rows: Iterator[Row], stats, buffer=None) -> Iterator[Row]:
    """Wrap one operator's row stream with runtime accounting.

    ``stats`` is an :class:`repro.obs.runtime.OperatorRunStats` (duck-
    typed: ``rows_out``, ``next_seconds``, ``io``).  Each pull from the
    underlying iterator is timed (inclusive of children, as in SQL
    EXPLAIN ANALYZE), and — when ``buffer`` is given — runs under the
    operator's I/O scope so page hits/misses land on the operator whose
    code issued them.  The wrapper only exists on instrumented runs;
    normal execution never allocates it.
    """
    while True:
        if buffer is not None:
            buffer.push_io_scope(stats.io)
        started = time.perf_counter()
        try:
            row = next(rows)
        except StopIteration:
            return
        finally:
            stats.next_seconds += time.perf_counter() - started
            if buffer is not None:
                buffer.pop_io_scope()
        stats.rows_out += 1
        yield row


def file_scan(store: ObjectStore, collection: str, var: str) -> Iterator[Row]:
    """Sequentially scan a collection, binding each object to ``var``: the
    store's (or view's) own scan generator, one frame per row, whose close
    settles its page credit."""
    return store.scan(collection, var)


def index_scan(
    store: ObjectStore,
    index: IndexRuntime,
    var: str,
    comparison: Comparison,
    residual: Conjunction,
    consts: tuple = (),
) -> Iterator[Row]:
    """Probe an index, fetch qualifying roots, apply the residual.  A null
    key probes nothing: the comparison is false for every row, as a filter
    would decide."""
    _, op, const = comparison.term_const
    key = const.bound(consts)
    if key is None:
        return
    if op is CompOp.EQ:
        oids = index.lookup_eq(store, key)
    elif op in (CompOp.LT, CompOp.LE):
        oids = index.lookup_range(store, high=key, high_inclusive=op is CompOp.LE)
    elif op in (CompOp.GT, CompOp.GE):
        oids = index.lookup_range(store, low=key, low_inclusive=op is CompOp.GE)
    elif op is CompOp.NE:
        # The None bucket holds roots whose indexed path was null; SQL
        # comparison semantics say ``null != key`` is unknown, so those
        # roots must NOT qualify (a filter plan would reject them too).
        oids = index.lookup_ne(store, key)
    else:  # pragma: no cover - exhaustive over CompOp
        raise ExecutionError(f"index scan cannot serve operator {op}")
    passes = _residual(residual, consts)
    # Lazy: each root is fetched when its row is pulled, after the last yield.
    for obj in map(tuple.__new__, repeat(Obj), zip(oids, map(store.fetch, oids))):
        row = {var: obj}
        if passes is None or passes(row):
            yield row


def _residual(predicate: Conjunction, consts: tuple = ()):
    """The lowered predicate, or None when there is nothing to test."""
    return None if predicate.is_true else lower(predicate, consts)


def filter_rows(
    rows: Iterable[Row], predicate: Conjunction, consts: tuple = ()
) -> Iterator[Row]:
    """Emit rows satisfying the conjunction."""
    return filter(lower(predicate, consts), rows)


def _ref_resolver(source: RefSource):
    """``row -> Oid | None``, the reference a Mat resolves; lowered once."""
    var, attr = source.var, source.attr

    def resolve(row: Row) -> Oid | None:
        value = row.get(var)
        if attr is None:  # a bare reference binding
            if value is None or isinstance(value, Oid):
                return value
            raise ExecutionError(f"{var!r} is not a reference binding")
        if type(value) is not Obj:
            raise ExecutionError(f"{var!r} is not an object binding")
        data = value.data
        return value.field(attr) if data is None else data.get(attr)

    return resolve


def assembly(
    store: ObjectStore,
    rows: Iterable[Row],
    source: RefSource,
    out: str,
    window: int,
) -> Iterator[Row]:
    """Windowed reference resolution with elevator-ordered fetches.

    Rows whose reference is null are dropped (Mat has inner-join
    semantics on dangling/absent references).
    """
    resolve = _ref_resolver(source)
    refs = ((row, ref) for row in rows if (ref := resolve(row)) is not None)
    pool, page_of, peek = store.buffer, store.page_of, store.peek
    read_page = pool.read_page
    while batch := list(islice(refs, max(1, window))):
        oids = [ref for _, ref in batch]
        # A dangling reference raises here, before any row of the batch.
        pages = list(map(page_of, oids))
        records = list(map(peek, oids))
        # The elevator, in page order: nothing yields, so repeats are credited.
        for page, requests in sorted(Counter(pages).items()):
            read_page(page)
            if requests > 1:
                pool.rehit(page, requests - 1, pool.io_scope)
        # Emit in arrival order: a hit unless the window outgrew the pool.
        # Each binding is made as its row is: a window's worth alive at once
        # would only feed the garbage collector.
        objs = map(tuple.__new__, repeat(Obj), zip(oids, records))
        for (row, _), page, obj in zip(batch, pages, objs):
            read_page(page)
            new_row = dict(row)
            new_row[out] = obj
            yield new_row


def pointer_join(
    store: ObjectStore,
    rows: Iterable[Row],
    source: RefSource,
    out: str,
) -> Iterator[Row]:
    """Blocking pointer join: sort every reference by page, sweep once —
    an assembly whose window is the whole input."""
    return assembly(store, rows, source, out, sys.maxsize)


def warm_start_assembly(
    store: ObjectStore,
    rows: Iterable[Row],
    source: RefSource,
    out: str,
    target_collection: str,
) -> Iterator[Row]:
    """Scan the scannable target first, then resolve references in memory."""
    # An Obj is an (oid, data) pair: the scanned bindings make the dict.
    resident = dict(map(itemgetter(out), store.scan(target_collection, out)))
    resolve, new = _ref_resolver(source), tuple.__new__
    for row in rows:
        ref = resolve(row)
        if ref is None:
            continue
        data = resident.get(ref)
        if data is None:
            data = store.fetch(ref)  # target outside the scanned collection
        new_row = dict(row)
        new_row[out] = new(Obj, (ref, data))
        yield new_row


def unnest(rows: Iterable[Row], var: str, attr: str, out: str) -> Iterator[Row]:
    """Emit one row per member reference of a set-valued attribute."""
    for row in rows:
        holder = row.get(var)
        if not isinstance(holder, Obj):
            raise ExecutionError(f"{var!r} is not an object binding")
        members = holder.field(attr) or ()
        for member in members:
            new_row = dict(row)
            new_row[out] = member
            yield new_row


def _split_join_predicate(
    predicate: Conjunction, build_vars: frozenset[str], probe_vars: frozenset[str]
):
    """(build key terms, probe key terms, residual conjuncts)."""
    build_keys = []
    probe_keys = []
    residual = []
    for comparison in predicate.comparisons:
        lv = term_vars(comparison.left)
        rv = term_vars(comparison.right)
        if comparison.op is CompOp.EQ and lv and rv:
            if lv <= build_vars and rv <= probe_vars:
                build_keys.append(comparison.left)
                probe_keys.append(comparison.right)
                continue
            if lv <= probe_vars and rv <= build_vars:
                build_keys.append(comparison.right)
                probe_keys.append(comparison.left)
                continue
        residual.append(comparison)
    return build_keys, probe_keys, Conjunction.from_iterable(residual)


def _lower_join(
    predicate: Conjunction, build_row: Row, probe_row: Row, kind: str,
    consts: tuple = (),
):
    """(build key, probe key, residual test or None) of an equi-join,
    lowered once against the variables each side's first row binds."""
    build_keys, probe_keys, residual = _split_join_predicate(
        predicate, frozenset(build_row), frozenset(probe_row)
    )
    if not build_keys:
        raise ExecutionError(f"{kind} without equi-conjuncts: {predicate}")
    return (
        join_key(build_keys), join_key(probe_keys), _residual(residual, consts)
    )


def _hash_table(rows: Iterable[Row], key) -> dict[Any, list[Row]]:
    """Rows bucketed by :func:`join_key`; a null key never equi-joins (dict
    equality would say it does), so those rows are left out."""
    table: dict[Any, list[Row]] = {}
    for row in rows:
        bucket = key(row)
        if bucket is not None:
            table.setdefault(bucket, []).append(row)
    return table


def hash_join(
    build_rows: Iterable[Row],
    probe_rows: Iterable[Row],
    predicate: Conjunction,
    consts: tuple = (),
) -> Iterator[Row]:
    """Hybrid hash join: build on the first input, probe with the second."""
    build_list = list(build_rows)
    probe_iter = iter(probe_rows)
    if not build_list:
        return
    try:
        first_probe = next(probe_iter)
    except StopIteration:
        return
    build_key, probe_key, passes = _lower_join(
        predicate, build_list[0], first_probe, "hash join", consts
    )
    table = _hash_table(build_list, build_key)
    for row in chain((first_probe,), probe_iter):
        key = probe_key(row)
        if key is not None:
            for match in table.get(key, ()):
                combined = {**match, **row}
                if passes is None or passes(combined):
                    yield combined


def sort_rows(
    rows: Iterable[Row],
    var: str,
    attr: str | None,
    ascending: bool,
    tie_vars: tuple[str, ...] = (),
) -> Iterator[Row]:
    """The sort-order enforcer: materialize and sort by one key.

    Uses the engine-wide :func:`~repro.engine.tuples.ordering_key`
    (None sorts last in both directions; ties break on the binding's
    identity and then the plan's iteration variables), so every plan
    shape produces the same sequence for the same ordered query.
    """
    yield from sorted(rows, key=ordering_key(var, attr, ascending, tie_vars))


def merge_join(
    left_rows: Iterable[Row],
    right_rows: Iterable[Row],
    predicate: Conjunction,
    left_term,
    right_term,
    consts: tuple = (),
) -> Iterator[Row]:
    """Merge join: both inputs sorted ascending on the given key terms.

    The key terms come from the plan node — the inputs were *required*
    sorted on exactly these, so merging on anything else would be wrong.
    Rows whose key is None are dropped (inner-join semantics, matching the
    hash join); duplicate keys produce the cross product of the equal
    groups; the remaining conjuncts apply as a residual.
    """
    left_list = [r for r in left_rows]
    right_list = [r for r in right_rows]
    if not left_list or not right_list:
        return
    passes = _residual(
        predicate.without(Comparison(left_term, CompOp.EQ, right_term)), consts
    )
    left_keys = list(map(join_key((left_term,)), left_list))
    right_keys = list(map(join_key((right_term,)), right_list))

    i = j = 0
    while i < len(left_list) and j < len(right_list):
        lk, rk = left_keys[i], right_keys[j]
        if lk is None:
            i += 1
            continue
        if rk is None:
            j += 1
            continue
        if lk < rk:
            i += 1
        elif rk < lk:
            j += 1
        else:
            # Gather both equal-key groups from their first rows (NaN != NaN).
            i_end = i + 1
            while i_end < len(left_list) and left_keys[i_end] == lk:
                i_end += 1
            j_end = j + 1
            while j_end < len(right_list) and right_keys[j_end] == rk:
                j_end += 1
            for li in range(i, i_end):
                for rj in range(j, j_end):
                    combined = {**left_list[li], **right_list[rj]}
                    if passes is None or passes(combined):
                        yield combined
            i, j = i_end, j_end


def anti_join(
    left_rows: Iterable[Row],
    right_rows: Iterable[Row],
    predicate: Conjunction,
    consts: tuple = (),
) -> Iterator[Row]:
    """Hash anti-join: emit left rows with NO matching right row.

    Builds from the right (subquery) input; residual (non-equi) conjuncts
    are honoured — a left row survives only if no right row passes the
    whole predicate.
    """
    right_list = list(right_rows)
    left_iter = iter(left_rows)
    try:
        first_left = next(left_iter)
    except StopIteration:
        return
    if not right_list:
        yield first_left
        yield from left_iter
        return
    left_key, right_key, passes = _lower_join(
        predicate, first_left, right_list[0], "anti join", consts
    )
    table = _hash_table(right_list, right_key)  # a null key matches no left row

    def survives(row: Row) -> bool:
        key = left_key(row)
        if key is None:
            return True  # null equi-key: the subquery predicate is never true
        for match in table.get(key, ()):
            if passes is None or passes({**match, **row}):
                return False
        return True

    if survives(first_left):
        yield first_left
    for row in left_iter:
        if survives(row):
            yield row


def nested_loops_join(
    outer_rows: Iterable[Row],
    inner_rows: Iterable[Row],
    predicate: Conjunction,
    consts: tuple = (),
) -> Iterator[Row]:
    """Outer-major nested loops; handles arbitrary (even true) predicates."""
    inner_list = list(inner_rows)
    passes = lower(predicate, consts)
    for outer in outer_rows:
        for inner in inner_list:
            combined = {**outer, **inner}
            if passes(combined):
                yield combined


def project(
    rows: Iterable[Row], items: tuple[ProjectItem, ...], distinct: bool
) -> Iterator[Row]:
    """Evaluate projection items; optionally deduplicate (DISTINCT)."""
    seen: set[tuple] = set()
    getters = [(item.name, lower(item.term)) for item in items]
    for row in rows:
        output = {name: get(row) for name, get in getters}
        if distinct:
            key = tuple(value_key(output[item.name]) for item in items)
            if key in seen:
                continue
            seen.add(key)
        yield output


def group_by(
    rows: Iterable[Row],
    keys: tuple[ProjectItem, ...],
    aggregates: tuple,
    order_output: tuple[str, bool] | None,
    having: tuple = (),
    consts: tuple = (),
) -> Iterator[Row]:
    """Hash aggregation.

    SQL-style null handling: aggregate arguments that evaluate to None are
    skipped (COUNT(*) counts rows regardless); empty input yields no
    groups when keys exist, and — unlike SQL — also no row for the
    keyless case (set-oriented semantics: aggregating an empty set is the
    empty set).
    """
    from repro.algebra.operators import AggFunc

    groups: dict[tuple, dict] = {}
    key_rows: dict[tuple, Row] = {}
    group_key = lower_key(k.term for k in keys)
    key_getters = [(k.name, lower(k.term)) for k in keys]
    arguments = {
        agg.name: lower(agg.term) for agg in aggregates if agg.term is not None
    }
    for row in rows:
        key = group_key(row)
        state = groups.get(key)
        if state is None:
            state = {
                agg.name: {"count": 0, "sum": 0, "min": None, "max": None}
                for agg in aggregates
            }
            groups[key] = state
            key_rows[key] = row
        for agg in aggregates:
            acc = state[agg.name]
            if agg.term is None:  # COUNT(*)
                acc["count"] += 1
                continue
            value = arguments[agg.name](row)
            if value is None:
                continue
            acc["count"] += 1
            if agg.func in (AggFunc.SUM, AggFunc.AVG):
                acc["sum"] += value
            if agg.func is AggFunc.MIN:
                acc["min"] = value if acc["min"] is None else min(acc["min"], value)
            if agg.func is AggFunc.MAX:
                acc["max"] = value if acc["max"] is None else max(acc["max"], value)

    def finalize(agg, acc):
        if agg.func is AggFunc.COUNT:
            return acc["count"]
        if agg.func is AggFunc.SUM:
            return acc["sum"] if acc["count"] else None
        if agg.func is AggFunc.AVG:
            return acc["sum"] / acc["count"] if acc["count"] else None
        if agg.func is AggFunc.MIN:
            return acc["min"]
        return acc["max"]

    # HAVING compares output columns to constants under the same rule as
    # any other comparison (over None, or incomparable values: false).
    keeps = lower(
        Conjunction.from_iterable(
            Comparison(VarRef(h.column), h.op, h.constant) for h in having
        ),
        consts,
    )

    output: list[Row] = []
    for key, state in groups.items():
        row = key_rows[key]
        out: Row = {name: get(row) for name, get in key_getters}
        for agg in aggregates:
            out[agg.name] = finalize(agg, state[agg.name])
        if not keeps(out):
            continue
        output.append(out)

    if order_output is not None:
        column, ascending = order_output
        # Ties (and the trailing None block) break on the whole output
        # row, so the sequence is identical whichever plan fed the rows.
        def group_order(r: Row) -> tuple:
            value = value_key(r.get(column))
            tie = repr(row_key(r))
            if value is None:
                return (1, 0, tie)
            return (0, value if ascending else ReversedKey(value), tie)

        output.sort(key=group_order)
    yield from output


def set_op(
    kind: SetOpKind, left_rows: Iterable[Row], right_rows: Iterable[Row]
) -> Iterator[Row]:
    """Identity-based set operations with set (duplicate-free) semantics."""
    left_index: dict[tuple, Row] = {}
    for row in left_rows:
        left_index.setdefault(row_key(row), row)
    right_keys: dict[tuple, Row] = {}
    for row in right_rows:
        right_keys.setdefault(row_key(row), row)

    if kind is SetOpKind.UNION:
        yield from left_index.values()
        for key, row in right_keys.items():
            if key not in left_index:
                yield row
    elif kind is SetOpKind.INTERSECT:
        for key, row in left_index.items():
            if key in right_keys:
                yield row
    else:  # DIFFERENCE
        for key, row in left_index.items():
            if key not in right_keys:
                yield row


__all__ = [
    "assembly",
    "file_scan",
    "filter_rows",
    "hash_join",
    "index_scan",
    "instrumented",
    "nested_loops_join",
    "pointer_join",
    "project",
    "set_op",
    "unnest",
    "warm_start_assembly",
]
