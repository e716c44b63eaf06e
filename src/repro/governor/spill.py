"""Spill-to-disk variants of the blocking operators.

When a query carries a memory budget, the executor swaps the in-memory
sort enforcer and hash/anti-join for these implementations.  They track
approximate row bytes against the per-operator budget and, when it
overflows, spill to *temp pages* of the simulated store — sorted runs
for the sort (external merge sort), Grace-style partitions for the
joins — with every spill page charged through the
:class:`~repro.storage.buffer.BufferPool` as ``spill_write`` /
``spill_read`` traffic, so EXPLAIN ANALYZE attributes the extra I/O to
the operator that spilled.

Output equivalence is load-bearing, not best-effort: each variant
produces the *byte-identical* row sequence of its in-memory twin.

* Sort: runs are consecutive arrival-order chunks, each sorted with the
  engine-wide total :func:`~repro.engine.tuples.ordering_key`, merged
  with the stable ``heapq.merge`` — equal keys keep arrival order
  exactly as one stable full sort would.
* Joins: a probe/left row's equi-key maps to exactly one partition, so
  its matches still come from one build bucket in build-arrival order;
  tagging rows with their arrival sequence and stable-sorting the
  output restores the streaming emission order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.engine import iterators
from repro.engine.tuples import Obj, Row, ordering_key
from repro.errors import MemoryBudgetExceeded
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.store import ObjectStore

#: Fixed per-row bookkeeping charge (dict header, references).
ROW_OVERHEAD_BYTES = 64

#: Cap on Grace-join fan-out: beyond this, partitions may exceed the
#: budget in (simulated) memory rather than recursing.
MAX_PARTITIONS = 64


def _value_bytes(value: Any) -> int:
    if isinstance(value, Obj):
        size = 48
        if value.data:
            size += 40 * len(value.data)
        return size
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, (list, tuple)):
        return 56 + sum(_value_bytes(item) for item in value)
    return 28


def approx_row_bytes(row: Row) -> int:
    """A deterministic, monotone estimate of a row's memory footprint."""
    total = ROW_OVERHEAD_BYTES
    for name, value in row.items():
        total += 24 + len(name)
        total += _value_bytes(value)
    return total


# ----------------------------------------------------------------------
# Spill runs: simulated temp-page round trips
# ----------------------------------------------------------------------


@dataclass
class _SpillRun:
    """Items parked on simulated temp pages (data stays in memory —
    only the I/O is simulated, like everything else in the store)."""

    items: list
    pages: tuple[int, ...]


def _write_run(
    store: ObjectStore,
    items: list,
    row_of: Callable[[Any], Row] = lambda item: item,
) -> _SpillRun:
    """Park items on freshly allocated temp pages, charging spill writes."""
    if not items:
        return _SpillRun([], ())
    page_size = store.catalog.page_size
    total = sum(approx_row_bytes(row_of(item)) for item in items)
    pages = store.allocate_temp_pages(max(1, -(-total // page_size)))
    for page_id in pages:
        store.buffer.spill_write(page_id)
    return _SpillRun(items, tuple(pages))


def _read_run(store: ObjectStore, run: _SpillRun) -> Iterator:
    """Stream a run back, charging one spill read per page as consumed."""
    if not run.items:
        return
    per_page = -(-len(run.items) // len(run.pages))
    for position, item in enumerate(run.items):
        if position % per_page == 0:
            store.buffer.spill_read(run.pages[position // per_page])
        yield item


def _require_budget(budget_bytes: int, operator: str) -> None:
    if budget_bytes <= 0:
        raise MemoryBudgetExceeded(
            f"{operator}: memory budget of {budget_bytes} bytes leaves no workspace"
        )


# ----------------------------------------------------------------------
# External merge sort
# ----------------------------------------------------------------------


def spill_sort_rows(
    store: ObjectStore,
    rows: Iterable[Row],
    var: str,
    attr: str | None,
    ascending: bool,
    tie_vars: tuple[str, ...] = (),
    budget_bytes: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> Iterator[Row]:
    """Budgeted sort enforcer: in-memory when it fits, else run-merge."""
    _require_budget(budget_bytes, "sort")
    key = ordering_key(var, attr, ascending, tie_vars)
    runs: list[_SpillRun] = []
    current: list[Row] = []
    current_bytes = 0
    for row in rows:
        current.append(row)
        current_bytes += approx_row_bytes(row)
        if current_bytes >= budget_bytes and len(current) > 1:
            current.sort(key=key)
            runs.append(_write_run(store, current))
            current = []
            current_bytes = 0
    if not runs:
        current.sort(key=key)
        yield from current
        return
    if current:
        current.sort(key=key)
        runs.append(_write_run(store, current))
    if tracer.enabled:
        tracer.event(
            "spill",
            "sort-merge",
            runs=len(runs),
            pages=sum(len(run.pages) for run in runs),
        )
    yield from heapq.merge(*(_read_run(store, run) for run in runs), key=key)


# ----------------------------------------------------------------------
# Grace hash join / anti-join
# ----------------------------------------------------------------------


def _fanout(total_bytes: int, budget_bytes: int) -> int:
    return min(MAX_PARTITIONS, max(2, -(-total_bytes // budget_bytes)))


def spill_hash_join(
    store: ObjectStore,
    build_rows: Iterable[Row],
    probe_rows: Iterable[Row],
    predicate,
    consts: tuple = (),
    budget_bytes: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> Iterator[Row]:
    """Budgeted hash join: in-memory when the build side fits, else Grace."""
    _require_budget(budget_bytes, "hash join")
    build_list: list[Row] = []
    build_bytes = 0
    for row in build_rows:
        build_list.append(row)
        build_bytes += approx_row_bytes(row)
    if not build_list:
        return
    probe_iter = iter(probe_rows)
    try:
        first_probe = next(probe_iter)
    except StopIteration:
        return
    probe_stream = itertools.chain([first_probe], probe_iter)
    if build_bytes <= budget_bytes:
        yield from iterators.hash_join(
            iter(build_list), probe_stream, predicate, consts
        )
        return

    build_key, probe_key, passes = iterators._lower_join(
        predicate, build_list[0], first_probe, "hash join", consts
    )
    fanout = _fanout(build_bytes, budget_bytes)
    if tracer.enabled:
        tracer.event(
            "spill", "grace-join", partitions=fanout, build_bytes=build_bytes
        )

    build_parts: list[list[Row]] = [[] for _ in range(fanout)]
    for row in build_list:
        key = build_key(row)
        if None in key:
            continue  # null never equi-joins
        build_parts[hash(key) % fanout].append(row)
    build_runs = [_write_run(store, part) for part in build_parts]
    del build_list, build_parts

    probe_parts: list[list[tuple[int, Row]]] = [[] for _ in range(fanout)]
    for sequence, row in enumerate(probe_stream):
        key = probe_key(row)
        if None in key:
            continue
        probe_parts[hash(key) % fanout].append((sequence, row))
    probe_runs = [
        _write_run(store, part, row_of=lambda item: item[1])
        for part in probe_parts
    ]
    del probe_parts

    output: list[tuple[int, Row]] = []
    for part in range(fanout):
        table = iterators._hash_table(_read_run(store, build_runs[part]), build_key)
        for sequence, row in _read_run(store, probe_runs[part]):
            for match in table.get(probe_key(row), ()):
                combined = {**match, **row}
                if passes is None or passes(combined):
                    output.append((sequence, combined))
    output.sort(key=lambda item: item[0])  # stable: per-probe match order kept
    for _, combined in output:
        yield combined


def spill_anti_join(
    store: ObjectStore,
    left_rows: Iterable[Row],
    right_rows: Iterable[Row],
    predicate,
    consts: tuple = (),
    budget_bytes: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> Iterator[Row]:
    """Budgeted anti-join: budget governs the right (build) side."""
    _require_budget(budget_bytes, "anti join")
    right_list: list[Row] = []
    right_bytes = 0
    for row in right_rows:
        right_list.append(row)
        right_bytes += approx_row_bytes(row)
    left_iter = iter(left_rows)
    try:
        first_left = next(left_iter)
    except StopIteration:
        return
    left_stream = itertools.chain([first_left], left_iter)
    if not right_list:
        yield from left_stream
        return
    if right_bytes <= budget_bytes:
        yield from iterators.anti_join(
            left_stream, iter(right_list), predicate, consts
        )
        return

    left_key, right_key, passes = iterators._lower_join(
        predicate, first_left, right_list[0], "anti join", consts
    )
    fanout = _fanout(right_bytes, budget_bytes)
    if tracer.enabled:
        tracer.event(
            "spill", "grace-anti-join", partitions=fanout, build_bytes=right_bytes
        )

    right_parts: list[list[Row]] = [[] for _ in range(fanout)]
    for row in right_list:
        key = right_key(row)
        if None in key:
            continue  # a null key matches no left row
        right_parts[hash(key) % fanout].append(row)
    right_runs = [_write_run(store, part) for part in right_parts]
    del right_list, right_parts

    survivors: list[tuple[int, Row]] = []
    left_parts: list[list[tuple[int, Row]]] = [[] for _ in range(fanout)]
    for sequence, row in enumerate(left_stream):
        key = left_key(row)
        if None in key:
            survivors.append((sequence, row))  # subquery never matches
        else:
            left_parts[hash(key) % fanout].append((sequence, row))
    left_runs = [
        _write_run(store, part, row_of=lambda item: item[1])
        for part in left_parts
    ]
    del left_parts

    for part in range(fanout):
        table = iterators._hash_table(_read_run(store, right_runs[part]), right_key)
        for sequence, row in _read_run(store, left_runs[part]):
            alive = True
            for match in table.get(left_key(row), ()):
                if passes is None or passes({**match, **row}):
                    alive = False
                    break
            if alive:
                survivors.append((sequence, row))
    survivors.sort(key=lambda item: item[0])
    for _, row in survivors:
        yield row


__all__ = [
    "MAX_PARTITIONS",
    "ROW_OVERHEAD_BYTES",
    "approx_row_bytes",
    "spill_anti_join",
    "spill_hash_join",
    "spill_sort_rows",
]
