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
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.engine import iterators
from repro.engine.tuples import Obj, Row, ordering_key
from repro.errors import MemoryBudgetExceeded
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.objects import Oid
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
    if value.__class__ in (list, tuple):  # an Oid (a tuple) is a scalar
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


def _stable(value: Any) -> Any:
    # Equal values map to equal stand-ins, none of them hashed as a string.
    if value.__class__ is Oid:
        return value.serial
    if isinstance(value, str):
        return zlib.crc32(value.encode())
    return value


def _partition(key: Any, fanout: int) -> int:
    """The partition of an equi-key (one term's as its 1-tuple), the same in
    every process: ``hash`` of a string follows ``PYTHONHASHSEED``."""
    key = key if key.__class__ is tuple else (key,)
    return hash(tuple(map(_stable, key))) % fanout


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
    return _grace_join(
        store, build_rows, probe_rows, predicate, consts, budget_bytes, tracer,
        anti=False,
    )


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
    return _grace_join(
        store, right_rows, left_rows, predicate, consts, budget_bytes, tracer,
        anti=True,
    )


def _grace_join(
    store: ObjectStore,
    build_rows: Iterable[Row],
    probe_rows: Iterable[Row],
    predicate,
    consts: tuple,
    budget_bytes: int,
    tracer: Tracer,
    anti: bool,
) -> Iterator[Row]:
    """The budgeted joins' one skeleton: buffer the build side, peek the
    probe side, join in memory when the build side fits, else partition
    both sides onto spill runs, join run by run and restore the probe
    side's arrival order.  A join emits each matching (build, probe) pair;
    an anti-join (``anti``) each probe row that no build row matches."""
    operator = "anti join" if anti else "hash join"
    _require_budget(budget_bytes, operator)
    build_list: list[Row] = []
    build_bytes = 0
    for row in build_rows:
        build_list.append(row)
        build_bytes += approx_row_bytes(row)
    if not build_list and not anti:
        return
    probe_iter = iter(probe_rows)
    try:
        first_probe = next(probe_iter)
    except StopIteration:
        return
    probe_stream = itertools.chain([first_probe], probe_iter)
    if not build_list:
        yield from probe_stream  # nothing can match: every row survives
        return
    if build_bytes <= budget_bytes:
        if anti:
            yield from iterators.anti_join(
                probe_stream, iter(build_list), predicate, consts
            )
        else:
            yield from iterators.hash_join(
                iter(build_list), probe_stream, predicate, consts
            )
        return

    # Lowered with the join's own sides: the anti-join's left is the probe.
    if anti:
        probe_key, build_key, passes = iterators._lower_join(
            predicate, first_probe, build_list[0], operator, consts
        )
    else:
        build_key, probe_key, passes = iterators._lower_join(
            predicate, build_list[0], first_probe, operator, consts
        )
    fanout = _fanout(build_bytes, budget_bytes)
    if tracer.enabled:
        tracer.event(
            "spill",
            "grace-anti-join" if anti else "grace-join",
            partitions=fanout,
            build_bytes=build_bytes,
        )

    build_parts: list[list[Row]] = [[] for _ in range(fanout)]
    for row in build_list:
        key = build_key(row)
        if key is None:
            continue  # null never equi-joins
        build_parts[_partition(key, fanout)].append(row)
    build_runs = [_write_run(store, part) for part in build_parts]
    del build_list, build_parts

    # Output rows tagged with their probe row's arrival sequence.
    output: list[tuple[int, Row]] = []
    probe_parts: list[list[tuple[int, Row]]] = [[] for _ in range(fanout)]
    for sequence, row in enumerate(probe_stream):
        key = probe_key(row)
        if key is None:
            if anti:
                output.append((sequence, row))  # the subquery never matches
            continue
        probe_parts[_partition(key, fanout)].append((sequence, row))
    probe_runs = [
        _write_run(store, part, row_of=lambda item: item[1])
        for part in probe_parts
    ]
    del probe_parts

    for part in range(fanout):
        table = iterators._hash_table(_read_run(store, build_runs[part]), build_key)
        for sequence, row in _read_run(store, probe_runs[part]):
            matches = table.get(probe_key(row), ())
            if anti:
                if not any(
                    passes is None or passes({**match, **row}) for match in matches
                ):
                    output.append((sequence, row))
                continue
            for match in matches:
                combined = {**match, **row}
                if passes is None or passes(combined):
                    output.append((sequence, combined))
    output.sort(key=lambda item: item[0])  # stable: per-probe match order kept
    for _, row in output:
        yield row


__all__ = [
    "MAX_PARTITIONS",
    "ROW_OVERHEAD_BYTES",
    "approx_row_bytes",
    "spill_anti_join",
    "spill_hash_join",
    "spill_sort_rows",
]
