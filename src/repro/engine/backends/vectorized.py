"""Vectorized backend: batch-at-a-time operators over columnar chunks.

A :class:`Chunk` holds a fixed-size batch of rows decomposed into
columns (one Python list per bound variable), so the per-row interpreter
overhead — generator frames, dict construction, ``eval_term`` dispatch —
is paid once per batch instead of once per row.  Scans, filters,
projections, hash joins, and Mat (assembly) run chunk-wise; every other
operator falls back to the interpreted iterators, with vectorized
execution resuming in the supported subtrees below it.

Semantics are byte-identical to :mod:`repro.engine.iterators` by
construction, and the differential fuzzer enforces it: SQL null
comparison rules (``None`` compares false, ``TypeError`` compares
false), null keys never equi-joining, hash-join build/probe order, Mat
dropping null references, DISTINCT keeping first occurrences, and the
exact output row order all match the tuple-at-a-time engine.

Governance is chunk-granular: every chunk boundary between two
vectorized operators polls the run's :class:`QueryContext`, so a
timeout or cancellation fires even while a filter is rejecting every
row of a long scan.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    ObjectTerm,
    RefAttr,
    SelfOid,
    VarRef,
)
from repro.engine.backends.base import ExecutionBackend
from repro.engine.iterators import _split_join_predicate
from repro.engine.tuples import COMPARISON_OPS, Obj, Row, eval_conjunction, value_key
from repro.errors import ExecutionError
from repro.optimizer.plans import (
    AlgProjectNode,
    AssemblyNode,
    FileScanNode,
    FilterNode,
    HashJoinNode,
    PartitionedScanNode,
    PhysicalNode,
)

#: Rows per columnar chunk.  Also the granularity of governor polls
#: between vectorized operators.
CHUNK_ROWS = 256


class Chunk:
    """One batch of rows as columns: ``var -> list`` of equal length."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict[str, list], length: int) -> None:
        self.columns = columns
        self.length = length

    def row(self, i: int) -> Row:
        return {var: col[i] for var, col in self.columns.items()}

    def gather(self, indices: list[int]) -> "Chunk":
        """A new chunk holding only the given positions, in order."""
        return Chunk(
            {
                var: [col[i] for i in indices]
                for var, col in self.columns.items()
            },
            len(indices),
        )


def _flatten(chunks: Iterator[Chunk]) -> Iterator[Row]:
    for chunk in chunks:
        columns = chunk.columns
        for i in range(chunk.length):
            yield {var: col[i] for var, col in columns.items()}


def _rechunk(rows: Iterator[Row], size: int = CHUNK_ROWS) -> Iterator[Chunk]:
    """Batch an interpreted row stream back into columnar chunks."""
    columns: dict[str, list] = {}
    length = 0
    for row in rows:
        if not columns:
            columns = {var: [] for var in row}
        for var, value in row.items():
            columns[var].append(value)
        length += 1
        if length >= size:
            yield Chunk(columns, length)
            columns = {}
            length = 0
    if length:
        yield Chunk(columns, length)


def _governed_chunks(chunks: Iterator[Chunk], ctx) -> Iterator[Chunk]:
    """Poll the governor once per chunk boundary (and once up front)."""
    ctx.check()
    for chunk in chunks:
        yield chunk
        ctx.check()


def _instrumented_chunks(chunks: Iterator[Chunk], stats, buffer) -> Iterator[Chunk]:
    """Chunk-level counterpart of :func:`repro.engine.iterators.instrumented`.

    Applied to vectorized operators *internal* to a subtree (the root is
    instrumented row-wise by ``Executor.rows``).  Rows out advance by
    chunk length; I/O issued while producing a chunk lands on the
    operator's scope, exactly as on the Volcano path.
    """
    import time

    while True:
        if buffer is not None:
            buffer.push_io_scope(stats.io)
        started = time.perf_counter()
        try:
            chunk = next(chunks)
        except StopIteration:
            return
        finally:
            stats.next_seconds += time.perf_counter() - started
            if buffer is not None:
                buffer.pop_io_scope()
        stats.rows_out += chunk.length
        yield chunk


# ----------------------------------------------------------------------
# Columnar term evaluation (mirrors tuples.eval_term semantics exactly)
# ----------------------------------------------------------------------


def _term_column(term, chunk: Chunk, indices: list[int]) -> list:
    """Evaluate a term at the given chunk positions.

    Raises the same :class:`ExecutionError` messages as ``eval_term``
    would for the first offending row, so error behaviour matches the
    interpreter for uniform conditions (a variable that is not an object
    binding is not an object binding in any row of the chunk).
    """
    if isinstance(term, Const):
        return [term.value] * len(indices)
    if isinstance(term, (FieldRef, RefAttr)):
        col = chunk.columns.get(term.var)
        out = []
        for i in indices:
            value = col[i] if col is not None else None
            if not isinstance(value, Obj):
                raise ExecutionError(
                    f"variable {term.var!r} is not an object binding"
                )
            if value.data is None:
                raise ExecutionError(
                    f"attribute {term.attr!r} of non-resident object "
                    f"{value.oid}"
                )
            out.append(value.data.get(term.attr))
        return out
    if isinstance(term, SelfOid):
        col = chunk.columns.get(term.var)
        out = []
        for i in indices:
            value = col[i] if col is not None else None
            if not isinstance(value, Obj):
                raise ExecutionError(
                    f"variable {term.var!r} is not an object binding"
                )
            out.append(value.oid)
        return out
    if isinstance(term, VarRef):
        col = chunk.columns.get(term.var)
        if col is None:
            raise ExecutionError(f"variable {term.var!r} not in row")
        return [col[i] for i in indices]
    if isinstance(term, ObjectTerm):
        col = chunk.columns.get(term.var)
        out = []
        for i in indices:
            value = col[i] if col is not None else None
            if not isinstance(value, Obj) or not value.resident:
                raise ExecutionError(
                    f"object {term.var!r} not resident for projection"
                )
            out.append(value)
        return out
    raise ExecutionError(f"unknown term {term!r}")


def _apply_comparison(
    comparison: Comparison, chunk: Chunk, indices: list[int]
) -> list[int]:
    """Positions (among ``indices``) where the comparison holds.

    SQL semantics per element: a ``None`` on either side compares false,
    and so does a ``TypeError`` from mismatched types.  Later conjuncts
    are only ever evaluated at positions that survived earlier ones, so
    term-evaluation side effects (errors) fire for exactly the rows the
    row-at-a-time short-circuit would have reached.
    """
    left = _term_column(comparison.left, chunk, indices)
    right = _term_column(comparison.right, chunk, indices)
    op = COMPARISON_OPS[comparison.op]
    kept = []
    for pos, i in enumerate(indices):
        lv = left[pos]
        rv = right[pos]
        if lv is None or rv is None:
            continue
        try:
            if op(lv, rv):
                kept.append(i)
        except TypeError:
            continue
    return kept


def _filter_chunk(chunk: Chunk, predicate: Conjunction) -> Chunk | None:
    indices = list(range(chunk.length))
    for comparison in predicate.comparisons:
        if not indices:
            break
        indices = _apply_comparison(comparison, chunk, indices)
    if not indices:
        return None
    if len(indices) == chunk.length:
        return chunk
    return chunk.gather(indices)


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------


class VectorizedBackend(ExecutionBackend):
    """Columnar chunk execution with interpreted fallback."""

    name = "vectorized"

    SUPPORTED = (
        FileScanNode,
        PartitionedScanNode,
        FilterNode,
        AlgProjectNode,
        HashJoinNode,
        AssemblyNode,
    )

    def rows(self, executor, plan, run, collector, partition=None):
        chunks = self._chunks(executor, plan, run, collector, partition)
        if chunks is None:
            return executor._dispatch(plan, run, collector, partition)
        if run.tracer.enabled:
            run.tracer.event(
                "backend",
                "vectorized",
                root=plan.algorithm,
                chunk_rows=CHUNK_ROWS,
            )
        if run.ctx is not None:
            chunks = _governed_chunks(chunks, run.ctx)
        return _flatten(chunks)

    # -- chunk pipeline construction -----------------------------------

    def _chunks(
        self, executor, plan: PhysicalNode, run, collector, partition
    ) -> Iterator[Chunk] | None:
        """A chunk stream for a supported node, None when unsupported."""
        if isinstance(plan, PartitionedScanNode):
            if partition is None:
                return self._scan_chunks(run.view, plan.collection, plan.var)
            index, degree = partition
            return self._scan_chunks(
                run.view, plan.collection, plan.var, (index, degree)
            )
        if isinstance(plan, FileScanNode):
            return self._scan_chunks(run.view, plan.collection, plan.var)
        if isinstance(plan, FilterNode):
            return self._filter_chunks(executor, plan, run, collector, partition)
        if isinstance(plan, AlgProjectNode):
            return self._project_chunks(executor, plan, run, collector, partition)
        if isinstance(plan, HashJoinNode):
            # Memory-budgeted joins spill through the Grace operator,
            # which is row-oriented: leave them to interpretation.
            ctx = run.ctx
            if ctx is not None and ctx.memory_bytes is not None:
                return None
            return self._hash_join_chunks(executor, plan, run, collector, partition)
        if isinstance(plan, AssemblyNode):
            return self._assembly_chunks(executor, plan, run, collector, partition)
        return None

    def _child_chunks(
        self, executor, child: PhysicalNode, run, collector, partition
    ) -> Iterator[Chunk]:
        """The chunk stream of a child node, whichever engine runs it.

        A vectorized child is polled per chunk (governor) and, on
        instrumented runs, counted chunk-wise into its operator stats.
        An unsupported child goes through ``executor.rows`` — picking up
        the ordinary governed/instrumented row pipeline (and, below it,
        vectorized execution of any supported grandchildren) — and its
        rows are re-batched into chunks.
        """
        chunks = self._chunks(executor, child, run, collector, partition)
        if chunks is None:
            return _rechunk(executor.rows(child, run, collector, partition))
        if collector is not None:
            chunks = _instrumented_chunks(
                chunks, collector.stats_for(child), executor.store.buffer
            )
        if run.ctx is not None:
            chunks = _governed_chunks(chunks, run.ctx)
        return chunks

    # -- operators ------------------------------------------------------

    def _scan_chunks(
        self, view, collection: str, var: str, partition=None
    ) -> Iterator[Chunk]:
        def stream() -> Iterator[Chunk]:
            if partition is None:
                source = view.scan(collection)
            else:
                index, degree = partition
                source = view.scan_partition(collection, index, degree)
            col: list = []
            for oid, data in source:
                col.append(Obj(oid, data))
                if len(col) >= CHUNK_ROWS:
                    yield Chunk({var: col}, len(col))
                    col = []
            if col:
                yield Chunk({var: col}, len(col))

        return stream()

    def _filter_chunks(self, executor, plan, run, collector, partition):
        child = self._child_chunks(
            executor, plan.children[0], run, collector, partition
        )
        predicate = plan.predicate

        def stream() -> Iterator[Chunk]:
            for chunk in child:
                filtered = _filter_chunk(chunk, predicate)
                if filtered is not None:
                    yield filtered

        return stream()

    def _project_chunks(self, executor, plan, run, collector, partition):
        child = self._child_chunks(
            executor, plan.children[0], run, collector, partition
        )
        items = plan.items
        distinct = plan.distinct

        def stream() -> Iterator[Chunk]:
            seen: set[tuple] = set()
            for chunk in child:
                indices = list(range(chunk.length))
                columns = {
                    item.name: _term_column(item.term, chunk, indices)
                    for item in items
                }
                out = Chunk(columns, chunk.length)
                if distinct:
                    kept = []
                    for i in range(out.length):
                        key = tuple(
                            value_key(columns[item.name][i]) for item in items
                        )
                        if key in seen:
                            continue
                        seen.add(key)
                        kept.append(i)
                    if not kept:
                        continue
                    if len(kept) < out.length:
                        out = out.gather(kept)
                yield out

        return stream()

    def _hash_join_chunks(self, executor, plan, run, collector, partition):
        build = self._child_chunks(
            executor, plan.children[0], run, collector, partition
        )
        probe = self._child_chunks(
            executor, plan.children[1], run, collector, partition
        )
        predicate = plan.predicate

        def stream() -> Iterator[Chunk]:
            # Build side: drain fully (as the row engine does) into one
            # set of columns plus a key -> row-position table.
            build_columns: dict[str, list] = {}
            build_length = 0
            for chunk in build:
                if not build_columns:
                    build_columns = {var: [] for var in chunk.columns}
                for var, col in chunk.columns.items():
                    build_columns[var].extend(col)
                build_length += chunk.length
            if build_length == 0:
                return  # empty build: the probe side is never pulled
            probe_iter = iter(probe)
            try:
                first = next(probe_iter)
            except StopIteration:
                return
            build_vars = frozenset(build_columns)
            probe_vars = frozenset(first.columns)
            build_keys, probe_keys, residual = _split_join_predicate(
                predicate, build_vars, probe_vars
            )
            if not build_keys:
                raise ExecutionError(
                    f"hash join without equi-conjuncts: {predicate}"
                )
            built = Chunk(build_columns, build_length)
            all_build = list(range(build_length))
            key_columns = [
                [value_key(v) for v in _term_column(term, built, all_build)]
                for term in build_keys
            ]
            table: dict[tuple, list[int]] = {}
            for i in range(build_length):
                key = tuple(col[i] for col in key_columns)
                if None in key:
                    continue  # null never equi-joins
                table.setdefault(key, []).append(i)

            def probe_chunk(chunk: Chunk) -> Chunk | None:
                indices = list(range(chunk.length))
                probe_key_columns = [
                    [value_key(v) for v in _term_column(term, chunk, indices)]
                    for term in probe_keys
                ]
                build_idx: list[int] = []
                probe_idx: list[int] = []
                for i in indices:
                    key = tuple(col[i] for col in probe_key_columns)
                    if None in key:
                        continue
                    for b in table.get(key, ()):
                        build_idx.append(b)
                        probe_idx.append(i)
                if not build_idx:
                    return None
                if not residual.is_true:
                    kept_pairs = []
                    for b, p in zip(build_idx, probe_idx):
                        combined = built.row(b)
                        combined.update(chunk.row(p))
                        if eval_conjunction(residual, combined):
                            kept_pairs.append((b, p))
                    if not kept_pairs:
                        return None
                    build_idx = [b for b, _ in kept_pairs]
                    probe_idx = [p for _, p in kept_pairs]
                # Combined rows are {**match, **row}: build columns
                # first, probe columns after (variable sets are disjoint).
                columns: dict[str, list] = {}
                for var, col in built.columns.items():
                    columns[var] = [col[b] for b in build_idx]
                for var, col in chunk.columns.items():
                    columns[var] = [col[p] for p in probe_idx]
                return Chunk(columns, len(build_idx))

            out = probe_chunk(first)
            if out is not None:
                yield out
            for chunk in probe_iter:
                out = probe_chunk(chunk)
                if out is not None:
                    yield out

        return stream()

    def _assembly_chunks(self, executor, plan, run, collector, partition):
        child = self._child_chunks(
            executor, plan.children[0], run, collector, partition
        )
        view = run.view
        source = plan.source
        out_var = plan.out
        window = max(1, plan.window)

        def stream() -> Iterator[Chunk]:
            for chunk in child:
                refs = self._resolve_refs(chunk, source)
                kept = [(i, oid) for i, oid in refs if oid is not None]
                if not kept:
                    continue
                out_col: list[Any] = []
                indices: list[int] = []
                # Window-sized elevator batches, as the row operator:
                # fetch each batch in page order, emit in arrival order.
                for start in range(0, len(kept), window):
                    batch = kept[start : start + window]
                    for _, oid in sorted(
                        batch, key=lambda item: view.page_of(item[1])
                    ):
                        view.fetch(oid)
                    for i, oid in batch:
                        indices.append(i)
                        out_col.append(Obj(oid, view.fetch(oid)))
                out = chunk.gather(indices)
                out.columns[out_var] = out_col
                yield out

        return stream()

    @staticmethod
    def _resolve_refs(chunk: Chunk, source) -> list[tuple[int, Any]]:
        """(position, target oid or None) per row — iterators._resolve_ref."""
        from repro.storage.objects import Oid

        col = chunk.columns.get(source.var)
        out: list[tuple[int, Any]] = []
        for i in range(chunk.length):
            value = col[i] if col is not None else None
            if source.attr is None:
                if value is None:
                    out.append((i, None))
                    continue
                if not isinstance(value, Oid):
                    raise ExecutionError(
                        f"{source.var!r} is not a reference binding"
                    )
                out.append((i, value))
                continue
            if not isinstance(value, Obj):
                raise ExecutionError(
                    f"{source.var!r} is not an object binding"
                )
            out.append((i, value.field(source.attr)))
        return out


__all__ = ["CHUNK_ROWS", "Chunk", "VectorizedBackend"]
