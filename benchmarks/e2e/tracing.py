"""Spans taken from outside: wrappers around the program's layer entry points.

Nothing here re-implements the program.  ``Tracer.install`` replaces
public entry points (and the names ``repro.api``,
``repro.optimizer.optimizer`` and ``repro.server.*`` bound at import)
with wrappers that record a span ``[id, name, parent id, statement id,
start, end]`` in memory and then call the original.  Hot per-object
storage calls are *counted*, never timed.  ``uninstall`` restores every
name, so the untraced phases run the program untouched.

A layer's self time is its span's duration minus the durations of its
direct child spans (children never overlap: one thread per statement).
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections import Counter

# Span names whose self time makes up ``optimizer.share``.
OPTIMIZER_SIDE = ("lang.parse", "simplify", "optimizer.rewrite", "optimizer.search")


class Tracer:
    def __init__(self) -> None:
        self.records: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._statements = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- statement scoping ----------------------------------------------

    def begin_statement(self, statement_id=None) -> None:
        """Tag every span this thread records from now on."""
        if statement_id is None:
            statement_id = next(self._statements)
        self._local.statement = statement_id

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, after=None, new_statement: bool = False):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``after(result, args)`` runs outside the span for count-type
        observations (memo groups, view kind, bytes written).
        """
        records, local, ids = self.records, self._local, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if new_statement:
                self.begin_statement()
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                records.append(
                    [span_id, name, parent,
                     getattr(local, "statement", -1), started, ended]
                )
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str, **kwargs) -> None:
        self._patch(owner, attr, self.span(name, owner.__dict__[attr], **kwargs))

    def _count_scan(self, owner, attr: str) -> None:
        original = owner.__dict__[attr]
        counts = self.counts

        def counting(*args, **kwargs):
            seen = 0
            try:
                for item in original(*args, **kwargs):
                    seen += 1
                    yield item
            finally:
                counts["storage.objects"] += seen

        self._patch(owner, attr, counting)

    def _count_fetch(self, owner) -> None:
        original = owner.__dict__["fetch"]
        counts = self.counts

        def counting(self_, oid):
            counts["storage.objects"] += 1
            return original(self_, oid)

        self._patch(owner, "fetch", counting)

    def install(self, server: bool = False) -> None:
        """Wrap every layer boundary; ``server`` adds the serving tier."""
        import repro.api as api
        import repro.durability.manager as manager
        import repro.optimizer.optimizer as optimizer
        from repro.cache.plan_cache import PlanCache
        from repro.durability.wal import WalWriter
        from repro.engine.executor import Executor
        from repro.governor.admission import AdmissionController
        from repro.storage.mvcc import SnapshotView, Transaction
        from repro.storage.store import ObjectStore

        counts = self.counts
        self._span(api, "parse_statement", "lang.parse")
        self._span(api, "parameterize", "cache.parameterize")
        self._span(api, "rebind_plan", "cache.rebind")
        self._span(api, "bind_template", "cache.rebind")
        self._span(api, "simplify_full", "simplify")
        self._span(PlanCache, "lookup", "cache.lookup")
        self._span(optimizer, "rewrite_tree", "optimizer.rewrite")

        def memo_groups(result, _args):
            counts["optimizer.runs"] += 1
            counts["optimizer.memo_groups"] += result.groups

        self._span(
            optimizer.Optimizer, "optimize", "optimizer.search", after=memo_groups
        )
        self._span(Executor, "execute", "engine.execute")
        self._span(api.Database, "execute_plan", "engine.materialise")
        self._span(api.Database, "query", "api.query")

        def view_kind(result, args):
            counts["storage.views"] += 1
            if result is not args[0]:
                counts["storage.versioned_views"] += 1

        self._span(ObjectStore, "view", "storage.view", after=view_kind)
        for owner in (ObjectStore, SnapshotView):
            self._count_scan(owner, "scan")
            self._count_scan(owner, "scan_partition")
            self._count_fetch(owner)
        self._span(Transaction, "commit", "storage.commit")

        self._span(manager.DurabilityManager, "log_commit", "durability.log_commit")
        self._span(manager.DurabilityManager, "checkpoint", "durability.checkpoint")

        append = self.span("durability.wal_append", WalWriter.append)

        def sized_append(self_, record):
            before = os.path.getsize(self_.path)
            append(self_, record)
            counts["durability.wal_bytes"] += os.path.getsize(self_.path) - before

        self._patch(WalWriter, "append", sized_append)

        write_checkpoint = manager.write_checkpoint

        def sized_checkpoint(*args, **kwargs):
            path = write_checkpoint(*args, **kwargs)
            counts["durability.checkpoint_bytes"] += os.path.getsize(path)
            return path

        self._patch(manager, "write_checkpoint", sized_checkpoint)

        admit = AdmissionController.admit
        tracer = self

        def timed_admit(self_):
            return _TimedEnter(admit(self_), tracer)

        self._patch(AdmissionController, "admit", timed_admit)

        if server:
            import repro.server.server as server_module
            import repro.server.session as session_module

            self._span(
                server_module, "decode", "server.codec", new_statement=True
            )
            self._span(server_module, "encode", "server.codec")
            self._span(session_module, "row_payload", "server.codec")
            self._span(session_module.Session, "handle", "server.handle")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds, max."""
        child_total: dict[int, float] = {}
        out: dict[str, dict[str, float]] = {}
        # Records are appended on exit, so children precede their parent.
        for span_id, name, parent, _stmt, started, ended in self.records:
            duration = ended - started
            if parent >= 0:
                child_total[parent] = child_total.get(parent, 0.0) + duration
            entry = out.setdefault(
                name, {"calls": 0, "self": 0.0, "total": 0.0, "max": 0.0}
            )
            entry["calls"] += 1
            entry["self"] += duration - child_total.pop(span_id, 0.0)
            entry["total"] += duration
            entry["max"] = max(entry["max"], duration)
        return out


class _TimedEnter:
    """Times entering a context manager (the wait for an admission slot)."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._enter = tracer.span("governor.admission_wait", inner.__enter__)

    def __enter__(self):
        return self._enter()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class CallCounter:
    """Counts Python and C calls made while a statement runs.

    ``sys.setprofile`` sees every ``call`` and ``c_call`` event; the
    count is a property of the code path alone, so it repeats exactly
    across processes (``PYTHONHASHSEED=0``) — supporting evidence for a
    CPU claim that no timing can give on a drifting machine.
    """

    def __init__(self) -> None:
        self.calls = 0

    def _on_event(self, _frame, event, _arg) -> None:
        if event == "call" or event == "c_call":
            self.calls += 1

    def run(self, work):
        sys.setprofile(self._on_event)
        try:
            return work()
        finally:
            sys.setprofile(None)
