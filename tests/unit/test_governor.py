"""Unit tests for the governor: context, faults, admission, spill."""

from __future__ import annotations

import threading

import pytest

from repro.engine import iterators
from repro.engine.tuples import Obj
from repro.errors import (
    AdmissionRejected,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
)
from repro.governor.admission import AdmissionController
from repro.governor.context import CHECK_INTERVAL_ROWS, QueryContext, governed
from repro.governor.faults import FaultInjector, FaultPlan
from repro.governor.spill import (
    _partition,
    approx_row_bytes,
    spill_hash_join,
    spill_sort_rows,
)
from repro.algebra.predicates import CompOp, Comparison, Conjunction, FieldRef
from repro.storage.objects import Oid


class TestQueryContext:
    def test_no_limits_never_fires(self):
        ctx = QueryContext()
        ctx.start()
        ctx.check()
        assert not ctx.deadline_exceeded()
        assert not ctx.search_expired()

    def test_deadline_raises_typed_timeout(self):
        ctx = QueryContext(timeout_ms=0.0)
        ctx.start()
        with pytest.raises(QueryTimeout):
            ctx.check()

    def test_cancel_raises_typed_cancelled(self):
        ctx = QueryContext()
        ctx.start()
        ctx.cancel()
        assert ctx.cancelled
        with pytest.raises(QueryCancelled):
            ctx.check()

    def test_search_budget_is_soft_and_separate(self):
        ctx = QueryContext(search_timeout_ms=0.0)
        ctx.begin_search()
        assert ctx.search_expired()
        ctx.check()  # soft: the overall query is NOT out of time

    def test_overall_deadline_also_expires_search(self):
        ctx = QueryContext(timeout_ms=0.0)
        ctx.begin_search()
        assert ctx.search_expired()

    def test_mark_degraded_accumulates(self):
        ctx = QueryContext()
        ctx.mark_degraded("search_timeout", fallback="memo-best")
        ctx.mark_degraded("index_corruption", index="ix")
        assert ctx.degraded == ["search_timeout", "index_corruption"]

    def test_governed_polls_at_batch_granularity(self):
        ctx = QueryContext()
        polls = []
        original = ctx.check
        ctx.check = lambda: polls.append(1) or original()  # type: ignore
        rows = [{"x": i} for i in range(CHECK_INTERVAL_ROWS * 2 + 1)]
        assert list(governed(iter(rows), ctx)) == rows
        # One poll up front plus one per full batch.
        assert len(polls) == 3

    def test_governed_cancel_stops_stream(self):
        ctx = QueryContext()

        def rows():
            for i in range(10_000):
                if i == 100:
                    ctx.cancel()
                yield {"x": i}

        out = governed(rows(), ctx)
        with pytest.raises(QueryCancelled):
            list(out)


class TestFaultInjector:
    def test_deterministic_in_seed(self):
        plan = FaultPlan(seed=42, read_error_prob=0.3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        draws_a = [a.read_fails(i, 1) for i in range(200)]
        draws_b = [b.read_fails(i, 1) for i in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_backoff_is_capped_exponential_with_jitter(self):
        plan = FaultPlan(seed=0, backoff_base_ms=1.0, backoff_cap_ms=8.0)
        assert plan.backoff_for(1) == 1.0
        assert plan.backoff_for(4) == 8.0
        assert plan.backoff_for(10) == 8.0  # capped
        injector = FaultInjector(plan)
        for attempt in range(1, 8):
            wait = injector.backoff(0, attempt)
            ceiling = plan.backoff_for(attempt)
            assert 0.5 * ceiling <= wait <= ceiling
        assert injector.stats.backoff_ms > 0.0

    def test_index_corruption_is_sticky(self):
        plan = FaultPlan(seed=1, corrupt_index_prob=0.5)
        injector = FaultInjector(plan)
        first = {n: injector.index_corrupted(n) for n in "abcdefgh"}
        again = {n: injector.index_corrupted(n) for n in "abcdefgh"}
        assert first == again
        assert sorted(injector.stats.corrupt_indexes) == sorted(
            n for n, corrupt in first.items() if corrupt
        )

    def test_zero_probabilities_inject_nothing(self):
        injector = FaultInjector(FaultPlan(seed=3))
        assert not any(injector.read_fails(i, 1) for i in range(100))
        assert injector.latency_spike(0) == 0.0
        assert not injector.index_corrupted("ix")

    def test_chaos_preset(self):
        plan = FaultPlan.chaos(7, fault_rate=0.05)
        assert plan.seed == 7
        assert plan.read_error_prob == 0.05
        assert 0.0 < plan.corrupt_index_prob <= 0.05


class TestAdmissionController:
    def test_admits_up_to_capacity(self):
        controller = AdmissionController(2, max_wait_ms=10.0)
        with controller.admit():
            with controller.admit():
                assert controller.admitted == 2

    def test_rejects_typed_when_full(self):
        controller = AdmissionController(1, max_wait_ms=5.0)
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with controller.admit():
                entered.set()
                release.wait(timeout=10.0)

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        assert entered.wait(timeout=5.0)
        try:
            with pytest.raises(AdmissionRejected):
                with controller.admit():
                    pass
            assert controller.rejected == 1
        finally:
            release.set()
            thread.join(timeout=5.0)

    def test_slot_released_after_exit(self):
        controller = AdmissionController(1, max_wait_ms=5.0)
        with controller.admit():
            pass
        with controller.admit():  # would reject if the slot leaked
            pass


def _store(scale=0.02):
    from repro.api import Database

    return Database.sample(scale=scale).store


class TestSpill:
    def test_approx_row_bytes_is_deterministic_and_positive(self):
        row = {"a": 1, "b": "text", "c": Obj(oid=5, data={"x": 1})}
        assert approx_row_bytes(row) == approx_row_bytes(dict(row))
        assert approx_row_bytes(row) > 0

    def test_references_size_as_scalars_and_partition_by_serial(self):
        """An OID sizes as a scalar (28) and a set of them as a list of
        scalars, whatever class implements it: these sizes decide when a
        join or sort spills.  A bare OID key partitions as its serial."""
        members = (Oid("Employee", 3), Oid("Employee", 11))
        row = {
            "m": members[0],
            "s": members,
            "c": Obj(Oid("City", 1), {"mayor": members[0], "team": members}),
        }
        assert approx_row_bytes(row) == 64 + (25 + 28) + (25 + 112) + (25 + 128)
        assert [_partition(oid, 7) for oid in members] == [
            hash((3,)) % 7, hash((11,)) % 7,
        ]
        assert _partition(members, 7) == hash((3, 11)) % 7

    def test_spill_sort_matches_in_memory_sort_exactly(self):
        store = _store()
        rows = [
            {"c": Obj(oid=i, data={"name": f"n{i % 7}", "pop": i})}
            for i in range(500)
        ]
        in_memory = list(
            iterators.sort_rows(iter(rows), "c", "name", True, ())
        )
        budget = sum(approx_row_bytes(r) for r in rows) // 10
        before = store.buffer.stats.spill_writes
        spilled = list(
            spill_sort_rows(
                store, iter(rows), "c", "name", True, (),
                budget_bytes=budget,
            )
        )
        assert spilled == in_memory  # byte-identical, ties included
        assert store.buffer.stats.spill_writes > before

    def test_spill_sort_small_input_stays_in_memory(self):
        store = _store()
        rows = [{"c": Obj(oid=i, data={"name": i})} for i in range(5)]
        before = store.buffer.stats.spill_writes
        out = list(
            spill_sort_rows(
                store, iter(rows), "c", "name", True, (),
                budget_bytes=1 << 20,
            )
        )
        assert len(out) == 5
        assert store.buffer.stats.spill_writes == before

    def test_spill_hash_join_matches_in_memory_exactly(self):
        store = _store()
        build = [{"d": Obj(oid=i, data={"k": i % 11})} for i in range(120)]
        probe = [
            {"e": Obj(oid=1000 + i, data={"k": i % 11})} for i in range(300)
        ]
        predicate = Conjunction.of(
            Comparison(FieldRef("d", "k"), CompOp.EQ, FieldRef("e", "k"))
        )
        in_memory = list(
            iterators.hash_join(iter(build), iter(probe), predicate)
        )
        budget = sum(approx_row_bytes(r) for r in build) // 10
        before = store.buffer.stats.spill_writes
        spilled = list(
            spill_hash_join(
                store, iter(build), iter(probe), predicate,
                budget_bytes=budget,
            )
        )
        assert spilled == in_memory
        assert store.buffer.stats.spill_writes > before

    def test_zero_budget_raises_typed_error(self):
        store = _store()
        rows = [{"c": Obj(oid=i, data={"name": i})} for i in range(3)]
        with pytest.raises(MemoryBudgetExceeded):
            list(
                spill_sort_rows(
                    store, iter(rows), "c", "name", True, (),
                    budget_bytes=0,
                )
            )
