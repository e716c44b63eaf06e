"""Executor validation: simulated I/O behaviour matches the cost model's
structural claims (estimates and simulations agree in *shape*)."""

import pytest

from repro.api import Database
from repro.errors import StorageError
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C
from repro.storage.objects import Oid

from tests.conftest import QUERY_2, QUERY_3


class TestSimulatedIo:
    def test_index_plan_reads_far_fewer_pages(self, indexed_db):
        """The Figure 8 vs Figure 9 gap is visible in simulated page reads,
        not just in estimates."""
        fast = indexed_db.query(QUERY_2)
        slow = indexed_db.query(
            QUERY_2,
            config=OptimizerConfig().without(
                C.COLLAPSE_TO_INDEX_SCAN, C.POINTER_JOIN, C.MAT_TO_JOIN
            ),
        )
        assert fast.execution.page_reads * 5 < slow.execution.page_reads
        assert (
            fast.execution.simulated_io_seconds * 5
            < slow.execution.simulated_io_seconds
        )

    def test_enforcer_assembles_only_qualifying_mayors(self, indexed_db):
        """Query 3's plan must fetch barely more than Query 2's."""
        q2 = indexed_db.query(QUERY_2)
        q3 = indexed_db.query(QUERY_3)
        extra = q3.execution.page_reads - q2.execution.page_reads
        assert 0 <= extra <= len(q3.rows) + 2

    def test_windowed_assembly_beats_window_one_in_simulation(self, indexed_db):
        """The elevator effect is physical: same plan shape, window 8 vs 1,
        measured on the disk simulator."""
        cfg = OptimizerConfig().without(
            C.COLLAPSE_TO_INDEX_SCAN, C.POINTER_JOIN, C.MAT_TO_JOIN
        )
        windowed = indexed_db.query(QUERY_2, config=cfg)
        naive = indexed_db.query(QUERY_2, config=cfg.with_window(1))
        assert (
            windowed.execution.simulated_io_seconds
            <= naive.execution.simulated_io_seconds
        )

    def test_estimate_and_simulation_same_order_of_magnitude(self, indexed_db):
        """At test scale estimates won't match absolutely (cardinalities
        differ), but plans the optimizer calls vastly cheaper must also
        *simulate* vastly cheaper."""
        fast = indexed_db.query(QUERY_2)
        slow = indexed_db.query(
            QUERY_2,
            config=OptimizerConfig().without(
                C.COLLAPSE_TO_INDEX_SCAN, C.POINTER_JOIN, C.MAT_TO_JOIN
            ),
        )
        est_ratio = (
            slow.optimization.cost.total / max(1e-9, fast.optimization.cost.total)
        )
        sim_ratio = slow.execution.simulated_io_seconds / max(
            1e-9, fast.execution.simulated_io_seconds
        )
        assert est_ratio > 5
        assert sim_ratio > 5

    def test_warm_cache_cheaper_than_cold(self, indexed_db):
        plan = indexed_db.optimize(QUERY_2).plan
        cold = indexed_db.execute_plan(plan, cold=True)
        warm = indexed_db.execute_plan(plan, cold=False)
        assert warm.simulated_io_seconds <= cold.simulated_io_seconds

    def test_buffer_hit_rate_reported(self, indexed_db):
        result = indexed_db.query(QUERY_3)
        assert 0.0 <= result.execution.buffer_hit_rate <= 1.0


class TestExecutionAccounting:
    def test_accounting_isolated_between_runs(self, indexed_db):
        first = indexed_db.query(QUERY_2)
        second = indexed_db.query(QUERY_2)
        assert second.execution.page_reads == first.execution.page_reads

    def test_index_build_not_charged(self, indexed_db):
        """Index construction happens before the query's I/O clock starts."""
        result = indexed_db.query(QUERY_2)
        # A handful of index + object pages, nowhere near a Cities scan.
        assert result.execution.page_reads < 50


class TestDanglingReference:
    """Typed errors only: the elevator sort asks for a reference's page
    before anything fetches it, and used to let a bare ``KeyError`` out."""

    WINDOWED = OptimizerConfig().without(
        C.COLLAPSE_TO_INDEX_SCAN, C.POINTER_JOIN, C.MAT_TO_JOIN
    )

    @pytest.mark.parametrize("committed", [False, True], ids=["clean", "committed"])
    @pytest.mark.parametrize("config", [None, WINDOWED], ids=["pointer", "assembly"])
    def test_pointer_join_and_assembly_raise_storage_error(self, config, committed):
        db = Database.sample(scale=0.02)
        city = db.store.collection_oids("Cities")[3]
        db.store.peek(city)["mayor"] = Oid("Person", 10**6)  # the base record
        if committed:  # the same plans through a SnapshotView
            db.query("UPDATE c IN Cities SET c.population = 1 WHERE c.name == 'city0'")
        expected = "PointerJoin" if config is None else "Assembly"
        plan = db.query(QUERY_2, config=config, execute=False).plan
        assert expected in [node.algorithm for node in plan.walk()]
        with pytest.raises(StorageError, match="dangling reference Person#1000000"):
            db.query(QUERY_2, config=config)
