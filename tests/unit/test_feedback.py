"""Unit tests for the cardinality-feedback loop's building blocks.

Covers the three layers independently of ``Database``: subplan
fingerprints (stable identity across equivalent plan shapes), the
feedback store (material-change versioning, freshness, partial
observations), and the execution-side cardinality monitor (counting,
the adaptive-replan trigger, flush-on-cancel).  The end-to-end loop is
exercised in ``tests/integration/test_feedback_loop.py``.
"""

import pytest

from repro.api import Database
from repro.feedback import (
    REPLAN_MIN_ROWS,
    AdaptiveReplanSignal,
    CardinalityMonitor,
    FeedbackStore,
    group_key,
)
from repro.obs.explain import NodeReport
from repro.optimizer.config import (
    COLLAPSE_TO_INDEX_SCAN,
    HYBRID_HASH_JOIN,
    MERGE_JOIN,
)

SCALE = 0.02

QUERY_JOIN = (
    "SELECT c.name FROM City c IN Cities, Capital k IN Capitals "
    "WHERE c.population == k.population"
)


@pytest.fixture(scope="module")
def db() -> Database:
    return Database.sample(scale=SCALE)


def _fed_plan(db: Database, text: str, config=None):
    """A feedback-on plan: its nodes carry their groups' properties."""
    return db.optimize(text, config=(config or db.config).with_feedback(True)).plan


def _root_key(db: Database, text: str, config=None):
    key, _ = group_key(_fed_plan(db, text, config).props)
    return key


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_every_sample_plan_node_has_a_key(self, db):
        plan = _fed_plan(
            db, 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe"'
        )
        known = {}
        for node in plan.walk():
            key, collections = group_key(node.props, known)
            assert key is not None
            assert collections  # every sample subplan reads a collection

    def test_index_scan_and_filtered_scan_share_key(self):
        """The same logical selection, with and without index collapse:
        a path index scan reports the key of the group it implements."""
        db = Database.sample(scale=SCALE)
        db.create_index("ix_mayor_name", "Cities", ("mayor", "name"))
        text = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe"'
        assert _fed_plan(db, text).algorithm == "IndexScan"
        assert _root_key(db, text) == _root_key(
            db, text, config=db.config.without(COLLAPSE_TO_INDEX_SCAN)
        )

    def test_join_strategy_does_not_change_key(self, db):
        """Hash join and nested loops fingerprint the same subplan."""
        assert _root_key(db, QUERY_JOIN) == _root_key(
            db,
            QUERY_JOIN,
            config=db.config.without(HYBRID_HASH_JOIN, MERGE_JOIN),
        )

    def test_different_predicates_get_different_keys(self, db):
        a = _root_key(
            db, 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe"'
        )
        b = _root_key(
            db, 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Ann"'
        )
        assert a != b

    def test_keys_are_hashable(self, db):
        key = _root_key(db, QUERY_JOIN)
        assert len({key, key}) == 1


# ----------------------------------------------------------------------
# Feedback store
# ----------------------------------------------------------------------


class TestFeedbackStore:
    def test_observe_then_lookup(self, db):
        store = FeedbackStore()
        store.observe(("k",), 42.0, {"Cities"}, db.catalog)
        assert store.observed(("k",), db.catalog) == 42.0
        assert store.stats.hits == 1

    def test_unknown_key_misses(self, db):
        store = FeedbackStore()
        assert store.observed(("nope",), db.catalog) is None

    def test_version_bumps_only_on_material_change(self, db):
        store = FeedbackStore()
        store.observe(("k",), 100.0, {"Cities"}, db.catalog)
        v = store.version
        # Re-observing roughly the same number is not news.
        store.observe(("k",), 120.0, {"Cities"}, db.catalog)
        assert store.version == v
        # Moving past MATERIAL_RATIO (1.5x) is.
        store.observe(("k",), 400.0, {"Cities"}, db.catalog)
        assert store.version > v

    def test_partial_observation_never_lowers_a_complete_one(self, db):
        store = FeedbackStore()
        store.observe(("k",), 500.0, {"Cities"}, db.catalog)
        store.observe(("k",), 80.0, {"Cities"}, db.catalog, complete=False)
        assert store.observed(("k",), db.catalog) == 500.0

    def test_partial_observation_can_raise_the_bound(self, db):
        store = FeedbackStore()
        store.observe(("k",), 10.0, {"Cities"}, db.catalog, complete=False)
        store.observe(("k",), 90.0, {"Cities"}, db.catalog, complete=False)
        assert store.observed(("k",), db.catalog) == 90.0

    def test_complete_estimate_replaces_fallback_both_ways(self, db):
        store = FeedbackStore()
        store.observe(("k",), 30.0, {"Cities"}, db.catalog)
        assert store.estimate(("k",), db.catalog, 500.0) == (30.0, True)
        assert store.estimate(("k",), db.catalog, 2.0) == (30.0, True)

    def test_partial_estimate_is_only_a_lower_bound(self, db):
        """A cancelled stream's count may raise an estimate, never lower
        it — the 60 rows seen of a cancelled cartesian product must not
        cost the product as a 60-row input."""
        store = FeedbackStore()
        store.observe(("k",), 60.0, {"Cities"}, db.catalog, complete=False)
        assert store.estimate(("k",), db.catalog, 12000.0) == (12000.0, False)
        assert store.estimate(("k",), db.catalog, 2.5) == (60.0, True)

    def test_estimate_without_observation_keeps_fallback(self, db):
        store = FeedbackStore()
        assert store.estimate(("k",), db.catalog, 7.0) == (7.0, False)

    def test_clear_drops_and_bumps_version(self, db):
        store = FeedbackStore()
        store.observe(("k",), 7.0, {"Cities"}, db.catalog)
        v = store.version
        store.clear()
        assert len(store) == 0
        assert store.version > v
        assert store.observed(("k",), db.catalog) is None


# ----------------------------------------------------------------------
# Cardinality monitor
# ----------------------------------------------------------------------


class TestCardinalityMonitor:
    def _plan(self, db):
        return _fed_plan(db, "SELECT * FROM City c IN Cities")

    def test_counts_consumed_rows(self, db):
        plan = self._plan(db)
        monitor = CardinalityMonitor(plan)
        rows = list(monitor.wrap(plan, iter(range(10))))
        assert rows == list(range(10))
        observations = list(monitor.observations())
        assert any(rows == 10 and complete
                   for _, _, rows, complete in observations)

    def test_partial_consumption_is_flushed_incomplete(self, db):
        plan = self._plan(db)
        monitor = CardinalityMonitor(plan)
        stream = iter(monitor.wrap(plan, iter(range(100))))
        for _ in range(5):
            next(stream)
        stream.close()  # GeneratorExit must still flush the count
        (_, _, rows, complete), *_ = list(monitor.observations())
        assert rows == 5
        assert not complete

    def test_replan_triggers_past_threshold(self, db):
        plan = self._plan(db)
        monitor = CardinalityMonitor(plan, replan_ratio=8.0)
        threshold = max(plan.rows * 8.0, REPLAN_MIN_ROWS)
        produced = []
        with pytest.raises(AdaptiveReplanSignal) as info:
            for row in monitor.wrap(plan, iter(range(10**6))):
                produced.append(row)
        assert len(produced) < 10**6
        assert info.value.observed >= threshold
        assert monitor.replanned
        # The cancelled stream still reports its rows as a lower bound.
        (_, _, rows, complete), *_ = list(monitor.observations())
        assert rows >= threshold
        assert not complete

    def test_no_ratio_means_no_trigger(self, db):
        plan = self._plan(db)
        monitor = CardinalityMonitor(plan, replan_ratio=None)
        assert len(list(monitor.wrap(plan, iter(range(5000))))) == 5000
        assert not monitor.replanned

    def test_unknown_node_passthrough(self, db):
        plan = self._plan(db)
        monitor = CardinalityMonitor(plan)
        other = self._plan(db)  # distinct object: not in this monitor
        stream = iter(range(3))
        assert monitor.wrap(other, stream) is stream


# ----------------------------------------------------------------------
# cardinality_error corners (the unclamp fix)
# ----------------------------------------------------------------------


def _report(est: float, act: int) -> NodeReport:
    return NodeReport(
        algorithm="Filter",
        description="t",
        est_rows=est,
        est_cost_total=0.0,
        actual_rows=act,
        next_seconds=0.0,
        buffer_hits=0,
        buffer_misses=0,
    )


class TestCardinalityError:
    def test_exact_match_is_one(self):
        assert _report(10.0, 10).cardinality_error == 1.0

    def test_both_zero_is_perfect(self):
        assert _report(0.0, 0).cardinality_error == 1.0

    def test_zero_estimate_nonzero_actual_is_infinite(self):
        assert _report(0.0, 500).cardinality_error == float("inf")

    def test_nonzero_estimate_zero_actual_is_infinite(self):
        assert _report(500.0, 0).cardinality_error == float("inf")

    def test_symmetric_ratio(self):
        assert _report(10.0, 1000).cardinality_error == pytest.approx(100.0)
        assert _report(1000.0, 10).cardinality_error == pytest.approx(100.0)

    def test_sub_one_estimates_are_not_floored(self):
        # Pre-fix, est 0.5 was clamped to 1 and "0.5 estimated, 50 seen"
        # reported a 50x error instead of 100x.
        assert _report(0.5, 50).cardinality_error == pytest.approx(100.0)
