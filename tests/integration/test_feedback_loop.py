"""End-to-end tests of the cardinality-feedback loop.

The loop's contract, exercised through ``Database.query``: execution
feeds observed per-subplan cardinalities into ``Database.feedback``;
re-optimization prefers those observations over catalog statistics
(plans annotated "(fed)"); a blown estimate triggers one mid-query
adaptive replan; and none of it may ever change result bytes — only
plans.  Staleness: feedback-stamped plan-cache entries are invalidated
when the store learns something new, and observations are dropped once
their collections drift past the catalog's 20% threshold.
"""

import pytest

from repro.api import Database
from repro.errors import IndexCorruptionError
from repro.feedback import CardinalityMonitor, group_key
from repro.governor.context import QueryContext
from repro.governor.faults import FaultPlan
from repro.optimizer.config import ASSEMBLY, POINTER_JOIN
from repro.optimizer.rewrite import traversal_outputs
from repro.fuzz.worldgen import (
    AttrSpec,
    IndexSpec,
    TypeSpec,
    WorldSpec,
    build_database,
)

SCALE = 0.02

PAPER_QUERIES = (
    "SELECT Newobject(e.name(), e.department().name(), e.job().name()) "
    "FROM Employee e IN Employees "
    'WHERE e.department().plant().location() == "Dallas"',
    'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe"',
    "SELECT c.mayor.age, c.name FROM City c IN Cities "
    'WHERE c.mayor.name == "Joe"',
    "SELECT * FROM Task t IN Tasks WHERE t.time == 100 AND EXISTS ("
    'SELECT m FROM Employee m IN t.team_members WHERE m.name == "Fred")',
)


def skewed_world() -> WorldSpec:
    """A world where the uniform estimate is off by ~100x.

    ``Hot.k`` pins 30% of rows to the hot value 0 while its index sees
    hundreds of distinct keys, so ``k == 0`` is estimated at ~1.4 rows
    and nested loops wins the join — until feedback reports the truth.
    """
    return WorldSpec(
        types=(
            TypeSpec(
                name="Dim",
                count=120,
                attrs=(
                    AttrSpec(
                        name="s0", kind="scalar", scalar_type="int", distinct=40
                    ),
                ),
            ),
            TypeSpec(
                name="Hot",
                count=300,
                attrs=(
                    AttrSpec(
                        name="k",
                        kind="scalar",
                        scalar_type="int",
                        distinct=100_000,
                        skew=0.3,
                    ),
                    AttrSpec(
                        name="j", kind="scalar", scalar_type="int", distinct=40
                    ),
                ),
            ),
        ),
        indexes=(IndexSpec("ix_hot_k", "extent(Hot)", ("k",)),),
        data_seed=7,
    )


SKEWED_QUERY = (
    "SELECT h.j FROM Hot h IN extent(Hot), Dim d IN extent(Dim) "
    "WHERE h.k == 0 && h.j == d.s0"
)


def rows_key(rows):
    return sorted(repr(row) for row in rows)


class TestFeedbackDisabled:
    """``with_feedback(False)`` (the default) must be a strict no-op."""

    def test_paper_queries_same_plan_and_rows_as_empty_feedback(self):
        """With nothing observed yet, feedback-on plans exactly as off."""
        db = Database.sample(scale=SCALE)
        for text in PAPER_QUERIES:
            off = db.optimize(text)
            on = db.optimize(text, config=db.config.with_feedback(True))
            assert off.plan.pretty() == on.plan.pretty(), text
            off_rows = db.query(text, use_cache=False).rows
            on_rows = db.query(
                text, config=db.config.with_feedback(True), use_cache=False
            ).rows
            assert rows_key(off_rows) == rows_key(on_rows), text

    def test_disabled_config_never_consults_or_feeds_the_store(self):
        db = Database.sample(scale=SCALE)
        db.query(PAPER_QUERIES[1], use_cache=False)
        db.query(PAPER_QUERIES[1], use_cache=False)
        assert len(db.feedback) == 0
        assert db.feedback.stats.lookups == 0

    def test_explain_has_no_fed_markers_when_disabled(self):
        db = Database.sample(scale=SCALE)
        assert "(fed)" not in db.explain(PAPER_QUERIES[1], costs=True)


class TestFeedbackLoop:
    def test_execution_populates_the_store(self):
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        db.query(SKEWED_QUERY, use_cache=False)
        assert len(db.feedback) > 0
        assert db.feedback.stats.ingested > 0

    def test_replanned_query_uses_fed_estimates(self):
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        first = db.query(SKEWED_QUERY, use_cache=False)
        explained = db.explain(SKEWED_QUERY, costs=True)
        assert "(fed)" in explained
        # The fed cardinality flips the join strategy off nested loops.
        assert "Nested Loops" not in explained
        second = db.query(SKEWED_QUERY, use_cache=False)
        assert rows_key(first.rows) == rows_key(second.rows)

    def test_adaptive_replan_triggers_once_and_preserves_rows(self):
        reference = build_database(skewed_world())
        expected = rows_key(reference.query(SKEWED_QUERY).rows)

        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        result = db.query(SKEWED_QUERY, use_cache=False)
        assert db.feedback.stats.replans == 1
        assert rows_key(result.rows) == expected
        # Later runs are planned right from the start: no more replans.
        db.query(SKEWED_QUERY, use_cache=False)
        assert db.feedback.stats.replans == 1

    def test_replan_ingests_what_the_interrupted_streams_saw(self, monkeypatch):
        """The index scan's 1.4-row estimate is the mistake the replan has
        to learn about, and its stream is suspended *below* the operator
        that raised: the executor must close it before the ingest."""
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        ingests = []
        ingest = db.feedback.ingest

        def spy(monitor, catalog):
            complete = {key: done for key, _, _, done in monitor.observations()}
            ingests.append(
                {
                    count.description: (count.rows, complete[count.key])
                    for count in monitor._counts.values()
                    if count.opened
                }
            )
            return ingest(monitor, catalog)

        monkeypatch.setattr(db.feedback, "ingest", spy)
        db.query(SKEWED_QUERY, use_cache=False)
        assert db.feedback.stats.replans == 1
        at_replan = ingests[0]
        (scan,) = (name for name in at_replan if name.startswith("Index Scan"))
        rows, complete = at_replan[scan]
        assert rows > 0 and not complete

    def test_observations_persist_across_queries(self):
        """A different query over the same subplan reuses the feedback."""
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        db.query("SELECT h.j FROM Hot h IN extent(Hot) WHERE h.k == 0")
        hits_before = db.feedback.stats.hits
        db.optimize(SKEWED_QUERY)
        assert db.feedback.stats.hits > hits_before

    @pytest.fixture(scope="class")
    def sample_db(self) -> Database:
        """Read-only here: plans run through ``execute_plan`` feed nothing."""
        return Database.sample(scale=0.05, seed=1)

    @pytest.mark.parametrize("text", PAPER_QUERIES)
    def test_every_operator_is_monitored(self, sample_db, text):
        """Monitoring is per operator, not per subtree root: an engine
        that runs inner operators itself must still thread each of them
        through the monitor (``ingested > 0`` would not notice)."""
        config = sample_db.config.with_feedback(True)
        plan = sample_db.optimize(text, config=config).plan
        monitor = CardinalityMonitor(plan)
        sample_db.execute_plan(plan, monitor=monitor)
        observations = list(monitor.observations())
        known = {}
        keys = {group_key(node.props, known)[0] for node in plan.walk()}
        assert None not in keys
        assert len(observations) == len(keys)
        assert all(complete for _, _, _, complete in observations)

    def test_cold_runs_of_one_plan_repeat_their_simulated_io(self, sample_db):
        """The simulated disk head position carries over between
        statements, so each run follows the same statement."""
        plan = sample_db.optimize(PAPER_QUERIES[0]).plan
        runs = []
        for _ in range(2):
            sample_db.query(PAPER_QUERIES[1], use_cache=False)
            runs.append(sample_db.execute_plan(plan))
        assert runs[0].page_reads == runs[1].page_reads > 0
        # The figure is a difference of one accumulating clock: equal to
        # the nanosecond, not to the last float bit.
        assert runs[0].simulated_io_seconds == pytest.approx(
            runs[1].simulated_io_seconds, rel=0, abs=1e-9
        )


class TestObservationsAreReadBack:
    """An observation is keyed by the memo group its plan node implements,
    so re-optimizing reads every one of them back: a Mat-to-Join hash join
    reports its Mat group's key and a path index scan its Select group's."""

    @pytest.mark.parametrize(
        "text, index, observed",
        [
            (PAPER_QUERIES[0], None, 8),
            (PAPER_QUERIES[1], ("ix_mayor_name", "Cities", ("mayor", "name")), 1),
        ],
        ids=["q1-hash-join", "q2-path-index"],
    )
    def test_reoptimization_serves_every_observation(self, text, index, observed):
        db = Database.sample(scale=0.05, seed=1)
        if index is not None:
            db.create_index(*index)
        db.config = db.config.with_feedback(True)
        db.query(text, use_cache=False)
        assert len(db.feedback) == db.feedback.stats.ingested == observed
        db.optimize(text)
        unserved = [obs for obs in db.feedback.entries() if not obs.hits]
        assert not unserved
        report = db.explain_analyze(text)
        nodes = list(report.root.walk())
        for node in nodes:
            assert node.est_rows == node.actual_rows, node.description
            assert node.est_source == "feedback", node.description
        assert report.render().count("(fed)") == len(nodes)

    @pytest.mark.parametrize(
        "disabled",
        [(), (ASSEMBLY, POINTER_JOIN)],
        ids=["mat-algorithms", "extent-joins"],
    )
    def test_each_traversal_mat_is_observed_and_fed(self, disabled):
        """Each Mat of a two-Mat traversal is its own group, and each
        node (an extent join's scan too) is keyed as what it computes:
        the next optimization feeds every one of them."""
        text = (
            "SELECT e.name FROM Employee e IN Employees, "
            "Department d IN extent(Department), Job j IN extent(Job) "
            "WHERE e.department == d AND e.job == j"
        )
        db = Database.sample(scale=0.05, seed=1)
        db.config = db.config.without(*disabled).with_feedback(True)
        result = db.query(text, use_cache=False)
        assert traversal_outputs(result.optimization.logical) == {"d", "j"}
        nodes = list(result.plan.walk())
        assert all(node.props is not None for node in nodes)
        assert len(db.feedback) == len(nodes)
        db.optimize(text)
        assert all(obs.hits for obs in db.feedback.entries())
        report = db.explain_analyze(text)
        for node in report.root.walk():
            assert node.est_rows == node.actual_rows, node.description
            assert node.est_source == "feedback", node.description

    def test_fed_marks_only_the_estimates_the_memo_replaced(self):
        """Another query over a subplan already observed: the observed
        group's node is marked, the new groups' are not."""
        db = Database.sample(scale=0.05, seed=1)
        db.config = db.config.with_feedback(True)
        db.query("SELECT * FROM City c IN Cities", use_cache=False)
        plan = db.optimize(PAPER_QUERIES[1]).plan
        sources = [(node.algorithm, node.row_source) for node in plan.walk()]
        assert len(sources) > 1
        for algorithm, source in sources:
            assert source == ("feedback" if algorithm == "FileScan" else "est")
        assert db.explain(PAPER_QUERIES[1], costs=True).count("(fed)") == 1

    def test_bindings_of_one_template_observe_their_own_constants(self):
        db = Database.sample(scale=0.05, seed=1)
        db.config = db.config.with_feedback(True)
        template = "SELECT * FROM City c IN Cities WHERE c.population > {}"
        low, high = template.format(100000), template.format(500000)
        while db.query(low).cache.outcome != "hit":
            pass  # until the observations, and so the entry, are stable
        result = db.query(high)
        assert result.cache.outcome == "hit"
        # A key is (bindings, conjuncts, atoms): the filtered scans.
        selects = {
            obs.key: obs.rows for obs in db.feedback.entries() if obs.key[1]
        }
        by_constant = {
            constant: rows
            for key, rows in selects.items()
            for constant in ("100000", "500000")
            if constant in str(key)
        }
        assert len(selects) == 2
        assert by_constant["500000"] == len(result.rows)
        assert by_constant["100000"] == len(db.query(low).rows)
        assert by_constant["100000"] > by_constant["500000"]


class TestReplanReasonsCompose:
    """One replan step serves both reasons; a re-run that hits the
    *other* reason is replanned once more (they used to be sibling
    ``except`` clauses, so the second reason escaped or went unseen)."""

    def test_degraded_rerun_is_monitored_and_replans_adaptively(self):
        expected = rows_key(build_database(skewed_world()).query(SKEWED_QUERY).rows)
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        ctx = QueryContext(fault_plan=FaultPlan(seed=1, corrupt_index_prob=1.0))
        result = db.query(SKEWED_QUERY, use_cache=False, governor=ctx)
        # The index-scan plan hits the corrupt index; the scan-only
        # re-run then blows past the same skewed estimate.
        assert ctx.degraded == ["index_corruption", "cardinality_misestimate"]
        assert db.feedback.stats.replans == 1
        assert len(db.feedback) > 0
        assert "Index Scan" not in result.plan.pretty()
        assert rows_key(result.rows) == expected

    def test_adaptive_rerun_hitting_a_corrupt_index_degrades(self, monkeypatch):
        expected = rows_key(build_database(skewed_world()).query(SKEWED_QUERY).rows)
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        real, monitors, views = db.execute_plan, [], []

        def corrupt_on_rerun(plan, **kwargs):
            monitors.append(kwargs["monitor"])
            views.append(kwargs["view"])
            if len(monitors) == 2:
                raise IndexCorruptionError("ix_hot_k")
            return real(plan, **kwargs)

        monkeypatch.setattr(db, "execute_plan", corrupt_on_rerun)
        ctx = QueryContext()
        result = db.query(SKEWED_QUERY, use_cache=False, governor=ctx)
        assert ctx.degraded == ["cardinality_misestimate", "index_corruption"]
        assert db.feedback.stats.replans == 1
        # Three runs, every one monitored, all on the one pinned snapshot.
        assert len(monitors) == 3 and None not in monitors
        assert views[0] is views[1] is views[2] is not None
        assert "Index Scan" not in result.plan.pretty()
        assert rows_key(result.rows) == expected

    def test_corruption_that_survives_the_scan_plan_is_raised(self, monkeypatch):
        db = build_database(skewed_world())

        def always_corrupt(plan, **kwargs):
            raise IndexCorruptionError("ix_hot_k")

        monkeypatch.setattr(db, "execute_plan", always_corrupt)
        ctx = QueryContext()
        with pytest.raises(IndexCorruptionError):
            db.query(SKEWED_QUERY, use_cache=False, governor=ctx)
        assert ctx.degraded == ["index_corruption"]  # replanned once, not forever


class TestReplanOnACacheHit:
    def test_adaptive_replan_answers_for_the_statements_own_constants(self):
        """A hit carries the template of the statement that populated the
        entry; when its run blows the estimate, the replan must still
        compute (and look feedback up) with the hit's own constant."""
        cold, hot = SKEWED_QUERY.replace("== 0", "== 1"), SKEWED_QUERY
        reference = build_database(skewed_world())
        expected = rows_key(reference.query(hot, use_cache=False).rows)
        assert len(expected) > len(reference.query(cold, use_cache=False).rows)

        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        while db.query(cold).cache.outcome != "hit":
            pass  # until the observations, and so the entry, are stable
        replans = db.feedback.stats.replans
        result = db.query(hot)
        assert result.cache.outcome == "hit"
        assert db.feedback.stats.replans == replans + 1
        assert rows_key(result.rows) == expected
        assert "0 == h.k" in result.explain() and "1 == h.k" not in result.explain()
        # What the replan learned is keyed by the hot constant: the next
        # plan for it starts from the observation, not the estimate.
        assert "(fed)" in db.explain(hot, costs=True)


class TestCacheStaleness:
    def test_feedback_version_invalidates_cached_plans(self):
        """A plan cached before execution taught the store is stale.

        Pre-fix, the cache served the original (pre-feedback) plan
        forever: the entry's catalog version still matched, so nothing
        ever invalidated it.
        """
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        db.query(SKEWED_QUERY)  # miss; executes; ingests; replans
        invalidations = db.plan_cache.stats.invalidations
        db.query(SKEWED_QUERY)  # the stamped entry is now stale
        assert db.plan_cache.stats.invalidations > invalidations
        assert "(fed)" in db.explain(SKEWED_QUERY, costs=True)

    def test_stable_workload_reaches_cache_hits(self):
        """Once observations stop moving, the cache serves hits again."""
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        db.query(SKEWED_QUERY)
        db.query(SKEWED_QUERY)
        hits = db.plan_cache.stats.hits
        db.query(SKEWED_QUERY)
        assert db.plan_cache.stats.hits > hits

    def test_feedback_configs_do_not_share_cache_slots(self):
        db = Database.sample(scale=SCALE)
        text = PAPER_QUERIES[1]
        db.query(text)
        hits = db.plan_cache.stats.hits
        db.query(text, config=db.config.with_feedback(True))
        assert db.plan_cache.stats.hits == hits  # distinct key: no false hit


class TestDriftInvalidation:
    def test_dml_drift_drops_observations(self):
        db = Database.sample(scale=SCALE)
        db.config = db.config.with_feedback(True)
        text = "SELECT x.name FROM x IN Cities WHERE x.population > 0"
        db.query(text, use_cache=False)
        assert len(db.feedback) > 0
        version = db.feedback.version
        # Shrink Cities far past the 20% drift threshold.
        survivors = len(db.query("SELECT x.name FROM x IN Cities").rows)
        db.query("DELETE x IN Cities WHERE x.population >= 0")
        remaining = len(db.query("SELECT x.name FROM x IN Cities").rows)
        assert remaining < survivors
        db.optimize(text)  # lookups drop the drifted entries on sight
        assert db.feedback.stats.stale_drops > 0
        assert db.feedback.version > version

    def test_small_dml_keeps_observations(self):
        db = Database.sample(scale=SCALE)
        db.config = db.config.with_feedback(True)
        text = "SELECT x.name FROM x IN Cities WHERE x.population > 0"
        db.query(text, use_cache=False)
        entries = len(db.feedback)
        assert entries > 0
        db.query("INSERT INTO Cities (name, population) VALUES ('one', 1)")
        db.optimize(text)  # < 20% drift: observations still served
        assert len(db.feedback) == entries
        assert db.feedback.stats.stale_drops == 0


class TestMvccIsolation:
    def test_transactional_reads_never_feed_the_store(self):
        """Uncommitted state must not leak into shared feedback."""
        db = Database.sample(scale=SCALE)
        db.config = db.config.with_feedback(True)
        txn = db.begin()
        db.query(
            "INSERT INTO Cities (name, population) VALUES ('ghost', 1)",
            transaction=txn,
        )
        db.query(
            "SELECT x.name FROM x IN Cities WHERE x.population > 0",
            transaction=txn,
            use_cache=False,
        )
        assert len(db.feedback) == 0
        txn.rollback()

    def test_snapshot_pinned_across_adaptive_replan(self):
        """The replanned execution re-reads the same MVCC snapshot."""
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        result = db.query(SKEWED_QUERY, use_cache=False)
        assert db.feedback.stats.replans == 1
        reference = build_database(skewed_world())
        assert rows_key(result.rows) == rows_key(
            reference.query(SKEWED_QUERY).rows
        )


class TestExplainProvenance:
    def test_explain_analyze_reports_fed_source(self):
        db = build_database(skewed_world())
        db.config = db.config.with_feedback(True)
        db.query(SKEWED_QUERY, use_cache=False)
        report = db.explain_analyze(SKEWED_QUERY)
        rendered = report.render()
        assert "(fed)" in rendered
        assert any(
            node.est_source == "feedback" for node in report.root.walk()
        )
