"""End-to-end tests for EXPLAIN ANALYZE and optimizer tracing.

The acceptance contract: on the paper's Queries 1-3,
``Database.explain(q, analyze=True)`` must report per-operator estimated
vs. actual cardinality and per-operator buffer hits/misses, and the
Query 3 trace must contain an explicit assembly-enforcer event.  With no
tracer passed, the default pipeline must record no events at all.
"""

import json

import pytest

from repro.algebra.operators import Mat
from repro.algebra.predicates import Comparison
from repro.errors import CatalogError
from repro.obs.tracer import Tracer
from repro.api import Database
from repro.optimizer.physical_props import PhysProps

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4, SCALE
from tests.integration.test_search_transcript import chain_query

PAPER_QUERIES = {"Q1": QUERY_1, "Q2": QUERY_2, "Q3": QUERY_3}


@pytest.fixture()
def db() -> Database:
    """A private indexed database (reports mutate executor/buffer state)."""
    database = Database.sample(scale=SCALE)
    database.create_index("ix_cities_mayor_name", "Cities", ("mayor", "name"))
    return database


class TestExplainAnalyze:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries_report_est_vs_actual(self, db, name):
        report = db.explain_analyze(PAPER_QUERIES[name])
        nodes = list(report.root.walk())
        assert nodes, name
        for node in nodes:
            assert node.est_rows >= 0.0
            assert node.actual_rows >= 0
            assert node.buffer_hits >= 0
            assert node.buffer_misses >= 0
            assert node.cardinality_error >= 1.0
        # Someone actually did I/O: the per-operator attribution accounts
        # for every page read the execution reported.
        assert sum(n.buffer_misses for n in nodes) == report.execution.page_reads
        assert report.execution.rows is not None

    def test_actual_rows_match_query_rows(self, db):
        report = db.explain_analyze(QUERY_2)
        result = db.query(QUERY_2, use_cache=False)
        assert report.root.actual_rows == len(result.rows)

    def test_rows_are_the_rows_query_returns(self):
        # Executed "exactly as `query` does it": SELECT * shows the range
        # variable, not the `c.mayor` this plan materialises on the way.
        db = Database.sample(scale=0.05, seed=1)
        report = db.explain_analyze(QUERY_2)
        result = db.query(QUERY_2)
        assert {tuple(row) for row in result.rows} == {("c",)}
        assert report.execution.rows == result.rows

    def test_query3_trace_has_assembly_enforcer_event(self, db):
        report = db.explain_analyze(QUERY_3)
        enforcers = report.events_in("enforcer")
        assert any(e.name == "assembly" for e in enforcers)
        # The winning plan really contains the enforcer the event records.
        rendered = report.render()
        assert "Assembly" in rendered
        assert "(enforcer)" in rendered

    def test_render_carries_est_and_actual(self, db):
        rendered = db.explain_analyze(QUERY_2).render()
        assert "est " in rendered
        assert "act " in rendered
        assert "hits" in rendered
        assert "misses" in rendered

    def test_explain_analyze_flag_on_explain(self, db):
        text = db.explain(QUERY_2, analyze=True)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "act " in text

    def test_explain_without_analyze_does_not_execute(self, db):
        plain = db.explain(QUERY_2)
        assert "act " not in plain

    def test_requires_populated_store(self):
        empty = Database.sample(scale=SCALE, populate=False)
        with pytest.raises(CatalogError):
            empty.explain_analyze(QUERY_2)

    def test_round_cap_is_reported(self, db, monkeypatch):
        from repro.optimizer import search

        monkeypatch.setattr(search, "_MAX_EXPLORATION_ROUNDS", 1)
        payload = json.loads(db.explain_analyze(QUERY_1).to_json())
        assert payload["optimizer"]["exploration_truncated"] is True

    def test_json_export_schema(self, db):
        payload = json.loads(db.explain_analyze(QUERY_3).to_json())
        assert set(payload) == {
            "query",
            "optimizer",
            "execution",
            "plan",
            "events",
        }
        assert payload["optimizer"]["groups"] > 0
        assert (
            0
            < payload["optimizer"]["distinct_goals"]
            <= payload["optimizer"]["optimization_tasks"]
        )
        # Present only when exploration stopped at the round cap.
        assert "exploration_truncated" not in payload["optimizer"]
        assert payload["execution"]["page_reads"] >= 0

        def check(node):
            assert {"algorithm", "estimated", "actual", "children"} <= set(node)
            assert "rows" in node["estimated"]
            assert "rows" in node["actual"]
            assert "buffer_misses" in node["actual"]
            for child in node["children"]:
                check(child)

        check(payload["plan"])
        assert any(
            e["category"] == "enforcer" and e["name"] == "assembly"
            for e in payload["events"]
        )


class TestTracingCost:
    def test_default_pipeline_records_no_events(self, db):
        result = db.query(QUERY_2, use_cache=False)
        assert result.optimization.trace_events == ()
        assert db.tracer.events == []

    def test_default_execute_has_no_operator_stats(self, db):
        result = db.query(QUERY_2, use_cache=False)
        assert result.execution.operator_stats is None

    def test_optimize_with_tracer_records(self, db):
        tracer = Tracer()
        result = db.optimize(QUERY_2, tracer=tracer)
        assert result.trace_events
        categories = {e.category for e in result.trace_events}
        assert "task" in categories
        assert "phase" in categories

    def test_untraced_optimization_renders_nothing(self, db, monkeypatch):
        """Search states and rewrite details are built only for a tracer:
        untraced, no task renders its required properties, no rewrite
        renders a conjunct or a traversal Mat, and the result keeps no
        record of either."""
        rendered = []
        for cls, method in (
            (PhysProps, "__str__"), (Comparison, "__str__"), (Mat, "describe")
        ):
            def counting(self, _render=getattr(cls, method), _name=cls.__name__):
                rendered.append(_name)
                return _render(self)

            monkeypatch.setattr(cls, method, counting)
        texts = (QUERY_1, QUERY_2, QUERY_3, QUERY_4, chain_query(5))
        results = [db.optimize(text) for text in texts]
        assert rendered == []
        for result in results:
            assert result.trace_events == ()
            assert "rewrite:" not in result.explain()

    def test_result_holds_only_its_own_events(self, db):
        """A long-lived tracer keeps every run's events; each result (and
        each EXPLAIN ANALYZE report) carries only its own."""
        db.tracer = Tracer()
        first = db.optimize(QUERY_2)
        second = db.optimize(QUERY_3)
        assert db.tracer.events == [*first.trace_events, *second.trace_events]
        report = db.explain_analyze(QUERY_2, tracer=db.tracer)
        assert report.events[0].seq == second.trace_events[-1].seq + 1
        assert report.events[-1] is db.tracer.events[-1]

    def test_buffer_scope_stack_empty_after_run(self, db):
        db.explain_analyze(QUERY_2)
        assert db.store.buffer.io_scope_depth == 0


class TestTypeStatisticsWarnings:
    def test_missing_segment_warns_instead_of_silence(self, db):
        db.tracer = Tracer()
        db.collect_type_statistics()
        # The sample schema has types without segments/extents at small
        # scale only if generation skipped them; either way the call must
        # not raise and any skip must be visible as a warning event.
        for event in db.tracer.events:
            assert event.category == "warning"
            assert event.name == "type-statistics"
