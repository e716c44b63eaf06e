"""Property-based soundness tests for the whole optimizer.

The strongest property in the suite: for *random queries* over the sample
schema, the plan chosen under a *random subset of enabled rules* must
execute to exactly the same result multiset as the default plan.  This
exercises transformations, implementations, enforcers, goal-direction, and
the executor together.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.engine.tuples import row_key
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C

_DB = None


def _db() -> Database:
    global _DB
    if _DB is None:
        _DB = Database.sample(scale=0.01, seed=99)
        _DB.create_index("pix", "Cities", ("mayor", "name"))
        _DB.create_index("tix", "Tasks", ("time",))
        _DB.create_index("eix", "extent(Employee)", ("name",))
    return _DB


# Query fragments composable into valid ZQL over the sample schema.
_CITY_CONDS = [
    'c.mayor.name == "Joe"',
    "c.population >= 500000",
    "c.population < 900000",
    'c.country.name != "country0"',
    'c.mayor.age > 40',
    "c.mayor.name == c.country.president.name",
]
_TASK_CONDS = [
    "t.time == 100",
    "t.time >= 500",
    'm.name == "Fred"',
    "m.age < 40",
]
_CITY_PROJ = ["c.name", "c.population", "c.mayor.age", "c.country.name"]
_TASK_PROJ = ["t.name", "t.time", "m.name"]

TOGGLABLE = [
    C.COLLAPSE_TO_INDEX_SCAN,
    C.MAT_TO_JOIN,
    C.JOIN_TO_MAT,
    C.JOIN_COMMUTATIVITY,
    C.JOIN_ASSOCIATIVITY,
    C.MAT_COMMUTATIVITY,
    C.MAT_PAST_JOIN,
    C.SELECT_PAST_MAT,
    C.SELECT_PAST_JOIN,
    C.SELECT_PAST_UNNEST,
    C.POINTER_JOIN,
    C.ASSEMBLY_ENFORCER,
    C.NESTED_LOOPS,
    C.MERGE_JOIN,
]


_CITY_ORDERS = [
    "", " ORDER BY c.population", " ORDER BY c.name DESC", " ORDER BY c",
    " ORDER BY c.mayor.age",
]

_TASK_QUANTIFIERS = [
    "",
    ' AND EXISTS (SELECT m2 FROM Employee m2 IN t.team_members WHERE m2.age < 35)',
    ' AND NOT EXISTS (SELECT m2 FROM Employee m2 IN t.team_members WHERE m2.name == "Fred")',
]

_AGG_QUERIES = [
    "SELECT c.country.name, COUNT(*) AS n FROM City c IN Cities "
    "GROUP BY c.country.name",
    "SELECT c.country.name, COUNT(*) AS n, AVG(c.population) AS p "
    "FROM City c IN Cities WHERE c.population >= 100000 "
    "GROUP BY c.country.name HAVING n >= 2 ORDER BY n DESC",
    "SELECT COUNT(*) AS n, MIN(c.population) AS lo, MAX(c.population) AS hi "
    "FROM City c IN Cities WHERE c.mayor.age > 30",
    "SELECT d.floor, COUNT(e.salary) AS n FROM Employee e IN Employees, "
    "Department d IN extent(Department) WHERE e.department == d "
    "GROUP BY d.floor ORDER BY d.floor",
]


@st.composite
def city_queries(draw):
    conds = draw(st.lists(st.sampled_from(_CITY_CONDS), max_size=3))
    projs = draw(st.lists(st.sampled_from(_CITY_PROJ), max_size=3))
    select = ", ".join(dict.fromkeys(projs)) if projs else "*"
    sql = f"SELECT {select} FROM City c IN Cities"
    if conds:
        sql += " WHERE " + " AND ".join(dict.fromkeys(conds))
    sql += draw(st.sampled_from(_CITY_ORDERS))
    return sql


@st.composite
def task_queries(draw):
    conds = draw(st.lists(st.sampled_from(_TASK_CONDS), min_size=1, max_size=3))
    projs = draw(st.lists(st.sampled_from(_TASK_PROJ), max_size=2))
    select = ", ".join(dict.fromkeys(projs)) if projs else "*"
    sql = f"SELECT {select} FROM Task t IN Tasks, Employee m IN t.team_members"
    sql += " WHERE " + " AND ".join(dict.fromkeys(conds))
    sql += draw(st.sampled_from(_TASK_QUANTIFIERS))
    return sql


configs = st.frozensets(st.sampled_from(TOGGLABLE), max_size=6).map(
    lambda disabled: OptimizerConfig().without(*disabled)
)


def _run(sql, config):
    result = _db().query(sql, config=config)
    return Counter(row_key(r) for r in result.rows)


class TestPlanSoundness:
    @given(city_queries(), configs)
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_city_queries_config_independent(self, sql, config):
        assert _run(sql, config) == _run(sql, OptimizerConfig())

    @given(task_queries(), configs)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_task_queries_config_independent(self, sql, config):
        assert _run(sql, config) == _run(sql, OptimizerConfig())

    @given(st.sampled_from(_AGG_QUERIES), configs)
    @settings(
        max_examples=16,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_aggregate_queries_config_independent(self, sql, config):
        from repro.errors import NoPlanFoundError

        try:
            got = _run(sql, config)
        except NoPlanFoundError:
            # A legitimate outcome: e.g. disabling select-past-join AND
            # nested-loops AND mat-to-join leaves a cartesian join with no
            # implementer.  Weaker rule sets may lose plans, never results.
            return
        assert got == _run(sql, OptimizerConfig())

    @given(city_queries())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_plan_cost_nonnegative_and_finite(self, sql):
        result = _db().optimize(sql)
        assert 0 <= result.cost.total < float("inf")
        for node in result.plan.walk():
            assert node.local_cost.total >= 0
            assert node.rows >= 0

    @given(city_queries())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_delivered_properties_honest(self, sql):
        """A node never claims in-memory variables that neither a child
        delivered nor the node itself materializes, and the root satisfies
        what optimization demanded."""
        from repro.optimizer.plans import (
            AssemblyNode,
            FileScanNode,
            IndexScanNode,
            PointerJoinNode,
            WarmStartAssemblyNode,
        )

        result = _db().optimize(sql)
        for node in result.plan.walk():
            inherited: frozenset[str] = frozenset()
            for child in node.children:
                inherited |= child.delivered.in_memory
            if isinstance(node, (FileScanNode, IndexScanNode)):
                inherited |= {node.var}
            if isinstance(
                node, (AssemblyNode, PointerJoinNode, WarmStartAssemblyNode)
            ):
                inherited |= {node.out}
            assert node.delivered.in_memory <= inherited
        assert result.plan.delivered.satisfies(result.required)


class _SeesEveryMExpr:
    """A rule as it was before rules were indexed by operator: it declares
    nothing, is therefore offered every m-expr, and returns at its own
    ``isinstance`` guard."""

    operators = None

    def __init__(self, rule):
        self.rule = rule
        self.name = rule.name

    def candidates(self, mexpr, group, required, ctx):
        declared = self.rule.operators
        if declared is not None and not isinstance(mexpr.op, declared):
            return iter(())
        return self.rule.candidates(mexpr, group, required, ctx)


def _costed_sequence(engine, root_gid, required):
    """Every candidate the engine costs, in order, id-free."""
    costed = []
    complete = engine._complete_candidate

    def recording(candidate, budget, prune, rule_name=""):
        costed.append(
            (
                rule_name,
                candidate.note,
                repr(candidate.local_cost),
                tuple((gid, str(req)) for gid, req in candidate.child_reqs),
            )
        )
        return complete(candidate, budget, prune, rule_name)

    engine._complete_candidate = recording
    plan = engine.optimize(root_gid, required)
    return costed, None if plan is None else plan.pretty(costs=True, props=True)


class TestOperatorIndexedRules:
    @given(st.one_of(city_queries(), task_queries()), configs)
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dispatch_costs_what_offering_every_rule_would(self, sql, config):
        from repro.optimizer.context import OptimizeContext
        from repro.optimizer.cost import CostModel
        from repro.optimizer.implementations import ALL_RULES
        from repro.optimizer.logical_props import build_query_vars
        from repro.optimizer.memo import Memo
        from repro.optimizer.optimizer import default_required_props
        from repro.obs.tracer import Tracer, search_states
        from repro.optimizer.search import SearchEngine
        from repro.optimizer.selectivity import SelectivityModel

        catalog = _db().catalog
        simplified = _db().simplify(sql)
        query_vars = build_query_vars(simplified.tree, catalog)
        selectivity = SelectivityModel(catalog, query_vars)
        memo = Memo(catalog, selectivity)
        root_gid = memo.insert_expression(simplified.tree)
        ctx = OptimizeContext(
            memo=memo,
            catalog=catalog,
            cost_model=CostModel(config.cost),
            selectivity=selectivity,
            query_vars=query_vars,
            config=config,
            tracer=Tracer(),
        )
        required = default_required_props(
            simplified.tree, simplified.result_vars, simplified.order
        )
        indexed = SearchEngine(ctx)
        indexed.explore()
        reference = SearchEngine(
            ctx,
            transformations=(),
            implementations=tuple(_SeesEveryMExpr(rule) for rule in ALL_RULES),
        )
        runs = []
        for engine in (indexed, reference):
            ctx.tracer.clear()
            costed = _costed_sequence(engine, root_gid, required)
            runs.append((costed, search_states(ctx.tracer.events)))
        assert runs[0] == runs[1]
        assert indexed.stats.candidates_costed == reference.stats.candidates_costed
