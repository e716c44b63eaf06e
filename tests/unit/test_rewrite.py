"""Unit tests for the pre-memo rewrite stage, rule by rule.

Each rule gets a fires case and a does-not-fire case: the rewrite stage
must be aggressive exactly within its preconditions and inert outside
them (soundness across real data is the fuzzer's job; plan-quality
invariants on the paper queries live in the integration suite).
"""

from repro.algebra.operators import (
    AntiJoin,
    Get,
    Join,
    Mat,
    Project,
    ProjectItem,
    RefSource,
    Select,
)
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    RefAttr,
    SelfOid,
)
from repro.catalog.sample_db import build_catalog
from repro.obs.tracer import Tracer
from repro.optimizer import config as C
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.rewrite import (
    _canonicalize_joins,
    _collection_joins,
    _pushdown,
    rewrite_tree,
    traversal_outputs,
)
from repro.optimizer.logical_props import build_query_vars
from repro.optimizer.physical_props import PhysProps, SortKey
from repro.optimizer.selectivity import SelectivityModel


CATALOG = build_catalog()


def _eq(left, right):
    return Conjunction.of(Comparison(left, CompOp.EQ, right))


def _sel_model(tree):
    return SelectivityModel(CATALOG, build_query_vars(tree, CATALOG))


EMPLOYEES = Get("Employees", "e")
DEPARTMENTS = Get("extent(Department)", "d")
TASKS = Get("Tasks", "t")
E_NAME = _eq(FieldRef("e", "name"), Const("x"))
T_TIME = _eq(FieldRef("t", "time"), Const(100))
E_DEPT_IS_D = _eq(RefAttr("e", "department"), SelfOid("d"))


class TestPushdown:
    def test_single_side_conjunct_sinks_below_join(self):
        tree, fired = _pushdown(
            Select(Join(EMPLOYEES, TASKS, Conjunction.true()), E_NAME), None
        )
        assert isinstance(tree, Join)
        assert isinstance(tree.left, Select)
        assert tree.left.predicate == E_NAME
        assert fired == 1

    def test_spanning_conjunct_stays_above_join(self):
        spanning = _eq(FieldRef("e", "name"), FieldRef("t", "time"))
        tree, fired = _pushdown(
            Select(Join(EMPLOYEES, TASKS, Conjunction.true()), spanning), None
        )
        # Merging it into the join predicate would trip the
        # associativity rule's cartesian guard, so it must stay in a
        # Select above the join.
        assert isinstance(tree, Select)
        assert tree.predicate == spanning
        assert isinstance(tree.child, Join)
        assert tree.child.predicate.is_true
        assert fired == 0

    def test_stacked_selects_arrive_as_one_conjunction(self):
        tree, _ = _pushdown(Select(Select(EMPLOYEES, E_NAME), T_TIME), None)
        assert isinstance(tree, Select)
        assert isinstance(tree.child, Get)
        assert len(tree.predicate.comparisons) == 2

    def test_anti_join_sinks_left_conjuncts_and_pushes_its_right_input(self):
        right = Select(Join(DEPARTMENTS, TASKS, Conjunction.true()), T_TIME)
        details = []
        tree, fired = _pushdown(
            Select(AntiJoin(EMPLOYEES, right, E_DEPT_IS_D), E_NAME), details
        )
        assert isinstance(tree, AntiJoin)
        assert tree.left == Select(EMPLOYEES, E_NAME)
        assert tree.right == Join(
            DEPARTMENTS, Select(TASKS, T_TIME), Conjunction.true()
        )
        assert tree.predicate == E_DEPT_IS_D
        assert details == [
            (C.REWRITE_PUSHDOWN, f"{E_NAME.comparisons[0]} below AntiJoin"),
            (C.REWRITE_PUSHDOWN, f"{T_TIME.comparisons[0]} below Join"),
        ]
        # Untraced, the same firings are counted and nothing is rendered.
        assert fired == 2
        assert _pushdown(
            Select(AntiJoin(EMPLOYEES, right, E_DEPT_IS_D), E_NAME), None
        ) == (tree, 2)


class TestCollectionJoin:
    def _join_tree(self):
        return Select(
            Join(EMPLOYEES, DEPARTMENTS, Conjunction.true()), E_DEPT_IS_D
        )

    def test_fires_on_unreferenced_extent(self):
        tree, fired = _collection_joins(
            self._join_tree(), CATALOG, frozenset(), None
        )
        assert isinstance(tree, Mat)
        assert tree.source == RefSource("e", "department")
        assert tree.out == "d"
        assert isinstance(tree.child, Get)
        assert fired == 1

    def test_blocked_when_var_is_external(self):
        tree, fired = _collection_joins(
            self._join_tree(), CATALOG, frozenset({"d"}), None
        )
        assert isinstance(tree, Select)
        assert fired == 0

    def test_blocked_when_var_used_elsewhere(self):
        d_name = _eq(FieldRef("d", "name"), Const("Sales"))
        tree = Select(
            Join(EMPLOYEES, DEPARTMENTS, Conjunction.true()),
            E_DEPT_IS_D.conjoin(d_name),
        )
        converted, fired = _collection_joins(tree, CATALOG, frozenset(), None)
        assert isinstance(converted, Select)
        assert fired == 0

    def test_blocked_on_named_set(self):
        # Tasks is a NAMED_SET, not an extent: Mat-to-Join could not
        # restore the join, so the conversion must not fire.
        tree = Select(
            Join(EMPLOYEES, TASKS, Conjunction.true()),
            _eq(RefAttr("e", "department"), SelfOid("t")),
        )
        converted, fired = _collection_joins(tree, CATALOG, frozenset(), None)
        assert isinstance(converted, Select)
        assert fired == 0


class TestJoinCanon:
    def test_reorders_cartesian_inputs_by_estimate(self):
        tree = Join(EMPLOYEES, DEPARTMENTS, Conjunction.true())
        canon, fired = _canonicalize_joins(tree, _sel_model(tree), CATALOG, None)
        # extent(Department) (1 000 rows) before Employees (50 000).
        assert canon.left == DEPARTMENTS
        assert canon.right == EMPLOYEES
        assert fired == 1

    def test_predicated_join_untouched(self):
        tree = Join(EMPLOYEES, DEPARTMENTS, E_DEPT_IS_D)
        canon, fired = _canonicalize_joins(tree, _sel_model(tree), CATALOG, None)
        assert canon == tree
        assert fired == 0


class TestTraversalOutputs:
    def _chain(self):
        dept = Mat(EMPLOYEES, RefSource("e", "department"), "d")
        return Mat(dept, RefSource("e", "job"), "j")

    def test_unreferenced_run_is_one_traversal(self):
        tracer = Tracer()
        assert traversal_outputs(self._chain(), tracer=tracer) == {"d", "j"}
        (event,) = tracer.events
        assert (event.category, event.name) == ("rewrite", C.REWRITE_MAT_CHAIN)
        assert event.get("detail") == "traversal [Mat e.department: d, Mat e.job: j]"

    def test_needed_out_is_not_a_traversal(self):
        assert traversal_outputs(self._chain(), result_vars=("j",)) == {"d"}
        ordered = PhysProps.of(order=SortKey("j", "name"))
        assert traversal_outputs(self._chain(), required=ordered) == {"d"}

    def test_out_read_above_the_run_is_not_a_traversal(self):
        used = Select(self._chain(), _eq(FieldRef("d", "name"), Const("S")))
        tracer = Tracer()
        assert traversal_outputs(used, tracer=tracer) == {"j"}
        assert [e.get("detail") for e in tracer.events] == [
            "traversal [Mat e.job: j]"
        ]

    def test_out_read_inside_the_run_is_a_traversal(self):
        # d feeds the second hop: read only inside the run, so both are
        # traversal outputs.
        dept = Mat(EMPLOYEES, RefSource("e", "department"), "d")
        hop = Mat(dept, RefSource("d", None), "d2")
        assert traversal_outputs(hop) == {"d", "d2"}


class TestRewriteTreeStage:
    def test_disabled_stage_returns_original(self):
        tree = Select(Select(EMPLOYEES, E_NAME), T_TIME)
        config = OptimizerConfig().without(*C.ALL_REWRITES)
        tracer = Tracer()
        assert rewrite_tree(tree, CATALOG, config, tracer=tracer) == tree
        assert tracer.events == []

    def test_end_to_end_collection_join_fusion(self):
        jobs = Get("extent(Job)", "j")
        tree = Project(
            Select(
                Join(
                    Join(EMPLOYEES, DEPARTMENTS, Conjunction.true()),
                    jobs,
                    Conjunction.true(),
                ),
                E_DEPT_IS_D.conjoin(_eq(RefAttr("e", "job"), SelfOid("j"))),
            ),
            (ProjectItem("name", FieldRef("e", "name")),),
        )
        tracer = Tracer()
        out = rewrite_tree(
            tree, CATALOG, OptimizerConfig(), result_vars=(), tracer=tracer
        )
        assert isinstance(out, Project)
        top = out.children[0]
        assert isinstance(top, Mat) and isinstance(top.child, Mat)
        assert sorted((top.out, top.child.out)) == ["d", "j"]
        assert isinstance(top.child.child, Get)
        rules = {event.name for event in tracer.events_in("rewrite")}
        assert C.REWRITE_COLLECTION_JOIN in rules
        assert C.REWRITE_MAT_CHAIN not in rules  # the stage fuses nothing
        # Nothing above reads d or j: the Mats are one traversal.
        assert traversal_outputs(out) == {"d", "j"}

    def test_externals_protect_result_vars(self):
        tree = Select(
            Join(EMPLOYEES, DEPARTMENTS, Conjunction.true()), E_DEPT_IS_D
        )
        out = rewrite_tree(
            tree, CATALOG, OptimizerConfig(), result_vars=("e", "d")
        )
        # d is user-visible: the collection join must keep the Get.
        assert "extent(Department)" in repr(out)
