"""Unit tests for simplification: user algebra -> optimizer algebra."""

import pytest

from repro.algebra.operators import (
    Join,
    Mat,
    Project,
    Select,
    SetOp,
    SetOpKind,
    Unnest,
)
from repro.algebra.predicates import (
    FieldRef,
    ObjectTerm,
    RefAttr,
    SelfOid,
)
from repro.catalog.sample_db import build_catalog
from repro.errors import QueryTypeError
from repro.lang.parser import parse_query
from repro.simplify.simplifier import simplify, simplify_full


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def ops_chain(tree):
    """Top-down list of operator class names along the left spine."""
    names = []
    node = tree
    while True:
        names.append(type(node).__name__)
        if not node.children:
            return names
        node = node.children[0]


class TestPathExpressions:
    def test_figure5_shape(self, catalog):
        """Query 1 must simplify to Project/Select/Mat/Mat/Mat/Get."""
        tree = simplify(
            parse_query(
                "SELECT Newobject(e.name(), e.department().name(), e.job().name()) "
                "FROM Employee e IN Employees "
                "WHERE e.department().plant().location() == 'Dallas'"
            ),
            catalog,
        )
        assert ops_chain(tree) == [
            "Project", "Select", "Mat", "Mat", "Mat", "Get",
        ]

    def test_each_link_is_one_mat(self, catalog):
        tree = simplify(
            parse_query(
                "SELECT * FROM City c IN Cities "
                "WHERE c.country.president.name == 'x'"
            ),
            catalog,
        )
        mats = [n for n in _walk(tree) if isinstance(n, Mat)]
        assert {m.out for m in mats} == {"c.country", "c.country.president"}

    def test_shared_path_prefix_single_mat(self, catalog):
        """c.mayor used twice -> exactly one Mat (CSE at simplification)."""
        tree = simplify(
            parse_query(
                "SELECT c.mayor.age FROM City c IN Cities "
                "WHERE c.mayor.name == 'Joe'"
            ),
            catalog,
        )
        mats = [n for n in _walk(tree) if isinstance(n, Mat)]
        assert len(mats) == 1
        assert mats[0].out == "c.mayor"

    def test_single_link_field_needs_no_mat(self, catalog):
        tree = simplify(
            parse_query("SELECT * FROM c IN Cities WHERE c.name == 'x'"),
            catalog,
        )
        assert not [n for n in _walk(tree) if isinstance(n, Mat)]

    def test_predicate_uses_canonical_mat_var(self, catalog):
        tree = simplify(
            parse_query("SELECT * FROM c IN Cities WHERE c.mayor.name == 'Joe'"),
            catalog,
        )
        select = next(n for n in _walk(tree) if isinstance(n, Select))
        fields = [
            t
            for comp in select.predicate.comparisons
            for t in (comp.left, comp.right)
            if isinstance(t, FieldRef)
        ]
        assert fields[0] == FieldRef("c.mayor", "name")


class TestSetValuedPaths:
    def test_figure3_shape(self, catalog):
        """Range over a set-valued path -> Mat over Unnest over Get."""
        tree = simplify(
            parse_query(
                "SELECT m.name FROM Task t IN Tasks, Employee m IN t.team_members"
            ),
            catalog,
        )
        assert ops_chain(tree) == ["Project", "Mat", "Unnest", "Get"]
        unnest = next(n for n in _walk(tree) if isinstance(n, Unnest))
        assert unnest.attr == "team_members"

    def test_unused_element_not_materialized(self, catalog):
        """If the element's attributes are never touched, no Mat is emitted."""
        tree = simplify(
            parse_query(
                "SELECT t.name FROM Task t IN Tasks, Employee m IN t.team_members"
            ),
            catalog,
        )
        assert not [n for n in _walk(tree) if isinstance(n, Mat)]

    def test_exists_flattened(self, catalog):
        """Query 4: EXISTS flattens into Unnest + Mat + conjuncts."""
        tree = simplify(
            parse_query(
                "SELECT * FROM Task t IN Tasks WHERE t.time == 100 AND EXISTS ("
                "SELECT m FROM Employee m IN t.team_members "
                "WHERE m.name == 'Fred')"
            ),
            catalog,
        )
        assert ops_chain(tree) == ["Select", "Mat", "Unnest", "Get"]
        select = next(n for n in _walk(tree) if isinstance(n, Select))
        assert len(select.predicate.comparisons) == 2


class TestMultipleRanges:
    def test_cartesian_join_with_predicates_in_select(self, catalog):
        tree = simplify(
            parse_query(
                "SELECT Newobject(e.name(), d.name()) "
                "FROM Employee e IN Employees, Department d IN extent(Department) "
                "WHERE e.department == d"
            ),
            catalog,
        )
        join = next(n for n in _walk(tree) if isinstance(n, Join))
        assert join.predicate.is_true  # simplification makes no choices
        select = next(n for n in _walk(tree) if isinstance(n, Select))
        comp = select.predicate.comparisons[0]
        terms = {type(comp.left), type(comp.right)}
        assert terms == {RefAttr, SelfOid}

    def test_first_range_must_be_collection(self, catalog):
        with pytest.raises(QueryTypeError):
            simplify(
                parse_query("SELECT * FROM m IN t.team_members"), catalog
            )


class TestResultVars:
    def test_select_star_result_vars(self, catalog):
        sq = simplify_full(
            parse_query("SELECT * FROM c IN Cities WHERE c.name == 'x'"),
            catalog,
        )
        assert sq.result_vars == ("c",)

    def test_select_star_materializes_set_range_var(self, catalog):
        sq = simplify_full(
            parse_query(
                "SELECT * FROM Task t IN Tasks, Employee m IN t.team_members"
            ),
            catalog,
        )
        assert sq.result_vars == ("t", "m")
        assert any(
            isinstance(n, Mat) and n.out == "m" for n in _walk(sq.tree)
        )

    def test_projection_has_no_result_vars(self, catalog):
        sq = simplify_full(
            parse_query("SELECT c.name FROM c IN Cities"), catalog
        )
        assert sq.result_vars == ()
        assert isinstance(sq.tree, Project)


class TestProjection:
    def test_bare_var_projects_object(self, catalog):
        tree = simplify(parse_query("SELECT c FROM c IN Cities"), catalog)
        assert isinstance(tree, Project)
        assert isinstance(tree.items[0].term, ObjectTerm)

    def test_ref_path_projection_materializes(self, catalog):
        tree = simplify(parse_query("SELECT c.mayor FROM c IN Cities"), catalog)
        assert isinstance(tree.items[0].term, ObjectTerm)
        assert any(isinstance(n, Mat) for n in _walk(tree))

    def test_distinct_flag(self, catalog):
        tree = simplify(
            parse_query("SELECT DISTINCT c.name FROM c IN Cities"), catalog
        )
        assert tree.distinct

    def test_set_valued_projection_rejected(self, catalog):
        with pytest.raises(QueryTypeError):
            simplify(parse_query("SELECT t.team_members FROM t IN Tasks"), catalog)


class TestSetQueries:
    def test_union_of_projects(self, catalog):
        tree = simplify(
            parse_query(
                "SELECT c.name FROM c IN Cities UNION "
                "SELECT k.name FROM k IN Capitals"
            ),
            catalog,
        )
        assert isinstance(tree, SetOp)
        assert tree.kind is SetOpKind.UNION

    def test_branches_take_the_callers_argument_rules(self, catalog):
        from repro.algebra.operators import Select
        from repro.simplify.simplifier import Simplifier

        query = parse_query(
            "SELECT c.name FROM c IN Cities WHERE c.population > 1 "
            "AND c.population > 2 UNION "
            "SELECT k.name FROM k IN Capitals WHERE k.population > 3 "
            "AND k.population > 4"
        )
        tree = Simplifier(catalog, argument_rules=()).simplify(query)
        selects = [node for node in _walk(tree) if isinstance(node, Select)]
        # Rules off: neither branch merges its two bounds into one.
        assert [len(s.predicate.comparisons) for s in selects] == [2, 2]


class TestErrors:
    def test_unknown_collection(self, catalog):
        with pytest.raises(QueryTypeError):
            simplify(parse_query("SELECT * FROM x IN Nowhere"), catalog)

    def test_unknown_variable(self, catalog):
        with pytest.raises(QueryTypeError):
            simplify(
                parse_query("SELECT * FROM c IN Cities WHERE z.name == 'x'"),
                catalog,
            )

    def test_type_mismatch(self, catalog):
        with pytest.raises(QueryTypeError):
            simplify(parse_query("SELECT * FROM Person c IN Cities"), catalog)

    def test_duplicate_range_var(self, catalog):
        with pytest.raises(QueryTypeError):
            simplify(
                parse_query("SELECT * FROM c IN Cities, c IN Capitals"),
                catalog,
            )

    def test_scalar_link_mid_path(self, catalog):
        with pytest.raises(QueryTypeError):
            simplify(
                parse_query("SELECT * FROM c IN Cities WHERE c.name.length == 1"),
                catalog,
            )


def _walk(tree):
    yield tree
    for child in tree.children:
        yield from _walk(child)
