"""Unit tests for query fingerprinting, template binding, and digests."""

import pytest

from repro.cache.fingerprint import (
    admits,
    bind_template,
    digest_entry,
    parameterize,
    rebind_plan,
)
from repro.errors import ParameterBindingError
from repro.lang.ast import ConstAst, ParamAst
from repro.lang.lexer import strip_literals
from repro.lang.parser import parse_query


def fingerprint(text: str, auto: bool = True):
    return parameterize(parse_query(text), auto=auto)


class TestAutoParameterization:
    def test_different_constants_share_fingerprint(self):
        a = fingerprint("SELECT * FROM City c IN Cities WHERE c.population == 3")
        b = fingerprint("SELECT * FROM City c IN Cities WHERE c.population == 7")
        assert a.text_key == b.text_key
        assert a.consts == (3,)
        assert b.consts == (7,)

    def test_different_shapes_differ(self):
        a = fingerprint("SELECT * FROM City c IN Cities WHERE c.population == 3")
        b = fingerprint("SELECT * FROM City c IN Cities WHERE c.population <= 3")
        assert a.text_key != b.text_key

    def test_whitespace_and_case_normalized(self):
        a = fingerprint("SELECT * FROM City c IN Cities WHERE c.population == 3")
        b = fingerprint("select *  from City c in Cities  where c.population == 3")
        assert a.text_key == b.text_key

    def test_subquery_constants_parameterized(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks WHERE t.time == 100 AND EXISTS ("
            'SELECT m FROM Employee m IN t.team_members WHERE m.name == "Fred")'
        )
        assert p.consts == (100, "Fred")
        assert p.cacheable

    def test_bool_constants_stay_literal(self):
        a = fingerprint("SELECT * FROM City c IN Cities WHERE c.port == true")
        b = fingerprint("SELECT * FROM City c IN Cities WHERE c.port == false")
        assert not a.slots and not b.slots
        assert a.text_key != b.text_key

    def test_const_vs_const_stays_literal(self):
        p = fingerprint("SELECT * FROM City c IN Cities WHERE 1 == 1")
        assert not p.slots
        assert p.cacheable

    def test_multiple_bounds_on_one_term_stay_literal(self):
        # tighten-bounds may merge these by value; each value pair must
        # get its own fingerprint.
        for where, other in (
            # Two lower bounds: tighten-bounds keeps the tighter one.
            ("c.population > 3 AND c.population > 5",
             "c.population > 4 AND c.population > 5"),
            # An equality and a bound: decided by value.
            ("c.population == 3 AND c.population < 9",
             "c.population == 4 AND c.population < 9"),
            # A range whose first binding fails the guard (a contradiction).
            ("c.population > 9 AND c.population < 3",
             "c.population > 9 AND c.population < 4"),
        ):
            a = fingerprint(f"SELECT * FROM City c IN Cities WHERE {where}")
            b = fingerprint(f"SELECT * FROM City c IN Cities WHERE {other}")
            assert not a.slots and not a.guards, where
            assert a.cacheable
            assert a.text_key != b.text_key

    @pytest.mark.parametrize("where", [
        "c.population > 3 AND c.population < 9",
        "3 < c.population AND 9 >= c.population",
        "c.population <= 9 AND c.name == 'x' AND c.population >= 3",
    ])
    def test_a_two_sided_range_is_lifted_under_its_guard(self, where):
        p = fingerprint(f"SELECT * FROM City c IN Cities WHERE {where}")
        assert "3" not in p.text_key and "9" not in p.text_key
        lower = next(s.index for s in p.slots if s.value == 3)
        upper = next(s.index for s in p.slots if s.value == 9)
        assert p.guards == ((lower, upper),)
        assert p.cacheable and not p.literal_ranges
        # Equal bounds (an equality under >=/<=) and mixed kinds fail it.
        for lo, hi in ((9, 9), (9, 3), ("a", 9)):
            consts = list(p.consts)
            consts[lower], consts[upper] = lo, hi
            assert not admits(p.guards, tuple(consts))
        assert admits(p.guards, p.consts)

    def test_a_range_failing_its_guard_is_marked(self):
        p = fingerprint(
            "SELECT * FROM City c IN Cities "
            "WHERE c.population >= 'a' AND c.population <= 9"
        )
        assert not p.slots and p.literal_ranges

    def test_join_predicates_untouched(self):
        p = fingerprint(
            "SELECT * FROM Employee e IN Employees, "
            "Department d IN extent(Department) "
            "WHERE e.department == d AND d.floor == 3"
        )
        assert p.consts == (3,)


class TestUserParameters:
    def test_prepared_params_collected_in_order(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks "
            "WHERE t.time == $when AND t.priority == $prio",
            auto=False,
        )
        assert p.user_param_names == ("when", "prio")
        assert p.cacheable

    def test_literals_stay_literal_in_prepared_mode(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks WHERE t.time == 100", auto=False
        )
        assert not p.slots
        assert "100" in p.text_key

    def test_param_with_sibling_bound_is_uncacheable(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks "
            "WHERE t.time == $when AND t.time < 200",
            auto=False,
        )
        assert not p.cacheable
        assert p.reason is not None

    def test_a_prepared_range_is_cacheable_under_its_guard(self):
        p = fingerprint(
            "SELECT * FROM City c IN Cities "
            "WHERE $hi > c.population AND c.population >= $lo",
            auto=False,
        )
        assert p.cacheable and p.user_param_names == ("hi", "lo")
        assert p.guards == ((1, 0),)

    def test_param_vs_param_is_uncacheable(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks WHERE $a == $b", auto=False
        )
        assert not p.cacheable


class TestBinding:
    def test_bind_substitutes_slotted_constants(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks WHERE t.time == $when", auto=False
        )
        bound = bind_template(p, (100,))
        consts = [
            c.right for c in bound.where if isinstance(c.right, ConstAst)
        ]
        assert consts == [ConstAst(100, slot=0)]

    def test_bind_missing_value_raises(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks WHERE t.time == $when", auto=False
        )
        with pytest.raises(ParameterBindingError):
            bind_template(p, ())

    def test_bool_and_none_rejected(self):
        p = fingerprint(
            "SELECT * FROM Task t IN Tasks WHERE t.time == $when", auto=False
        )
        for value in (True, None):
            with pytest.raises(ParameterBindingError):
                bind_template(p, (value,))
            with pytest.raises(ParameterBindingError):
                rebind_plan(1, (value,))

    def test_template_has_no_residual_params_after_bind(self):
        p = fingerprint("SELECT * FROM Task t IN Tasks WHERE t.time == 100")
        bound = bind_template(p, p.consts)
        assert "$" not in str(bound)


class TestRebindPlan:
    def test_template_plan_runs_and_shows_each_statements_consts(self, plain_db):
        """One plan object serves every binding: its constants are slots,
        resolved from the ``consts`` handed to execution and rendering."""
        from repro.algebra.predicates import showing
        from repro.optimizer.optimizer import Optimizer
        from repro.simplify.simplifier import simplify_full

        text = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "{}"'
        p = fingerprint(text.format("Joe"))
        simplified = simplify_full(bind_template(p, p.consts), plain_db.catalog)
        plan = Optimizer(plain_db.catalog).optimize(
            simplified.tree, result_vars=simplified.result_vars
        ).plan
        other = plain_db.query(
            "SELECT c.mayor.name FROM City c IN Cities", use_cache=False
        ).rows[0]["c.mayor.name"]
        for name in ("Joe", other):
            consts = (name,)
            rebind_plan(len(p.slots), consts)
            with showing(consts):
                assert repr(name) in plan.pretty()
            rows = plain_db.execute_plan(plan, consts=consts).rows
            expected = plain_db.query(text.format(name), use_cache=False).rows
            assert len(rows) == len(expected) > 0
        # Unbound, the template shows the first binding's value.
        assert "'Joe'" in plan.pretty()

    def test_rebind_rejects_the_wrong_number_of_consts(self):
        with pytest.raises(ParameterBindingError):
            rebind_plan(2, ("Joe",))

    def test_param_ast_renders_with_dollar(self):
        assert str(ParamAst("who")) == "$who"


class TestDigestEntry:
    def entry(self, text):
        digest, raws = strip_literals(text)
        return digest_entry(fingerprint(text), digest, raws)

    def test_slots_map_to_literal_ordinals(self):
        known = self.entry(
            "SELECT * FROM Task t IN Tasks WHERE t.time == 100 AND EXISTS ("
            'SELECT m FROM Employee m IN t.team_members WHERE m.name == "Fred")'
        )
        assert known.order == (0, 1) and known.fixed == ()

    def test_literals_that_stay_are_fixed_by_their_source_text(self):
        known = self.entry(
            "SELECT * FROM City c IN Cities "
            "WHERE c.population > 3 AND c.name == 'x' AND c.population > 9"
        )
        assert known.order == (1,)
        assert known.fixed == ((0, "3"), (2, "9"))
