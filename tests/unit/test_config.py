"""Unit tests for optimizer configuration semantics."""

from repro.optimizer import config as C
from repro.optimizer.config import OptimizerConfig


class TestRuleToggles:
    def test_default_enables_everything_but_warm_start(self):
        config = OptimizerConfig()
        for name in C.ALL_TRANSFORMATIONS + C.ALL_IMPLEMENTATIONS:
            expected = name != C.WARM_START_ASSEMBLY
            assert config.is_enabled(name) is expected
        assert config.is_enabled(C.ASSEMBLY_ENFORCER)
        assert config.is_enabled(C.SORT_ENFORCER)

    def test_without_accumulates(self):
        config = OptimizerConfig().without(C.MAT_TO_JOIN).without(C.FILTER)
        assert not config.is_enabled(C.MAT_TO_JOIN)
        assert not config.is_enabled(C.FILTER)

    def test_with_rules_reenables(self):
        config = OptimizerConfig().with_rules(C.WARM_START_ASSEMBLY)
        assert config.is_enabled(C.WARM_START_ASSEMBLY)

    def test_configs_are_immutable_values(self):
        base = OptimizerConfig()
        derived = base.without(C.MAT_TO_JOIN)
        assert base.is_enabled(C.MAT_TO_JOIN)
        assert base != derived
        assert hash(base) != hash(derived)

    def test_rewrite_rule_names_are_the_stage_switch(self):
        """One spelling of "stage off": disabling every rewrite rule, so
        equal configs share one plan-cache key."""
        off = OptimizerConfig().with_rewrites(False)
        assert off == OptimizerConfig().without(*C.ALL_REWRITES)
        assert off.cache_key() == OptimizerConfig().without(
            *C.ALL_REWRITES
        ).cache_key()
        assert off.with_rewrites(True) == OptimizerConfig()

    def test_rule_names_unique(self):
        names = C.ALL_TRANSFORMATIONS + C.ALL_IMPLEMENTATIONS + (
            C.ASSEMBLY_ENFORCER,
            C.SORT_ENFORCER,
        )
        assert len(names) == len(set(names))


class TestTunables:
    def test_with_window(self):
        config = OptimizerConfig().with_window(1)
        assert config.cost.assembly_window == 1
        # Other cost constants untouched.
        assert config.cost.page_size == OptimizerConfig().cost.page_size

    def test_with_heuristics(self):
        config = OptimizerConfig().with_heuristics(
            candidate_cap=2, prune_factor=0.5
        )
        assert config.candidate_cap == 2
        assert config.prune_factor == 0.5
        assert OptimizerConfig().candidate_cap is None

    def test_every_named_rule_is_disableable_end_to_end(self, paper_catalog):
        """Disabling any single rule must never break optimization of the
        paper queries (a weaker rule set only loses alternatives)."""
        from repro.lang.parser import parse_query
        from repro.optimizer import Optimizer
        from repro.simplify.simplifier import simplify_full

        sql = (
            "SELECT c.name FROM City c IN Cities "
            'WHERE c.mayor.name == "Joe"'
        )
        sq = simplify_full(parse_query(sql), paper_catalog)
        for name in C.ALL_TRANSFORMATIONS + C.ALL_IMPLEMENTATIONS:
            if name in (C.FILTER, C.FILE_SCAN, C.ALG_PROJECT):
                continue  # the last-resort implementations must stay
            config = OptimizerConfig().without(name)
            result = Optimizer(paper_catalog, config).optimize(
                sq.tree, result_vars=sq.result_vars
            )
            assert result.plan is not None, name


class TestCacheKey:
    """The plan cache keys on :meth:`OptimizerConfig.cache_key`."""

    def test_rule_disable_order_is_canonicalized(self):
        """The same rule set disabled in any order yields one cache key.

        Pre-fix the cache keyed on ``repr(config)``, where the disabled
        set's iteration order leaks in — two equal configs could occupy
        (and miss) separate cache slots.
        """
        a = OptimizerConfig().without(C.MERGE_JOIN, C.HYBRID_HASH_JOIN)
        b = OptimizerConfig().without(C.HYBRID_HASH_JOIN, C.MERGE_JOIN)
        assert a.cache_key() == b.cache_key()
        assert a.rendering() == b.rendering()
        # The rendering is sorted, so the key is stable across processes
        # (frozenset iteration order follows the per-process hash seed).
        rules = a.rendering().split(";")[0].removeprefix("rules=").split(",")
        assert rules == sorted(rules)
        # The key is a fixed-length digest of that rendering, not the
        # rendering itself (whose cost parameters run to ~400 bytes).
        assert len(a.cache_key()) == len(OptimizerConfig().cache_key()) == 32
        assert len(a.rendering()) > 300

    def test_rendered_once_per_instance_and_again_after_replace(self):
        import copy
        import dataclasses
        import pickle

        base = OptimizerConfig()
        assert base.cache_key() is base.cache_key()  # kept, not re-rendered
        # Every derived config renders its own: nothing is copied across.
        for changed in (
            dataclasses.replace(base, prune=False),
            base.without(C.MERGE_JOIN),
            base.with_heuristics(candidate_cap=1),
            base.with_memory_budget(4096),
        ):
            assert changed.cache_key() != base.cache_key()
            assert changed.cache_key() == dataclasses.replace(changed).cache_key()
        # The kept key is not a field: equality, hash and repr ignore it.
        fresh = OptimizerConfig()
        assert fresh == base and hash(fresh) == hash(base)
        assert repr(fresh) == repr(base)
        for clone in (pickle.loads(pickle.dumps(base)), copy.deepcopy(base)):
            assert clone == base and clone.cache_key() == base.cache_key()

    def test_feedback_flag_separates_keys(self):
        base = OptimizerConfig()
        assert base.cache_key() != base.with_feedback(True).cache_key()

    def test_replan_ratio_separates_keys(self):
        a = OptimizerConfig().with_feedback(True)
        b = OptimizerConfig().with_feedback(True, replan_ratio=2.0)
        assert a.cache_key() != b.cache_key()

    def test_with_feedback_rejects_degenerate_ratio(self):
        import pytest

        with pytest.raises(ValueError):
            OptimizerConfig().with_feedback(True, replan_ratio=1.0)
