"""Optimizer configuration: rule toggles and tunables.

The paper evaluates competing optimization strategies by *disabling rules*
("Table 2 summarizes optimization and expected execution times required to
optimize this same query with different optimizers (simulated by disabling
various rules in our optimizer)").  This module gives every rule a stable
name and makes enabling/disabling them a first-class configuration, along
with the assembly window size (window = 1 is the paper's "w/o window"
row) and the optional Lesson 7 warm-start assembly algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# ``hashlib.blake2b`` is this very function; importing it from ``hashlib``
# would also load OpenSSL, ~3.5 MB of resident memory in every process.
from _blake2 import blake2b

from repro.optimizer.cost import CostParams

# --- transformation rule names -----------------------------------------
SELECT_MERGE = "select-merge"
SELECT_PAST_MAT = "select-past-mat"
MAT_PAST_SELECT = "mat-past-select"
SELECT_PAST_UNNEST = "select-past-unnest"
UNNEST_PAST_SELECT = "unnest-past-select"
SELECT_PAST_JOIN = "select-past-join"
JOIN_COMMUTATIVITY = "join-commutativity"
JOIN_ASSOCIATIVITY = "join-associativity"
MAT_COMMUTATIVITY = "mat-commutativity"
MAT_PAST_JOIN = "mat-past-join"
MAT_TO_JOIN = "mat-to-join"
JOIN_TO_MAT = "join-to-mat"
SETOP_COMMUTATIVITY = "setop-commutativity"

ALL_TRANSFORMATIONS = (
    SELECT_MERGE,
    SELECT_PAST_MAT,
    MAT_PAST_SELECT,
    SELECT_PAST_UNNEST,
    UNNEST_PAST_SELECT,
    SELECT_PAST_JOIN,
    JOIN_COMMUTATIVITY,
    JOIN_ASSOCIATIVITY,
    MAT_COMMUTATIVITY,
    MAT_PAST_JOIN,
    MAT_TO_JOIN,
    JOIN_TO_MAT,
    SETOP_COMMUTATIVITY,
)

# --- implementation rule names -------------------------------------------
FILE_SCAN = "file-scan"
COLLAPSE_TO_INDEX_SCAN = "collapse-to-index-scan"
FILTER = "filter"
HASH_ANTI_JOIN = "hash-anti-join"
HYBRID_HASH_JOIN = "hybrid-hash-join"
MERGE_JOIN = "merge-join"
NESTED_LOOPS = "nested-loops"
ASSEMBLY = "assembly"
POINTER_JOIN = "pointer-join"
WARM_START_ASSEMBLY = "warm-start-assembly"
ALG_UNNEST = "alg-unnest"
ALG_PROJECT = "alg-project"
HASH_GROUP_BY = "hash-group-by"
HASH_SET_OP = "hash-set-op"

ALL_IMPLEMENTATIONS = (
    FILE_SCAN,
    COLLAPSE_TO_INDEX_SCAN,
    FILTER,
    HASH_ANTI_JOIN,
    HYBRID_HASH_JOIN,
    MERGE_JOIN,
    NESTED_LOOPS,
    ASSEMBLY,
    POINTER_JOIN,
    WARM_START_ASSEMBLY,
    ALG_UNNEST,
    ALG_PROJECT,
    HASH_GROUP_BY,
    HASH_SET_OP,
)

# --- pre-memo rewrite rule names -------------------------------------------
# These run in rewrite.py *before* the memo is built (``rewrite-mat-chain``
# instead switches the search's traversal guard).  Their names are the
# stage's only switch: ``config.without(...)`` ablates one, and with all of
# them disabled (``config.with_rewrites(False)``) the stage is skipped.
REWRITE_PUSHDOWN = "rewrite-pushdown"
REWRITE_COLLECTION_JOIN = "rewrite-collection-join"
REWRITE_MAT_CHAIN = "rewrite-mat-chain"
REWRITE_JOIN_CANON = "rewrite-join-canon"

ALL_REWRITES = (
    REWRITE_PUSHDOWN,
    REWRITE_COLLECTION_JOIN,
    REWRITE_MAT_CHAIN,
    REWRITE_JOIN_CANON,
)

# --- enforcer names --------------------------------------------------------
ASSEMBLY_ENFORCER = "assembly-enforcer"
SORT_ENFORCER = "sort-enforcer"

# Warm-start assembly is the paper's *future work* (Lesson 7); it is built
# but off by default so that default plans match the paper's.
DEFAULT_DISABLED = frozenset({WARM_START_ASSEMBLY})


@dataclass(frozen=True)
class OptimizerConfig:
    """Which rules run, and with which cost constants."""

    disabled_rules: frozenset[str] = DEFAULT_DISABLED
    cost: CostParams = field(default_factory=CostParams)
    # Branch-and-bound pruning; exhaustive search still visits the whole
    # logical space, pruning only the costing of dominated alternatives.
    prune: bool = True
    # --- heuristic guidance and pruning (the paper's future work #2) ----
    # Stop optimizing a (group, properties) goal after this many complete
    # candidate plans; implementation rules run in promise order, so a cap
    # of 1 is a pure greedy descent.  None = exhaustive (the default).
    candidate_cap: int | None = None
    # Aggressive-pruning factor in (0, 1]: a new alternative is pursued
    # only while its partial cost stays below best * factor, i.e. it must
    # promise at least a (1/factor)x improvement.  1.0 = safe
    # branch-and-bound; smaller values trade optimality for effort.
    prune_factor: float = 1.0
    # Cardinality feedback (src/repro/feedback/): cost estimates prefer
    # observed cardinalities from earlier executions over catalog
    # statistics, executions are monitored to produce new observations,
    # and an operator blowing past its estimate by feedback_replan_ratio
    # cancels the run and replans mid-query.  Off by default: feedback
    # never changes result bytes, but it does change plans (and the
    # store's version participates in plan-cache validity).
    feedback: bool = False
    # Observed/estimated ratio beyond which a running operator triggers
    # adaptive re-optimization (only with feedback on; see
    # repro.feedback.monitor.REPLAN_MIN_ROWS for the absolute floor).
    feedback_replan_ratio: float = 8.0

    def is_enabled(self, rule_name: str) -> bool:
        return rule_name not in self.disabled_rules

    def without(self, *rule_names: str) -> "OptimizerConfig":
        """A config with additional rules disabled."""
        return replace(
            self, disabled_rules=self.disabled_rules | frozenset(rule_names)
        )

    def with_rules(self, *rule_names: str) -> "OptimizerConfig":
        """A config with the given rules (re-)enabled."""
        return replace(
            self, disabled_rules=self.disabled_rules - frozenset(rule_names)
        )

    def with_window(self, window: int) -> "OptimizerConfig":
        """Set the assembly window size (1 = the paper's 'w/o window')."""
        return replace(self, cost=replace(self.cost, assembly_window=window))

    def with_heuristics(
        self,
        candidate_cap: int | None = None,
        prune_factor: float = 1.0,
    ) -> "OptimizerConfig":
        """Enable heuristic guidance/pruning (see the field docs)."""
        return replace(
            self, candidate_cap=candidate_cap, prune_factor=prune_factor
        )

    def with_rewrites(self, enabled: bool = True) -> "OptimizerConfig":
        """Enable or disable every pre-memo rewrite rule at once."""
        return (self.with_rules if enabled else self.without)(*ALL_REWRITES)

    def with_feedback(
        self, enabled: bool = True, replan_ratio: float | None = None
    ) -> "OptimizerConfig":
        """Toggle the cardinality-feedback loop (and optionally set the
        adaptive-replan trigger ratio)."""
        config = replace(self, feedback=enabled)
        if replan_ratio is not None:
            if replan_ratio <= 1.0:
                raise ValueError(
                    f"feedback_replan_ratio must exceed 1.0, got {replan_ratio!r}"
                )
            config = replace(config, feedback_replan_ratio=replan_ratio)
        return config

    def cache_key(self) -> str:
        """A fixed-length digest of :meth:`rendering`.

        The plan cache keys entries on this (plus the query fingerprint),
        so two configs that can pick different plans never share an
        entry.  Computed once per (frozen) instance, on first use: every
        cached statement asks, and ``replace`` — which copies fields, not
        this — makes the copy compute its own.
        """
        try:
            return self._cache_key
        except AttributeError:
            key = blake2b(self.rendering().encode(), digest_size=16).hexdigest()
            object.__setattr__(self, "_cache_key", key)
            return key

    def rendering(self) -> str:
        """A canonical rendering of every plan-affecting knob.

        ``disabled_rules`` is a frozenset whose repr ordering is
        unspecified — rendered sorted here so equal configs always render
        (and key) identically.
        """
        return (
            f"rules={','.join(sorted(self.disabled_rules))};"
            f"cost={self.cost!r};prune={self.prune};"
            f"cap={self.candidate_cap};pf={self.prune_factor};"
            f"feedback={self.feedback};"
            f"replan={self.feedback_replan_ratio}"
        )

    def with_memory_budget(self, memory_bytes: int) -> "OptimizerConfig":
        """A config whose cost model plans against a per-query memory
        budget: sorts and hash joins whose inputs exceed it are costed
        with the spill I/O the executor will actually incur."""
        return replace(
            self, cost=replace(self.cost, work_mem_bytes=max(1, memory_bytes))
        )


__all__ = [
    "ALG_PROJECT",
    "ALG_UNNEST",
    "ALL_IMPLEMENTATIONS",
    "ALL_REWRITES",
    "ALL_TRANSFORMATIONS",
    "ASSEMBLY",
    "ASSEMBLY_ENFORCER",
    "COLLAPSE_TO_INDEX_SCAN",
    "DEFAULT_DISABLED",
    "FILE_SCAN",
    "FILTER",
    "HASH_ANTI_JOIN",
    "HASH_GROUP_BY",
    "HASH_SET_OP",
    "HYBRID_HASH_JOIN",
    "MERGE_JOIN",
    "SORT_ENFORCER",
    "JOIN_ASSOCIATIVITY",
    "JOIN_COMMUTATIVITY",
    "JOIN_TO_MAT",
    "MAT_COMMUTATIVITY",
    "MAT_PAST_JOIN",
    "MAT_PAST_SELECT",
    "MAT_TO_JOIN",
    "NESTED_LOOPS",
    "OptimizerConfig",
    "POINTER_JOIN",
    "REWRITE_COLLECTION_JOIN",
    "REWRITE_JOIN_CANON",
    "REWRITE_MAT_CHAIN",
    "REWRITE_PUSHDOWN",
    "SELECT_MERGE",
    "SELECT_PAST_JOIN",
    "SELECT_PAST_MAT",
    "SELECT_PAST_UNNEST",
    "SETOP_COMMUTATIVITY",
    "UNNEST_PAST_SELECT",
    "WARM_START_ASSEMBLY",
]
