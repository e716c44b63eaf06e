#!/usr/bin/env python3
"""Quick benchmark subset for the CI perf-regression gate.

Runs in well under a minute and writes a machine-readable JSON file
(``BENCH_PR.json`` by default) that ``check_regression.py`` compares
against the committed ``BENCH_BASELINE.json``.  Metrics mix three kinds
of signal:

* optimizer wall time (median of several runs, the paper's < 1 s goal);
* deterministic simulated-execution numbers (page reads, simulated I/O),
  which catch plan or cost-model regressions with zero timer noise;
* the cardinality-feedback p99 speedup, gated by an absolute floor (the
  ``floor`` field) rather than a relative delta, since its off side
  tracks the host interpreter more than code changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common

OPTIMIZE_REPEATS = 9
CACHE_HIT_REPEATS = 9


def _best_wall(fn, repeats: int, inner: int = 3) -> float:
    """Noise-robust wall time: min over ``repeats`` of a batched sample.

    One warmup call absorbs lazy imports and cache fills; each sample
    averages ``inner`` back-to-back calls so scheduler hiccups shorter
    than a batch cannot dominate; taking the minimum discards samples a
    busy host inflated (speeding code up is not a thing noise does).
    """
    fn()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - started) / inner)
    return best


def collect() -> dict[str, dict]:
    """Run the quick subset and return the metric table."""
    metrics: dict[str, dict] = {}
    catalog = common.paper_catalog()

    for name, sql in (("q1", common.QUERY_1), ("q4", common.QUERY_4)):
        seconds = _best_wall(
            lambda sql=sql: common.optimize(catalog, sql), OPTIMIZE_REPEATS
        )
        metrics[f"optimize_{name}_ms"] = {
            "value": round(seconds * 1000, 3),
            "unit": "ms",
            "higher_is_better": False,
        }

    # Search-time gate: a five-collection slice of the scalability
    # bench's join chain.  Wall time catches rewrite/search slowdowns;
    # the memo group count is deterministic and catches search-space
    # blowups (a disabled rewrite stage, a new unfused operator) with
    # zero timer noise.
    from bench_search_scalability import chain_query

    chain_sql = chain_query(5)
    seconds = _best_wall(
        lambda: common.optimize(catalog, chain_sql), OPTIMIZE_REPEATS
    )
    metrics["optimize_chain5_ms"] = {
        "value": round(seconds * 1000, 3),
        "unit": "ms",
        "higher_is_better": False,
    }
    metrics["memo_groups_chain5"] = {
        "value": common.optimize(catalog, chain_sql).groups,
        "unit": "groups",
        "higher_is_better": False,
    }

    db = common.exec_database(scale=0.1)
    result = db.query(common.QUERY_2, use_cache=False)
    metrics["exec_q2_sim_io_ms"] = {
        "value": round(result.execution.simulated_io_seconds * 1000, 3),
        "unit": "ms",
        "higher_is_better": False,
    }
    metrics["exec_q2_page_reads"] = {
        "value": result.execution.page_reads,
        "unit": "pages",
        "higher_is_better": False,
    }

    db.query(common.QUERY_1)  # prime the plan cache
    seconds = _best_wall(
        lambda: db.query(common.QUERY_1, execute=False),
        CACHE_HIT_REPEATS,
        inner=10,
    )
    metrics["plan_cache_hit_ms"] = {
        "value": round(seconds * 1000, 3),
        "unit": "ms",
        "higher_is_better": False,
    }

    # Cardinality-feedback p99 on a skewed world: a repeated query whose
    # uniform-distribution estimate is off by two orders of magnitude
    # picks nested loops; the feedback loop replans it into a hash join.
    # The speedup is floor-gated (the off-side nested-loops time tracks
    # the host interpreter); the feedback-on p99 is tracked relatively.
    p99_off_ms, p99_on_ms = _skewed_feedback_p99()
    metrics["exec_skewed_p99_ms"] = {
        "value": round(p99_on_ms, 3),
        "unit": "ms",
        "higher_is_better": False,
    }
    metrics["feedback_p99_speedup"] = {
        "value": round(p99_off_ms / p99_on_ms, 2),
        "unit": "x",
        "higher_is_better": True,
        "floor": 2.0,
    }

    # Durability: per-commit log+fsync latency and recovery replay wall
    # time.  Informational only — both are dominated by the host's
    # fsync behaviour (container overlayfs vs bare metal varies by an
    # order of magnitude), so gating on a relative delta would flag
    # infrastructure, not code.  The in-memory metrics above stay the
    # enforced perf gate; these track the durable path's cost over time.
    commit_ms, replay_ms = _durability_metrics()
    metrics["commit_durable_ms"] = {
        "value": round(commit_ms, 3),
        "unit": "ms",
        "higher_is_better": False,
        "informational": True,
    }
    metrics["recovery_replay_ms"] = {
        "value": round(replay_ms, 3),
        "unit": "ms",
        "higher_is_better": False,
        "informational": True,
    }
    return metrics


#: Durable commits timed for the median, and replayed at recovery.
DURABLE_COMMITS = 40


def _durability_metrics() -> tuple[float, float]:
    """(median durable-commit ms, log-replay ms for that history)."""
    import shutil
    import statistics
    import tempfile

    from repro.api import Database
    from repro.durability.manager import DurabilityManager

    directory = tempfile.mkdtemp(prefix="repro-bench-durability-")
    try:
        db = Database.sample(scale=0.05)
        db.enable_durability(directory)
        samples = []
        for i in range(DURABLE_COMMITS):
            statement = (
                f"UPDATE c IN Cities SET c.population = {i + 1} "
                "WHERE c.name == 'city0'"
            )
            started = time.perf_counter()
            db.query(statement)
            samples.append((time.perf_counter() - started) * 1000.0)
        commit_ms = statistics.median(samples)

        fresh = Database.sample(scale=0.05)
        manager = DurabilityManager(directory)
        started = time.perf_counter()
        recovery = manager.recover(fresh)
        replay_ms = (time.perf_counter() - started) * 1000.0
        assert recovery["replayed"] == DURABLE_COMMITS
        manager.wal.close()
        return commit_ms, replay_ms
    finally:
        shutil.rmtree(directory, ignore_errors=True)


#: Repeated-query runs per feedback configuration.  p99 over 120 runs
#: discards exactly one sample, so the feedback-on side's single
#: adaptive-replan run (slow by design: it pays part of the bad plan,
#: then re-optimizes) does not define its tail.
FEEDBACK_RUNS = 120


def _skewed_feedback_p99() -> tuple[float, float]:
    """(feedback-off, feedback-on) p99 latency on a skewed world, in ms.

    The world pins 30% of ``Hot.k`` to one hot value while the index
    sees ~280 distinct keys, so the optimizer estimates ~1.4 rows for
    ``k == 0`` and picks nested loops against ``Dim``; the true output
    is ~120 rows, where a hash join is an order of magnitude faster.
    With feedback on, the first run replans mid-query and every later
    run is planned from the observed cardinality.
    """
    import math

    from repro.fuzz.worldgen import (
        AttrSpec,
        IndexSpec,
        TypeSpec,
        WorldSpec,
        build_database,
    )

    world = WorldSpec(
        types=(
            TypeSpec(
                name="Dim",
                count=160,
                attrs=(
                    AttrSpec(
                        name="s0", kind="scalar", scalar_type="int", distinct=40
                    ),
                ),
            ),
            TypeSpec(
                name="Hot",
                count=400,
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
    text = (
        "SELECT h.j FROM Hot h IN extent(Hot), Dim d IN extent(Dim) "
        "WHERE h.k == 0 && h.j == d.s0"
    )

    def p99(samples: list[float]) -> float:
        return sorted(samples)[math.ceil(0.99 * len(samples)) - 1]

    def workload(feedback: bool) -> list[float]:
        db = build_database(world)
        if feedback:
            db.config = db.config.with_feedback(True)
        samples = []
        for _ in range(FEEDBACK_RUNS):
            started = time.perf_counter()
            db.query(text)
            samples.append((time.perf_counter() - started) * 1000.0)
        return samples

    return p99(workload(feedback=False)), p99(workload(feedback=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="BENCH_PR.json",
        help="where to write the metric JSON (default: BENCH_PR.json)",
    )
    args = parser.parse_args(argv)

    metrics = collect()
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "metrics": metrics,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    width = max(len(name) for name in metrics)
    for name, metric in sorted(metrics.items()):
        print(f"  {name:{width}}  {metric['value']:>10} {metric['unit']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
