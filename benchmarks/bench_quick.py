#!/usr/bin/env python3
"""The CI perf gate's measurements: exact counts and one floor.

    PYTHONPATH=src python benchmarks/bench_quick.py --output BENCH_PR.json
    python benchmarks/check_regression.py BENCH_BASELINE.json BENCH_PR.json

Every metric but one is an exact function of code and seed, so
``check_regression.py`` requires it to equal the committed
``BENCH_BASELINE.json``:

* Query 2's simulated page reads and simulated I/O time at scale 0.1;
* the memo groups of a five-collection join chain (a search-space blowup);
* for each statement workload of ``benchmarks/e2e``, the traced counts of
  ``compare.EXACT`` at seed 1.

The cardinality-feedback p99 speedup is wall-clock, and gated by its
``floor`` instead.  ``--output BENCH_BASELINE.json`` re-records the baseline.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common
import compare
from bench_search_scalability import chain_query

#: The statement workloads' traced counts come from this seed.
E2E_SEED = 1


def collect() -> dict[str, dict]:
    """Run every measurement and return the metric table."""
    catalog = common.paper_catalog()
    metrics = {
        "memo_groups_chain5": {
            "value": common.optimize(catalog, chain_query(5)).groups,
            "unit": "groups",
        }
    }

    db = common.exec_database(scale=0.1)
    execution = db.query(common.QUERY_2, use_cache=False).execution
    metrics["exec_q2_sim_io_ms"] = {
        "value": round(execution.simulated_io_seconds * 1000, 3),
        "unit": "ms",
    }
    metrics["exec_q2_page_reads"] = {"value": execution.page_reads, "unit": "pages"}

    p99_off_ms, p99_on_ms = _skewed_feedback_p99()
    metrics["feedback_p99_speedup"] = {
        "value": round(p99_off_ms / p99_on_ms, 2),
        "unit": "x",
        "floor": 2.0,
    }

    benchmark = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        traced = compare.run(compare.ROOT, workload, E2E_SEED, 1)["metrics"]
        for name in compare.EXACT:
            metrics[f"{workload}/{name}"] = traced[name]
    return metrics


#: Repeated-query runs per feedback configuration.  Their p99 leaves out
#: the 4 slowest: on the feedback-on side the adaptive-replan run (it pays
#: part of the bad plan, then re-optimizes) and the plan-cache miss after
#: it, both slow by design, and up to two samples a busy host stretched,
#: so one stretched sample cannot set the ratio.
FEEDBACK_RUNS = 400


def _skewed_feedback_p99() -> tuple[float, float]:
    """(feedback-off, feedback-on) p99 latency on a skewed world, in ms.

    The world pins 30% of ``Hot.k`` to one hot value while the index
    sees ~280 distinct keys, so the optimizer estimates ~1.4 rows for
    ``k == 0`` and picks nested loops against ``Dim``; the true output
    is ~120 rows, where a hash join is an order of magnitude faster.
    With feedback on, the first run replans mid-query and every later
    run is planned from the observed cardinality.
    """
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
        # A cyclic-GC pause of several ms can set the feedback-on side's
        # tail; the ratio is about plans, so the collector stays out.
        gc.collect()
        gc.disable()
        try:
            for _ in range(FEEDBACK_RUNS):
                started = time.perf_counter()
                db.query(text)
                samples.append((time.perf_counter() - started) * 1000.0)
        finally:
            gc.enable()
        return samples

    return p99(workload(feedback=False)), p99(workload(feedback=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--output",
        default="BENCH_PR.json",
        help="where to write the metric JSON (default: BENCH_PR.json)",
    )
    args = parser.parse_args(argv)

    metrics = collect()
    payload = {
        "schema": 2,
        "python": platform.python_version(),
        "metrics": metrics,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    width = max(len(name) for name in metrics)
    for name, metric in sorted(metrics.items()):
        print(f"  {name:{width}}  {metric['value']!r:>22} {metric['unit']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
