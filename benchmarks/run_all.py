#!/usr/bin/env python3
"""Run every benchmark module's standalone harness and print all the
regenerated paper tables/figures in sequence:
``PYTHONPATH=src python benchmarks/run_all.py``.

Useful for a quick visual diff against the paper.  The deterministic
numbers behind the tables are pinned in ``tests/golden/paper_numbers.json``
and the paper's claims over them are checked by
``tests/integration/test_paper_numbers.py``.  Per-module wall times are
written to a machine-readable JSON file (``BENCH_ALL.json`` by default)
for archiving as a CI artifact.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import sys
import time

MODULES = [
    "bench_table1_catalog",
    "bench_table2_query1",
    "bench_table3_query4",
    "bench_fig5_6_7_plans",
    "bench_fig8_9_query2",
    "bench_fig10_11_query3",
    "bench_fig12_13_query4",
    "bench_exec_validation",
    "bench_ablation_window",
    "bench_ablation_warmstart",
    "bench_ablation_heuristics",
    "bench_estimation_accuracy",
    "bench_search_scalability",
    "bench_cost_validation",
    "bench_ablation_argrules",
    "bench_governor",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="BENCH_ALL.json",
        help="where to write per-module timings (default: BENCH_ALL.json)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    timings: dict[str, float] = {}
    for name in MODULES:
        print("=" * 78)
        print(f"== {name}")
        print("=" * 78)
        module_started = time.perf_counter()
        module = importlib.import_module(name)
        module.main()
        timings[name] = round(time.perf_counter() - module_started, 3)
        print()

    total = time.perf_counter() - started
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "modules": timings,
        "total_seconds": round(total, 3),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"all experiments regenerated in {total:.1f}s; wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    raise SystemExit(main())
