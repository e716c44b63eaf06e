#!/usr/bin/env python3
"""CI perf-regression gate: compare a candidate benchmark JSON against
the committed baseline and fail on meaningful slowdowns.

Usage::

    python benchmarks/check_regression.py BENCH_BASELINE.json BENCH_PR.json

Both files are ``bench_quick.py`` output.  For each metric present in
both, the candidate fails if it is more than ``--threshold`` (default
25%) worse than the baseline — slower for lower-is-better metrics,
smaller for higher-is-better ones.  A metric carrying a ``floor`` is
gated by that absolute minimum instead of the relative delta (used for
``feedback_p99_speedup``, whose feedback-off side tracks the host
interpreter more than code).
A metric marked ``informational`` is reported but never fails on its
value (used for the durable-commit metrics, which track host fsync
behaviour more than code) — though dropping it from the candidate run
still fails, like any other baseline metric.
A metric present in the baseline but missing from the candidate FAILS
the gate: a silently dropped benchmark would otherwise disable its own
regression check.  Metrics only the candidate has are reported but not
gated, so adding a benchmark does not break unrelated PRs (retiring one
requires updating the committed baseline in the same change).
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_THRESHOLD = 0.25


def load(path: str) -> dict:
    """Read one bench_quick JSON payload."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if "metrics" not in payload:
        raise SystemExit(f"{path}: not a benchmark payload (no 'metrics' key)")
    return payload


def compare(baseline: dict, candidate: dict, threshold: float) -> list[str]:
    """Return failure messages; print a verdict line per metric."""
    base_metrics = baseline["metrics"]
    cand_metrics = candidate["metrics"]
    failures: list[str] = []
    width = max(len(name) for name in set(base_metrics) | set(cand_metrics))

    for name in sorted(base_metrics):
        base = base_metrics[name]
        cand = cand_metrics.get(name)
        if cand is None:
            print(f"  {name:{width}}  FAIL  (missing from candidate)")
            failures.append(
                f"{name}: baseline metric missing from candidate run — "
                "a dropped bench must be retired from the baseline, not "
                "skipped"
            )
            continue
        base_value, cand_value = base["value"], cand["value"]
        unit = base.get("unit", "")
        floor = base.get("floor")
        if base.get("informational", False):
            verdict = "info"
            detail = f"{base_value} -> {cand_value} {unit} (not gated)"
        elif floor is not None:
            verdict = "ok" if cand_value >= floor else "FAIL"
            detail = f"{cand_value} {unit} (floor {floor})"
        elif base.get("higher_is_better", False):
            limit = base_value * (1.0 - threshold)
            verdict = "ok" if cand_value >= limit else "FAIL"
            detail = f"{base_value} -> {cand_value} {unit} (min {limit:.3g})"
        else:
            limit = base_value * (1.0 + threshold)
            verdict = "ok" if cand_value <= limit else "FAIL"
            detail = f"{base_value} -> {cand_value} {unit} (max {limit:.3g})"
        print(f"  {name:{width}}  {verdict:4}  {detail}")
        if verdict == "FAIL":
            failures.append(f"{name}: {detail}")

    for name in sorted(set(cand_metrics) - set(base_metrics)):
        print(f"  {name:{width}}  NEW  (not in baseline, not gated)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly measured JSON to gate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed relative regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    failures = compare(load(args.baseline), load(args.candidate), args.threshold)
    if failures:
        print(
            f"\nperf regression gate FAILED ({len(failures)} metric(s) "
            f"worse than baseline by > {args.threshold:.0%} or missing):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
