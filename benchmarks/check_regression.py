#!/usr/bin/env python3
"""CI perf gate: a fresh ``bench_quick.py`` run against the committed baseline.

Usage::

    python benchmarks/check_regression.py BENCH_BASELINE.json BENCH_PR.json

Two rules.  A metric whose baseline carries a ``floor`` passes when the
candidate's value is at least that floor; every other metric passes only
when the candidate's value equals the baseline's.  A metric on one side
only fails, and so does a baseline recorded under another Python minor
version (``api.py_calls_per_stmt`` counts interpreter-level calls).  A
change that moves a count on purpose re-records the baseline in the same
commit: ``PYTHONPATH=src python benchmarks/bench_quick.py --output
BENCH_BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    """Read one bench_quick JSON payload."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if "metrics" not in payload:
        raise SystemExit(f"{path}: not a benchmark payload (no 'metrics' key)")
    return payload


def minor(version: str) -> str:
    """``"3.11.7"`` -> ``"3.11"``."""
    return ".".join(version.split(".")[:2])


def compare(baseline: dict, candidate: dict) -> list[str]:
    """Return failure messages; print a verdict line per metric."""
    recorded, running = minor(baseline["python"]), minor(candidate["python"])
    if recorded != running:
        return [
            f"baseline recorded under Python {recorded}, candidate run under "
            f"Python {running}: re-record the baseline under {recorded} or "
            "run the gate under it"
        ]
    base_metrics, cand_metrics = baseline["metrics"], candidate["metrics"]
    names = sorted(set(base_metrics) | set(cand_metrics))
    width = max(len(name) for name in names)
    failures: list[str] = []
    for name in names:
        base, cand = base_metrics.get(name), cand_metrics.get(name)
        if base is None or cand is None:
            detail = "missing from " + ("baseline" if base is None else "candidate")
            ok = False
        elif "floor" in base:
            ok = cand["value"] >= base["floor"]
            detail = f"{cand['value']!r} {base['unit']} (floor {base['floor']!r})"
        else:
            ok = cand["value"] == base["value"]
            detail = f"{base['value']!r} -> {cand['value']!r} {base['unit']}"
        print(f"  {name:{width}}  {'ok' if ok else 'FAIL':4}  {detail}")
        if not ok:
            failures.append(f"{name}: {detail}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly measured JSON to gate")
    args = parser.parse_args(argv)

    failures = compare(load(args.baseline), load(args.candidate))
    if failures:
        print(f"\nperf gate FAILED ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
