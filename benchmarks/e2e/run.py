"""The statement-level benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                      # everything, both modes
    python3 benchmarks/e2e/run.py --workload point_hit --seed 2 --trace 0
    python3 benchmarks/e2e/run.py --workload scan_exec --trace 1 --out out/r.json
    python3 benchmarks/e2e/run.py --repeat 3           # repeatability check
    python3 benchmarks/e2e/run.py --smoke              # 1/20 length, all checks

Each (workload, mode) runs in a fresh child process with
``PYTHONHASHSEED=0``.  ``--trace 0`` measures the end-to-end metrics with
the program untouched; ``--trace 1`` measures the per-layer metrics from
spans taken around the program's layer entry points.  The metric names,
units and bounds are those of ``BENCHMARK.json`` at the repository root,
and every run is checked against them.

With ``--workload`` and ``--trace`` the last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Counts that must repeat exactly between two runs of the same code on
#: the same seed (checked on the embedded workloads, where one caller and
#: no timers leave nothing to vary).
EXACT = (
    "storage.sim_io_ms_per_stmt", "storage.page_reads_per_stmt",
    "storage.objects_scanned_per_stmt", "storage.buffer_hit_ratio",
    "durability.log_bytes_per_commit", "durability.wal_bytes_per_commit",
    "durability.checkpoints", "durability.checkpoint_bytes",
    "api.py_calls_per_stmt", "engine.rows_per_stmt",
    "cache.hit_ratio", "cache.evictions", "optimizer.memo_groups_per_stmt",
)
CONCURRENT = ("served_mix",)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(benchmark, workload, seed, seconds, trace, spans=None) -> dict:
    """One (workload, mode) in a fresh child; its checked result."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(result["metrics"]) != set(units):
        odd = sorted(set(result["metrics"]) ^ set(units))
        raise SystemExit(f"{workload}: metrics differ from BENCHMARK.json: {odd}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    for error in result["errors"]:
        print(f"FAILED {workload}: {error}", file=sys.stderr)
    return result


def print_metrics(workload: str, trace: int, result: dict) -> None:
    mode = "per-layer (traced)" if trace else "end-to-end (untraced)"
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"\n== {workload}: {mode} — {result['attempted']} attempted, "
          f"{result['failed']} failed, {verdict}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result.get("diagnostics", {}).items():
        print(f"  ({name:<34} {value:>16.6g})")


def run_set(benchmark, names, seed, seconds, modes, out=None) -> dict:
    """Every chosen workload in every chosen mode, printed as it finishes."""
    results: dict = {}
    for workload in names:
        for trace in modes:
            spans = None
            if out is not None and trace:
                spans = out.parent / f"spans-{workload}.json"
            result = run_one(benchmark, workload, seed, seconds, trace, spans)
            print_metrics(workload, trace, result)
            results.setdefault(workload, {})[str(trace)] = result
    return results


def spread(values: list[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def check_repeats(benchmark, runs: list[dict]) -> bool:
    """Print median, range and spread per metric; True when all repeat."""
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    ok = True
    print(f"\n== repeatability over {len(runs)} runs "
          "(median, min-max, (max-min)/median)")
    for workload in runs[0]:
        for trace, first in runs[0][workload].items():
            for name, metric in first["metrics"].items():
                values = [
                    run[workload][trace]["metrics"][name]["value"] for run in runs
                ]
                wide = spread(values)
                verdict = ""
                if name in bounds and wide > bounds[name]:
                    verdict = f"  EXCEEDS bound {bounds[name]}"
                    ok = False
                if (name in EXACT and workload not in CONCURRENT
                        and len(set(values)) > 1):
                    verdict = "  NOT EXACT"
                    ok = False
                print(f"  {workload:<12} {name:<36} "
                      f"{statistics.median(values):>14.6g} "
                      f"{min(values):>14.6g} - {max(values):<14.6g} "
                      f"{wide:7.2%}{verdict}")
            if not all(run[workload][trace]["correct"] for run in runs):
                print(f"  {workload}: a run failed its checks")
                ok = False
    return ok


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names, help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="length of one timed pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end, 1 per-layer; default: both")
    parser.add_argument("--out", type=Path,
                        help="write every result here as JSON; a traced run also "
                             "writes its raw spans to spans-<workload>.json beside it")
    parser.add_argument("--repeat", type=int, nargs="?", const=3,
                        help="run the set N times (default 3) and check that it repeats")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the length: every workload, mode and check")
    args = parser.parse_args(argv)

    seconds = args.seconds / 20.0 if args.smoke else args.seconds
    chosen = [args.workload] if args.workload else names
    modes = (0, 1) if args.trace is None else (args.trace,)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)

    runs = [
        run_set(benchmark, chosen, args.seed, seconds, modes, args.out)
        for _ in range(args.repeat or 1)
    ]
    ok = all(
        result["correct"]
        for run in runs for modes_ in run.values() for result in modes_.values()
    )
    if args.repeat:
        ok = check_repeats(benchmark, runs) and ok
    if args.out is not None:
        args.out.write_text(json.dumps(runs if args.repeat else runs[0], indent=1))
    if args.workload and args.trace is not None and not args.repeat:
        result = runs[0][args.workload][str(args.trace)]
        print(json.dumps({
            key: result[key] for key in ("correct", "attempted", "failed", "metrics")
        }))
        return 0  # the result line carries the verdict
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
