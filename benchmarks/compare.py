"""Compare a base revision with this checkout on statement workloads.

    python3 benchmarks/compare.py --base HEAD~1 --workload point_hit
    python3 benchmarks/compare.py --base main --workload scan_exec --seeds 61-70 --trace
    python3 benchmarks/compare.py --base main --workload point_hit,scan_exec
    python3 benchmarks/compare.py --base main --workload all --trace

``--workload`` names one workload, a comma list, or ``all`` (every workload
of ``BENCHMARK.json``, in its order); each gets its own table.

The base revision is checked out into a temporary ``git worktree`` (removed
afterwards); this checkout, uncommitted edits included, is the head.  For
each seed, ``benchmarks/e2e/run.py --trace 0`` runs once on each side, the
side that goes first alternating from pair to pair.  Per end-to-end metric
of ``BENCHMARK.json`` it prints both medians, the base's quartiles, how many
pairs the head won (ties count for neither side) and a verdict:

* ``gain``: the head won at least 9 of every 10 pairs and the medians lie
  further apart than the base's inter-quartile distance;
* ``REGRESSION``: the head's median is worse than the base's by more than
  the metric's bound;
* ``unresolved``: the base's own runs spread wider than the bound, and not
  every head run beat every base run;
* ``within bound``: none of these.

Each run's line of per-CPU busy shares, read from ``/proc/stat`` around the
child (Linux), shows a run whose processes shared one CPU: ``served_mix``'s
server and client on one vCPU run at about 1.4x the statement time.

``--trace [SEED]`` (seed 1 by default) adds one traced run per side and
diffs the counts that must repeat exactly, then lists the per-layer times.
Nothing from ``benchmarks/e2e/`` is imported: its ``run.py`` is invoked.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"

#: Traced counts a change that claims no such effect must leave bit-identical.
EXACT = (
    "cache.hit_ratio", "cache.evictions", "optimizer.memo_groups_per_stmt",
    "engine.rows_per_stmt", "storage.sim_io_ms_per_stmt",
    "storage.page_reads_per_stmt", "storage.buffer_hit_ratio",
    "storage.objects_scanned_per_stmt", "durability.wal_bytes_per_commit",
    "durability.log_bytes_per_commit", "api.py_calls_per_stmt",
)


def parse_workloads(text: str, declared: list[str]) -> list[str]:
    """``"all"``, one workload or a comma list, checked against ``declared``."""
    names = declared if text == "all" else text.split(",")
    unknown = sorted(set(names) - set(declared))
    if unknown:
        raise ValueError(f"unknown workload(s) {', '.join(unknown)}; "
                         f"declared: {', '.join(declared)}")
    return names


def parse_seeds(text: str) -> list[int]:
    """``"61-70"`` or ``"3,5,8"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float]:
    """(Q1, Q3), inclusive method; both the value itself for one run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over runs paired by position."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (base - head) > 0: head better
    base_median, head_median = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    change = (head_median - base_median) / abs(base_median)
    worse = sign * change
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    spread = (max(base) - min(base)) / abs(base_median)
    if wins >= 0.9 * len(base) and worse < 0 and abs(head_median - base_median) > q3 - q1:
        verdict = "gain"
    elif worse > bound:
        verdict = "REGRESSION"
    elif spread > bound and not all(sign * (b - h) > 0 for b in base for h in head):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base": base_median, "head": head_median, "q1": q1, "q3": q3,
        "change": change, "wins": wins, "pairs": len(base), "verdict": verdict,
    }


def cpu_times(text: str) -> dict[str, list[int]]:
    """Each CPU's ``/proc/stat`` line (``cpu0`` ...) as its tick counters."""
    return {
        fields[0]: [int(value) for value in fields[1:]]
        for fields in map(str.split, text.splitlines())
        if fields and fields[0].startswith("cpu") and fields[0] != "cpu"
    }


def read_cpu_times() -> dict[str, list[int]]:
    """``cpu_times`` of this machine now; empty without ``/proc/stat``."""
    try:
        return cpu_times(Path("/proc/stat").read_text())
    except OSError:
        return {}


def busy_shares(before: dict[str, list[int]], after: dict[str, list[int]]) -> list[float]:
    """Each CPU's busy share of the ticks between two ``cpu_times`` readings.

    The first eight counters (user, nice, system, idle, iowait, irq,
    softirq, steal) add up to the elapsed ticks; idle and iowait are not busy.
    """
    shares = []
    for name, start in before.items():
        delta = [end - begin for begin, end in zip(start[:8], after.get(name, start))]
        total = sum(delta)
        shares.append((total - delta[3] - delta[4]) / total if total else 0.0)
    return shares


def run(side: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` result (``correct``, ``attempted``, ``failed``,
    ``metrics``), plus ``cpu_busy``: each CPU's busy share over the run."""
    before = read_cpu_times()
    done = subprocess.run(
        [sys.executable, str(side / RUN), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=side, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["cpu_busy"] = busy_shares(before, read_cpu_times())
    return result


def cpu_line(result: dict) -> str:
    return " ".join(f"{share:4.0%}" for share in result["cpu_busy"]) or "n/a"


def values(results: list[dict], name: str) -> list[float]:
    return [result["metrics"][name]["value"] for result in results]


def compare(base: Path, workload: str, seeds: list[int], trace_seed: int | None) -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"base": base, "head": ROOT}
    results: dict[str, list[dict]] = {"base": [], "head": []}
    for number, seed in enumerate(seeds):
        order = ("base", "head") if number % 2 == 0 else ("head", "base")
        for name in order:
            results[name].append(run(sides[name], workload, seed, 0))
        print(f"seed {seed}: done ({order[0]} first)", file=sys.stderr)

    print(f"\n== {workload}: {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
    for name, side in results.items():
        failed = sum(result["failed"] for result in side)
        attempted = sum(result["attempted"] for result in side)
        correct = all(result["correct"] for result in side)
        print(f"  {name}: {attempted} attempted, {failed} failed, "
              f"{'correct' if correct else 'INCORRECT'}")
    print("  busy share of each CPU per run:")
    for seed, base_run, head_run in zip(seeds, results["base"], results["head"]):
        print(f"    seed {seed}: base {cpu_line(base_run)} | head {cpu_line(head_run)}")
    print(f"  {'metric':<14} {'base':>10} {'[Q1 - Q3]':>21} {'head':>10} "
          f"{'change':>8} {'wins':>6}  verdict")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        row = summarise(values(results["base"], name), values(results["head"], name),
                        metric["better"], metric["bound"])
        print(f"  {name:<14} {row['base']:>10.4g} [{row['q1']:>9.4g} - {row['q3']:<9.4g}]"
              f" {row['head']:>10.4g} {row['change']:>+8.1%} "
              f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")

    if trace_seed is None:
        return
    traced = {name: run(side, workload, trace_seed, 1)["metrics"]
              for name, side in sides.items()}
    print(f"\n== {workload}: traced, seed {trace_seed}")
    for name in EXACT:
        before, after = traced["base"][name]["value"], traced["head"][name]["value"]
        verdict = "identical" if before == after else "DIFFERS"
        print(f"  {name:<36} {before!r:>22} {after!r:>22}  {verdict}")
    for name, metric in traced["base"].items():
        if metric["unit"] == "ms":
            after = traced["head"][name]["value"]
            print(f"  {name:<36} {metric['value']:>22.4f} {after:>22.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma list, or 'all'")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("61-70"),
                        help="e.g. 61-70 (default) or 3,5,8")
    parser.add_argument("--trace", type=int, nargs="?", const=1, metavar="SEED",
                        help="also diff the exact traced counts at SEED (default 1)")
    args = parser.parse_args(argv)
    declared = [w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    try:
        workloads = parse_workloads(args.workload, declared)
    except ValueError as exc:
        parser.error(str(exc))

    with checkout(args.base) as base:
        for workload in workloads:
            compare(base, workload, args.seeds, args.trace)
    return 0


@contextlib.contextmanager
def checkout(rev: str) -> Iterator[Path]:
    """``rev`` checked out into a temporary ``git worktree``, removed after."""
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(base), rev],
            cwd=ROOT, check=True,
        )
        try:
            yield base
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, check=True
            )


if __name__ == "__main__":
    sys.exit(main())
