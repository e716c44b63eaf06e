"""Python and C calls per statement by function on one embedded workload,
as ``api.py_calls_per_stmt`` counts them (``worker.py --trace 1``'s counted
pass), keyed ``file qualname`` or ``<c> name``.  ``--base REV`` counts REV
too, checked out as ``compare.py`` does, and lists what moved most:
``python3 benchmarks/calls.py --workload scan_exec [--base HEAD~1] [--top 40]``
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import compare


def count(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """Calls per statement by function, on the checkout at ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    import harness, worker, workloads  # the tree's own copies
    spec = workloads.SPECS[workload]
    reference = workloads.Reference(spec, seed)
    plan = workloads.Plan(spec, seed, reference)
    reference.release()
    checker, clock = workloads.Checker(reference), harness.Clock()
    seconds = json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
    ops = max(1, round(spec.nominal_rate * seconds * worker.TRACE_SHARE / spec.block))
    quarter, calls = max(1, ops * spec.block // 4), Counter()

    class Counting(worker.tracing.CallCounter):
        @staticmethod
        def _on_event(frame, event, arg) -> None:
            if event == "call":
                code = frame.f_code
                name = getattr(code, "co_qualname", code.co_name)  # Python 3.11+
                calls[f"{Path(code.co_filename).name} {name}"] += 1
            elif event == "c_call":
                calls[f"<c> {getattr(arg, '__qualname__', arg.__name__)}"] += 1
    with tempfile.TemporaryDirectory() as workdir:
        target = worker.set_up(spec, seed, plan, workdir, checker, clock)
        target.run(quarter, None, clock, checker, worker.PassStats(), counter=Counting())
        target.close()
    return {name: calls[name] / quarter for name in calls}


def measured(tree: Path, args) -> dict[str, float]:
    """:func:`count` in a child with string hashes fixed, as ``run.py`` runs."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--tree", str(tree)]
    done = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE,
                          text=True, check=True, env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--base", help="git revision to diff against")
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree is not None:
        print(json.dumps(count(args.tree, args.workload, args.seed)))
        return 0
    head, base = measured(compare.ROOT, args), {}
    if args.base is not None:
        with compare.checkout(args.base) as checkout:
            base = measured(checkout, args)
    moved = {name: head.get(name, 0.0) - base.get(name, 0.0) for name in head.keys() | base.keys()}
    print(f"calls/stmt, change: total {sum(head.values()):,.3f} {sum(moved.values()):+,.3f}")
    for name in sorted(moved, key=lambda name: (-abs(moved[name]), name))[:args.top]:
        print(f"{head.get(name, 0.0):>12,.3f} {moved[name]:>+10,.3f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
