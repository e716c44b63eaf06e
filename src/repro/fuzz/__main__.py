"""CLI for the fuzz harness.

::

    PYTHONPATH=src python -m repro.fuzz --seed 0 --iterations 200
    PYTHONPATH=src python -m repro.fuzz --dml --seed 7 --iterations 40 \\
        --write-corpus --corpus tests/corpus

``--dml``, ``--crash`` and ``--chaos`` pick the oracle (default: the
differential plan oracle); passing an option the chosen oracle does not
read is an error.  Exit status 0 when no case found anything, 1 when any
did (repros written when requested).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields

from repro.fuzz import MODES, ChaosMode, CrashMode, DmlMode, PlanMode, fuzz, summary


def main(argv: list[str] | None = None) -> int:
    """Parse CLI arguments, run the chosen mode, print a summary."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Seeded fuzzing: the differential plan oracle, or one "
        "of its DML, crash and chaos modes.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument(
        "--queries-per-world",
        type=int,
        default=None,
        help="queries drawn from each generated world (plan and --chaos; "
        "default 5)",
    )
    parser.add_argument(
        "--corpus",
        default="tests/corpus",
        help="directory for failing repros (with --write-corpus)",
    )
    parser.add_argument(
        "--write-corpus",
        action="store_true",
        help="shrink failures and save them under --corpus",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimization of failing cases",
    )
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument(
        "--dml",
        dest="mode",
        action="store_const",
        const=DmlMode,
        help="run the DML-interleaved oracle: the same seeded write "
        "batch under every engine configuration must produce "
        "byte-identical transcripts (reads, counts, typed errors)",
    )
    parser.add_argument(
        "--ops-per-batch",
        type=int,
        default=None,
        help="DML statements per batch for --dml and --crash (default 8)",
    )
    modes.add_argument(
        "--crash",
        dest="mode",
        action="store_const",
        const=CrashMode,
        help="run the crash-recovery oracle: a seeded DML workload is "
        "killed at a seeded crash point, recovered from disk, and must "
        "byte-match a clean engine that executed exactly the "
        "acknowledged-commit prefix",
    )
    modes.add_argument(
        "--chaos",
        dest="mode",
        action="store_const",
        const=ChaosMode,
        help="run the oracle under seeded fault injection: every case "
        "must match the fault-free run or fail with a typed governor "
        "error",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        help="transient-fault probability for --chaos (default 0.05)",
    )
    parser.add_argument(
        "--no-rewrites",
        action="store_true",
        help="run the whole sweep with the pre-memo rewrite stage "
        "disabled on the reference database (rewrite-ablation config)",
    )
    parser.add_argument(
        "--feedback",
        action="store_true",
        help="run the whole sweep with cardinality feedback enabled on "
        "the reference database (fed estimates and mid-query adaptive "
        "replans in every pair)",
    )
    parser.add_argument("--quiet", action="store_true")
    parser.set_defaults(mode=PlanMode)
    args = parser.parse_args(argv)

    # A mode's dataclass fields are the options it reads.
    reads = {f.name for f in fields(args.mode)}
    options = {}
    for name in sorted({f.name for mode in MODES.values() for f in fields(mode)}):
        value = getattr(args, name)
        if value is None or value is False:
            continue
        if name not in reads:
            flag = "--" + name.replace("_", "-")
            parser.error(f"{flag} does not apply to the {args.mode.name} oracle")
        options[name] = value
    mode = args.mode(**options)

    started = time.perf_counter()
    stats = fuzz(
        mode,
        seed=args.seed,
        iterations=args.iterations,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus if args.write_corpus else None,
        log=None if args.quiet else print,
    )
    print(f"{summary(mode, stats)} in {time.perf_counter() - started:.1f}s")
    for finding in stats.findings:
        print(f"  {finding}")
    for path in stats.repro_paths:
        print(f"  repro: {path}")
    return 0 if stats.ok else 1


if __name__ == "__main__":
    sys.exit(main())
