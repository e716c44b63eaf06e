"""The process under test for ``served_mix``: one database, one server.

Builds the seeded database, serves it on an ephemeral port, prints
``{"port": N}`` and then obeys one-word commands on stdin, answering
each with one JSON line:

``mark``  forget the spans recorded so far (the warm-up) and report the
          plan-cache counters, so the harness can take a delta;
``stop``  stop the server and report peak RSS, plan-cache counters and,
          when tracing, the per-layer span summary (plus raw spans when
          ``--spans 1``), then exit.

With ``--trace 1`` the layer wrappers are installed here, in the child,
before the server starts; spans are shipped back only at shutdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import harness
import tracing
import workloads
from repro.server import DatabaseServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    db = workloads.build_database(workloads.SPECS["served_mix"], args.seed)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(server=True)
    server = DatabaseServer(db, port=0)
    _host, port = server.start()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    try:
        reply({"port": port})
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                del tracer.records[:]
                tracer.counts.clear()
                reply({"cache": workloads.cache_counters(db)})
            elif command == "stop":
                break
    finally:
        server.stop()
        tracer.uninstall()
    report = {
        "rss_mb": harness.peak_rss_mb(),
        "cache": workloads.cache_counters(db),
        "layers": tracer.summary(),
        "counts": dict(tracer.counts),
    }
    if args.spans:
        report["records"] = tracer.records
    reply(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
