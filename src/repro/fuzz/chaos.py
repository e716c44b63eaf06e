"""Chaos mode: the differential oracle under seeded fault injection.

Each case runs a generated query twice on the same database: once
fault-free (the oracle) and once under a seeded
:class:`~repro.governor.FaultPlan` — transient read errors, latency
spikes, and occasionally a persistently corrupt index.  The governor's
contract is *fail typed or answer right*: the faulted run must either

* produce exactly the oracle's rows (retries and the degrade-to-scan
  replan are invisible to the result), or
* raise a typed :class:`~repro.errors.GovernorError`.

Anything else — a wrong answer or an untyped crash — is a finding.  The
fault plan's seed and rate are part of the case, so a saved
``repro-chaos-*.json`` replays under the same faults.  Hangs are covered
by the CI per-test timeout rather than an in-process watchdog.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from repro.errors import GovernorError, ReproError
from repro.fuzz.oracle import QueryMode, _bag
from repro.fuzz.runner import Finding
from repro.governor.context import QueryContext
from repro.governor.faults import FaultPlan

#: Default transient-fault probability for a chaos sweep (the acceptance
#: bar is zero wrong answers at 5%).
DEFAULT_FAULT_RATE = 0.05


@dataclass(frozen=True)
class ChaosMode(QueryMode):
    """A case is ``(world, query, fault_seed, fault_rate)``; the fault seed
    of case ``i`` is ``seed + i``."""

    name = "chaos"
    prefix = "repro-chaos-"
    counts = (
        ("matched", "matched"),
        ("typed_failures", "typed failure(s)"),
        ("degraded", "degraded"),
    )
    fault_rate: float = DEFAULT_FAULT_RATE

    def draw(self, seed, i, world, counts):
        return (*super().draw(seed, i, world, counts), seed + i, self.fault_rate)

    def check(self, case, counts, db=None):
        """Fault-free oracle vs the same query under the case's faults."""
        world, query, fault_seed, fault_rate = case
        db = db if db is not None else self.database(world)
        text = query.render()
        try:
            reference = db.query(text, use_cache=False)
        except ReproError:
            return None  # the stack legitimately rejects the query
        ctx = QueryContext(fault_plan=FaultPlan.chaos(fault_seed, fault_rate))
        try:
            faulted = db.query(text, use_cache=False, governor=ctx)
        except GovernorError:
            counts["typed_failures"] += 1
            return []
        except Exception:  # noqa: BLE001 - an untyped crash IS the finding
            return [Finding("chaos-untyped-error", traceback.format_exc(limit=3), text)]
        if _bag(faulted.rows) != _bag(reference.rows):
            return [
                Finding(
                    "chaos-wrong-answer",
                    f"faulted run returned {len(faulted.rows)} row(s), "
                    f"oracle {len(reference.rows)}; degraded={ctx.degraded}",
                    text,
                )
            ]
        counts["matched"] += 1
        counts["degraded"] += bool(ctx.degraded)
        return []

    def encode(self, case) -> dict:
        return {**super().encode(case), "fault_seed": case[2], "fault_rate": case[3]}

    def decode(self, data: dict):
        return (*super().decode(data), data["fault_seed"], data["fault_rate"])


__all__ = ["DEFAULT_FAULT_RATE", "ChaosMode"]
