"""EXP-COST-VALIDATION — cost formulas vs the operational executor.

The validation the paper defers ("we delay validating and refining
assembly's cost function until the query plan executor becomes
operational"): each I/O cost formula is a closed-form approximation of
the simulator's emergent behaviour (buffer hits, elevator dedup, head
position); this bench measures how closely they track.
"""

import common
from repro.optimizer.calibration import CostModelValidator


def numbers() -> dict:
    """Per operator micro-experiment at 10% scale: the formula's and the
    simulator's I/O seconds, and their ratio."""
    db = common.exec_database(scale=0.1)
    return {
        row.operation: {
            "formula": row.predicted_io_s,
            "simulated": row.simulated_io_s,
            "ratio": row.ratio,
        }
        for row in CostModelValidator(db.store).validate_all()
    }


def report(numbers: dict) -> str:
    table = [
        [
            operation,
            f"{row['formula']:.3f}",
            f"{row['simulated']:.3f}",
            f"{row['ratio']:.2f}x",
        ]
        for operation, row in numbers.items()
    ]
    return common.format_table(
        ["operator micro-experiment", "formula [s]", "simulated [s]", "formula/sim"],
        table,
        "Cost-formula validation against the executor (10% scale).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
