"""EXP-ABL-WINDOW — ablation: the assembly window size.

Table 2's rows 2-3 isolate the window's value ("restricting assembly's
window size to one ... prevents it from optimizing disk seeks").  This
bench sweeps the window over the pointer-chasing plan for Query 1 and
reports both the cost model's view and the disk simulator's measurement
of the same plan shape.
"""

import common
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C

WINDOWS = (1, 2, 4, 8, 16, 64)


def _config(window: int) -> OptimizerConfig:
    return OptimizerConfig().without(C.MAT_TO_JOIN, C.POINTER_JOIN).with_window(window)


def numbers() -> dict:
    """Per window: Query 1's full-scale estimate and Query 2's simulated
    I/O seconds on a 10%-scale store."""
    catalog = common.paper_catalog()
    db = common.exec_database(scale=0.1)
    return {
        "windows": list(WINDOWS),
        "q1_est": [
            common.optimize(catalog, common.QUERY_1, _config(w)).cost.total
            for w in WINDOWS
        ],
        "q2_sim": [
            db.query(common.QUERY_2, config=_config(w)).execution.simulated_io_seconds
            for w in WINDOWS
        ],
    }


def report(numbers: dict) -> str:
    rows = [
        [str(w), f"{est:.1f}", f"{sim:.3f}"]
        for w, est, sim in zip(numbers["windows"], numbers["q1_est"], numbers["q2_sim"])
    ]
    return common.format_table(
        ["window", "Q1 est. exec [s] (full scale)", "Q2 simulated I/O [s] (10%)"],
        rows,
        "Assembly window ablation (window 1 = naive pointer chasing).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
