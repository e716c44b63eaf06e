"""EXP-T1 — Table 1: the catalog all experiments share.

Regenerates the paper's Table 1 rendering and the load-bearing constants
behind it (collection cardinalities, and the Plant population the
optimizer does not know).
"""

import common
from repro.catalog.sample_db import build_catalog

COLLECTIONS = ("Cities", "Employees", "extent(Employee)", "extent(Department)")


def numbers() -> dict:
    catalog = build_catalog()
    return {
        "describe": catalog.describe().splitlines(),
        "cardinality": {name: catalog.cardinality(name) for name in COLLECTIONS},
        "plant_population": catalog.type_population("Plant"),
    }


def report(numbers: dict) -> str:
    return common.format_table(
        headers=["(rendered by Catalog.describe)"],
        rows=[[line] for line in numbers["describe"]],
        title="Table 1. Catalog Information (reconstructed; see EXPERIMENTS.md).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
