"""Unit tests for the cost-model validator.

These bands run on a 5 % store; the golden's ``COST-*`` claim cases
(``tests/integration/test_paper_numbers.py``) pin the 10 % one. The
formulas take the store size as input, so a second scale point checks
that they track the simulator off the one size the golden records.
"""

import pytest

from repro.api import Database
from repro.optimizer.calibration import CostModelValidator


@pytest.fixture(scope="module")
def validator():
    db = Database.sample(scale=0.05)
    return CostModelValidator(db.store)


class TestMicroExperiments:
    def test_sequential_scan_tight(self, validator):
        row = validator.sequential_scan()
        assert 0.5 <= row.ratio <= 2.0

    def test_assembly_window_monotone_in_simulation(self, validator):
        w1 = validator.assembly(window=1)
        w8 = validator.assembly(window=8)
        w64 = validator.assembly(window=64)
        assert w64.simulated_io_s <= w8.simulated_io_s <= w1.simulated_io_s

    def test_bounded_assembly_formula_is_upper_boundish(self, validator):
        """The bounded formula may overestimate (it ignores intra-window
        hits) but must not underestimate by much."""
        row = validator.bounded_assembly()
        assert row.predicted_io_s >= row.simulated_io_s * 0.5

    def test_warm_start_exact(self, validator):
        row = validator.warm_start()
        assert row.ratio == pytest.approx(1.0, abs=0.25)

    def test_validate_all_covers_every_operator(self, validator):
        rows = validator.validate_all()
        names = {row.operation for row in rows}
        assert len(rows) == 7
        assert any("pointer join" in n for n in names)
        for row in rows:
            assert row.predicted_io_s > 0
            assert row.simulated_io_s > 0

    def test_ratio_degenerate_cases(self):
        from repro.optimizer.calibration import ValidationRow

        assert ValidationRow("x", 0.0, 0.0).ratio == 1.0
        assert ValidationRow("x", 1.0, 0.0).ratio == float("inf")
