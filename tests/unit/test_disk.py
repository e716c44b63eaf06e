"""Unit tests for the disk simulator's timing model."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.storage.disk import DiskParameters, DiskSimulator

# Unequal, non-round timings: an addition done in another order shows.
_MS = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


class TestDiskParameters:
    def test_sequential_is_transfer_only(self):
        params = DiskParameters()
        assert params.sequential_read_ms == params.transfer_ms

    def test_random_default_uses_expected_seek(self):
        params = DiskParameters()
        expected = (
            params.transfer_ms
            + params.rotational_ms
            + params.full_stroke_seek_ms * 2 / 3
        )
        assert params.random_read_ms(10_000) == pytest.approx(expected)

    def test_seek_grows_with_distance(self):
        params = DiskParameters()
        near = params.random_read_ms(10_000, distance=10)
        far = params.random_read_ms(10_000, distance=9_000)
        assert near < far

    def test_distance_capped_at_span(self):
        params = DiskParameters()
        at_span = params.random_read_ms(100, distance=100)
        beyond = params.random_read_ms(100, distance=1_000)
        assert at_span == pytest.approx(beyond)


class TestDiskSimulator:
    def test_sequential_run_is_cheap(self):
        disk = DiskSimulator(span_pages=1000)
        total = sum(disk.read(p) for p in range(100))
        # First read seeks (page 0 is adjacent to initial head), rest stream.
        assert total == pytest.approx(100 * disk.params.transfer_ms)
        assert disk.stats.sequential_reads == 100

    def test_random_jumps_cost_more(self):
        disk = DiskSimulator(span_pages=1000)
        seq = DiskSimulator(span_pages=1000)
        random_cost = sum(disk.read(p) for p in (900, 5, 700, 13, 450))
        seq_cost = sum(seq.read(p) for p in range(5))
        assert random_cost > 3 * seq_cost
        assert disk.stats.random_reads == 5

    def test_rereading_same_page_is_sequential(self):
        disk = DiskSimulator(span_pages=1000)
        disk.read(500)
        cost = disk.read(500)
        assert cost == disk.params.sequential_read_ms

    def test_elapsed_accumulates(self):
        disk = DiskSimulator(span_pages=1000)
        for page in (1, 999, 2):
            disk.read(page)
        assert disk.elapsed_seconds == pytest.approx(
            disk.stats.elapsed_ms / 1000.0
        )
        assert disk.stats.page_reads == 3

    def test_reset_stats(self):
        disk = DiskSimulator(span_pages=100)
        disk.read(50)
        disk.reset_stats()
        assert disk.stats.page_reads == 0
        assert disk.elapsed_seconds == 0.0

    def test_extend_span_monotonic(self):
        disk = DiskSimulator()
        disk.extend_span(500)
        disk.extend_span(100)
        assert disk.span_pages == 500

    def test_elevator_order_beats_random_order(self):
        """Sorted (elevator) access over the same pages costs less —
        the physical basis of the assembly window discount."""
        pages = [7, 900, 340, 12, 660, 88, 501, 230]
        elevator = DiskSimulator(span_pages=1000)
        for page in sorted(pages):
            elevator.read(page)
        random_order = DiskSimulator(span_pages=1000)
        for page in pages:
            random_order.read(page)
        assert elevator.stats.elapsed_ms < random_order.stats.elapsed_ms


@given(
    params=st.builds(
        DiskParameters, transfer_ms=_MS, rotational_ms=_MS, full_stroke_seek_ms=_MS
    ),
    span=st.integers(min_value=1, max_value=5_000),
    head=st.integers(min_value=0, max_value=12_000),
    page=st.integers(min_value=0, max_value=12_000),
)
@example(params=DiskParameters(), span=1, head=7, page=7)  # distance 0, span 1
@example(params=DiskParameters(), span=1, head=7, page=8)  # distance 1
@example(params=DiskParameters(), span=1, head=7, page=9)  # distance 2 > span
@example(params=DiskParameters(), span=100, head=50, page=48)  # distance 2
@example(params=DiskParameters(), span=100, head=0, page=100)  # distance == span
@example(params=DiskParameters(), span=100, head=9, page=5_000)  # beyond span
def test_simulator_charges_exactly_what_the_parameters_define(params, span, head, page):
    """The cost model and the simulator share one seek curve, bit for bit."""
    distance = abs(page - head)
    expected = (
        params.sequential_read_ms
        if distance <= 1
        else params.random_read_ms(span, distance)
    )
    for move in (DiskSimulator.read, DiskSimulator.write):
        disk = DiskSimulator(params=params, span_pages=span, _head=head)
        assert move(disk, page) == expected
        assert disk.stats.elapsed_ms == expected
        assert disk._head == page
