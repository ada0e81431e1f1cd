"""Tests for repro.util.clock."""

import pytest

from repro.errors import DisclosureError
from repro.util.clock import LogicalClock, SystemClock


class TestLogicalClock:
    def test_starts_at_zero(self):
        assert LogicalClock().now() == 0.0

    def test_custom_start(self):
        assert LogicalClock(start=10).now() == 10.0

    def test_strictly_increasing(self):
        clock = LogicalClock()
        samples = [clock.now() for _ in range(100)]
        assert all(b > a for a, b in zip(samples, samples[1:]))

    def test_independent_instances(self):
        a, b = LogicalClock(), LogicalClock()
        a.now()
        a.now()
        assert b.now() == 0.0


class TestSystemClock:
    def test_returns_float(self):
        assert isinstance(SystemClock().now(), float)

    def test_non_decreasing(self):
        clock = SystemClock()
        samples = [clock.now() for _ in range(50)]
        assert all(b >= a for a, b in zip(samples, samples[1:]))


class TestAdvancePast:
    def test_next_reading_exceeds_the_bound(self):
        clock = LogicalClock()
        clock.advance_past(100.0)
        assert clock.now() == 101.0
        assert clock.now() == 102.0

    def test_never_moves_back(self):
        clock = LogicalClock(start=50)
        clock.advance_past(10.0)
        assert clock.now() == 50.0

    def test_advances_in_place_for_every_holder(self):
        clock = LogicalClock()
        holder = clock
        clock.advance_past(7.5)
        assert holder.now() == 8.0

    def test_a_wall_clock_refuses(self):
        with pytest.raises(DisclosureError, match="SystemClock"):
            SystemClock().advance_past(7.5)
