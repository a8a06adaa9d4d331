"""Unit tests for the virtual clock."""

import pytest

from repro.sim.clock import SimClock


def test_starts_at_zero():
    clock = SimClock()
    assert clock.now_us == 0
    assert clock.now_seconds == 0.0


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(100)
    clock.advance(250)
    assert clock.now_us == 350


def test_fractional_microseconds_round():
    clock = SimClock()
    clock.advance(0.4)
    assert clock.now_us == 0
    clock.advance(0.6)
    assert clock.now_us == 1


def test_unit_conversions():
    clock = SimClock()
    clock.advance(1_500_000)
    assert clock.now_seconds == pytest.approx(1.5)
    assert clock.now_ms == pytest.approx(1500.0)


def test_elapsed_since():
    clock = SimClock()
    clock.advance(100)
    mark = clock.now_us
    clock.advance(42)
    assert clock.elapsed_since(mark) == 42


def test_negative_advance_rejected():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_reset():
    clock = SimClock()
    clock.advance(10)
    clock.reset()
    assert clock.now_us == 0


def test_a_new_clock_is_its_own_issuer():
    clock = SimClock()
    assert clock.issuer is clock
    assert clock.issuer.now_us == clock.now_us == 0
    assert clock.issuer.client is None
