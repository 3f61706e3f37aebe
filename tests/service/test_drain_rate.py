"""Unit tests for the drain-rate estimator feeding the service's
load-aware ``Retry-After``."""

from __future__ import annotations

import pytest

from repro.service.runner import DrainRateEstimator


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_drain_rate_needs_two_completions():
    clock = FakeClock()
    drain = DrainRateEstimator(clock=clock)
    assert drain.rate() == 0.0
    drain.note()
    assert drain.rate() == 0.0


def test_drain_rate_measures_completions_per_second():
    clock = FakeClock()
    drain = DrainRateEstimator(clock=clock)
    for _ in range(5):
        drain.note()
        clock.advance(0.5)  # 2 jobs/second
    assert drain.rate() == pytest.approx(2.0)


def test_drain_rate_window_forgets_ancient_history():
    clock = FakeClock()
    drain = DrainRateEstimator(window=4, clock=clock)
    drain.note()
    clock.advance(100.0)  # a long stall, then a fast burst
    for _ in range(4):
        drain.note()
        clock.advance(0.1)
    assert drain.rate() == pytest.approx(10.0)
