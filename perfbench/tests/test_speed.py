"""Speed probes on a logical clock: one tick stands for one second."""

import pytest

from repro.clockwork import LogicalClock

from perfbench import speed
from perfbench.speed import Speedometer


def meter_on(clock: LogicalClock, burst_ticks: list[int]) -> Speedometer:
    """A speedometer whose bursts take ``burst_ticks[0]`` ticks."""
    return Speedometer(clock=lambda: clock.now,
                       burst=lambda: clock.advance(burst_ticks[0]),
                       min_gap_s=3)


def test_factor_is_reference_over_the_median_burst(monkeypatch):
    monkeypatch.setattr(speed, "REFERENCE_S", 6)
    clock = LogicalClock()
    burst_ticks = [2]
    meter = meter_on(clock, burst_ticks)
    for ticks in (2, 3, 30):            # one slow outlier
        burst_ticks[0] = ticks
        meter.probe(force=True)
    assert meter.bursts == [2, 3, 30]
    assert meter.factor() == pytest.approx(2)


def test_probe_skips_right_after_a_burst_unless_forced():
    clock = LogicalClock()
    meter = meter_on(clock, [1])
    meter.probe()
    meter.probe()
    assert len(meter.bursts) == 1
    meter.probe(2, force=True)
    assert len(meter.bursts) == 3
    clock.advance(3)
    meter.probe()
    assert len(meter.bursts) == 4


def test_no_probe_no_factor():
    with pytest.raises(ValueError):
        meter_on(LogicalClock(), [1]).factor()


def test_the_kernel_is_deterministic():
    assert speed.kernel() == speed.kernel()
