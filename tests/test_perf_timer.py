"""The timing harness: deterministic statistics under injected clocks."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidInstanceError
from repro.perf import measure


class FakeClock:
    """A monotone clock advancing by a scripted step per reading."""

    def __init__(self, steps):
        self.steps = iter(steps)
        self.now = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += next(self.steps, 0.0)
        return value


def test_measure_median_is_deterministic_under_fake_clocks():
    # clock readings come in (start, stop) pairs: deltas 5, 1, 3 seconds
    wall = FakeClock([5.0, 0.0, 1.0, 0.0, 3.0, 0.0])
    cpu = FakeClock([0.5, 0.0, 0.1, 0.0, 0.3, 0.0])
    calls = []
    result = measure(
        calls.append,
        "x",
        repeat=3,
        warmup=2,
        wall_clock=wall,
        cpu_clock=cpu,
    )
    assert len(calls) == 5  # 2 warmup + 3 timed
    assert result.wall_times_s == (5.0, 1.0, 3.0)
    assert result.median_s == 3.0
    assert result.min_s == 1.0
    assert result.mean_s == pytest.approx(3.0)
    assert result.cpu_median_s == pytest.approx(0.3)


def test_measure_fixed_repeat_counts_and_value():
    result = measure(sorted, [3, 1, 2], repeat=4, warmup=0)
    assert result.repeat == 4
    assert len(result.wall_times_s) == 4
    assert len(result.cpu_times_s) == 4
    assert result.value == [1, 2, 3]
    assert result.warmup == 0
    assert result.label == "sorted"


def test_measure_rejects_bad_policy():
    with pytest.raises(InvalidInstanceError):
        measure(lambda: None, repeat=0)
    with pytest.raises(InvalidInstanceError):
        measure(lambda: None, warmup=-1)


def test_timing_result_to_phase():
    wall = FakeClock([2.0, 0.0])
    cpu = FakeClock([1.0, 0.0])
    result = measure(
        lambda: None, repeat=1, warmup=0, wall_clock=wall, cpu_clock=cpu
    )
    phase = result.to_phase(name="solve", size={"n": 7}, ratio=1.5)
    assert phase.name == "solve"
    assert phase.wall_time_s == 2.0
    assert phase.cpu_time_s == 1.0
    assert phase.repeat == 1
    assert phase.size == {"n": 7}
    assert phase.ratio == 1.5
