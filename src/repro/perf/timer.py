"""Deterministic timing: warmup + repeat + median, injectable clocks.

The policy every measurement in this repo follows (documented in
``docs/PERFORMANCE.md``):

* **warmup** runs are executed and discarded (they pay for imports,
  allocator warmup, and branch caches);
* **repeat** timed runs follow; the reported figure is their **median**
  wall clock (robust against scheduler noise, unlike the mean);
* CPU time is recorded alongside wall time so cache stalls and
  subprocess waits are distinguishable from compute.

Clocks are injectable (``wall_clock=``/``cpu_clock=``), which is what
makes the harness *testable*: the unit tests drive :func:`measure` with
a fake monotone clock and assert the exact medians, so the statistics
pipeline itself is verified deterministically.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import InvalidInstanceError
from repro.perf.record import BenchPhase

__all__ = ["TimingResult", "measure"]


@dataclass(frozen=True)
class TimingResult:
    """The outcome of one :func:`measure` call.

    Parameters
    ----------
    label:
        Human-readable name of the measured callable.
    warmup, repeat:
        The policy the measurement ran under.
    wall_times_s, cpu_times_s:
        Per-repeat samples, in execution order (length ``repeat``).
    value:
        The measured callable's return value from the *last* timed run
        (so callers can assert result correctness without re-running).
    """

    label: str
    warmup: int
    repeat: int
    wall_times_s: tuple[float, ...]
    cpu_times_s: tuple[float, ...]
    value: Any

    @property
    def median_s(self) -> float:
        """Median wall-clock seconds (the headline figure)."""
        return statistics.median(self.wall_times_s)

    @property
    def cpu_median_s(self) -> float:
        """Median CPU seconds."""
        return statistics.median(self.cpu_times_s)

    @property
    def min_s(self) -> float:
        """Fastest wall-clock repeat."""
        return min(self.wall_times_s)

    @property
    def mean_s(self) -> float:
        """Mean wall-clock seconds (reported, never the headline)."""
        return statistics.fmean(self.wall_times_s)

    def to_phase(
        self,
        name: str | None = None,
        size: dict[str, Any] | None = None,
        ratio: float | None = None,
    ) -> BenchPhase:
        """This measurement as a :class:`~repro.perf.record.BenchPhase`."""
        return BenchPhase(
            name=name or self.label,
            wall_time_s=self.median_s,
            cpu_time_s=self.cpu_median_s,
            repeat=self.repeat,
            size=size or {},
            ratio=ratio,
        )


def measure(
    fn: Callable[..., Any],
    *args: Any,
    repeat: int = 5,
    warmup: int = 1,
    label: str | None = None,
    wall_clock: Callable[[], float] = time.perf_counter,
    cpu_clock: Callable[[], float] = time.process_time,
    **kwargs: Any,
) -> TimingResult:
    """Time ``fn(*args, **kwargs)`` under the warmup/repeat/median policy.

    Parameters
    ----------
    fn:
        The callable to measure.
    *args, **kwargs:
        Forwarded to ``fn`` on every run.
    repeat:
        Number of timed runs (must be >= 1); the reported figure is
        their median.
    warmup:
        Number of discarded runs before timing starts (must be >= 0).
    label:
        Name for reports; defaults to ``fn.__name__``.
    wall_clock, cpu_clock:
        Clock callables returning seconds.  Injectable so tests can
        verify the statistics deterministically with fake clocks.

    Returns
    -------
    TimingResult
        Per-repeat samples plus the last run's return value.

    Raises
    ------
    repro.exceptions.InvalidInstanceError
        If ``repeat < 1`` or ``warmup < 0``.

    Examples
    --------
    >>> timing = measure(sorted, [3, 1, 2], repeat=3, warmup=1)
    >>> timing.value
    [1, 2, 3]
    >>> timing.repeat, len(timing.wall_times_s)
    (3, 3)
    """
    if repeat < 1:
        raise InvalidInstanceError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise InvalidInstanceError(f"warmup must be >= 0, got {warmup}")
    name = label or getattr(fn, "__name__", "callable")
    for _ in range(warmup):
        fn(*args, **kwargs)
    walls: list[float] = []
    cpus: list[float] = []
    value: Any = None
    for _ in range(repeat):
        cpu0 = cpu_clock()
        wall0 = wall_clock()
        value = fn(*args, **kwargs)
        walls.append(wall_clock() - wall0)
        cpus.append(cpu_clock() - cpu0)
    return TimingResult(
        label=name,
        warmup=warmup,
        repeat=repeat,
        wall_times_s=tuple(walls),
        cpu_times_s=tuple(cpus),
        value=value,
    )
