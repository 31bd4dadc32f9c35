"""Performance engineering: timing, profiling, and BENCH artifacts.

The perf subsystem closes the loop the ROADMAP's "fast as the hardware
allows" goal needs:

* :mod:`repro.perf.timer` — the deterministic warmup/repeat/median
  measurement policy (:func:`measure`, :class:`Stopwatch`), with
  injectable clocks so the statistics are unit-testable;
* :mod:`repro.perf.profile` — cProfile top-N hotspot extraction as
  structured data (:func:`profile_top`);
* :mod:`repro.perf.record` — the machine-readable ``BENCH_<id>.json``
  artifact schema every benchmark emits
  (:class:`BenchRecord`, :func:`validate_bench_record`), plus the
  append-only ``BENCH_trajectory.jsonl`` perf trajectory;
* :mod:`repro.perf.scenarios` — the ``repro perf`` sweeps measuring the
  optimized hot paths against what they replace (the numpy tiers
  against the integer references, the parallel oracle against the
  sequential one, a persistent pool against a pool per run).

See ``docs/PERFORMANCE.md`` for the methodology and the measured
before/after tables.
"""

from repro.perf.profile import ProfileLine, ProfileReport, profile_top
from repro.perf.record import (
    BENCH_FORMAT,
    BenchPhase,
    BenchRecord,
    git_revision,
    json_cell,
    utc_timestamp,
    validate_bench_record,
    write_bench_record,
)
from repro.perf.timer import Stopwatch, TimingResult, measure

__all__ = [
    "BENCH_FORMAT",
    "BenchPhase",
    "BenchRecord",
    "ProfileLine",
    "ProfileReport",
    "Stopwatch",
    "TimingResult",
    "git_revision",
    "json_cell",
    "measure",
    "profile_top",
    "utc_timestamp",
    "validate_bench_record",
    "write_bench_record",
]
