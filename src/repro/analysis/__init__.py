"""Experiment infrastructure: ratio measurement, speed-sequence probes,
plain-text table rendering, and the named instance suites every benchmark
draws from (so results are comparable across experiments)."""

from repro.analysis.ratio import RatioStats, ratio_of, collect_ratio_stats
from repro.analysis.tables import format_table, render_number
from repro.analysis.gantt import render_gantt, render_schedule_summary
from repro.analysis.perf_trend import (
    load_bench_records,
    perf_trend_rows,
    perf_trend_table,
    phase_table,
)
from repro.analysis.speed_probe import (
    ProbeResult,
    worst_ratio_exhaustive,
    worst_ratio_sampled,
)
from repro.analysis.suites import (
    standard_graph_families,
    job_weight_profile,
    speed_profile_suite,
    random_r2_instance,
    standard_uniform_suite,
)

__all__ = [
    "RatioStats",
    "ratio_of",
    "collect_ratio_stats",
    "format_table",
    "render_number",
    "render_gantt",
    "render_schedule_summary",
    "ProbeResult",
    "worst_ratio_exhaustive",
    "worst_ratio_sampled",
    "load_bench_records",
    "perf_trend_rows",
    "perf_trend_table",
    "phase_table",
    "standard_graph_families",
    "job_weight_profile",
    "speed_profile_suite",
    "random_r2_instance",
    "standard_uniform_suite",
]
