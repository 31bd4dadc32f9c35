"""E5 — Algorithm 4 / Theorem 21: 2-approximation on two unrelated machines.

Regenerates: measured ratio vs the exact DP optimum across instance sizes
and conflict densities, plus the O(n) runtime scaling claim.
"""

import numpy as np
import pytest

from repro.analysis.ratio import collect_ratio_stats
from repro.analysis.suites import random_r2_instance
from repro.analysis.tables import format_table
from repro.core.r2_fptas import r2_fptas
from repro.core.r2_two_approx import r2_two_approx

from benchmarks._common import emit_record, emit_table


def exact_optimum(instance):
    """Exact optimum: Algorithm 5 with the DP untrimmed."""
    return r2_fptas(instance, eps=None).makespan


def test_e5_ratio_table(benchmark):
    def build():
        rows = []
        rng = np.random.default_rng(50)
        for n in (20, 60, 150):
            for density in (0.05, 0.2, 0.5):
                ratios = []
                for _ in range(6):
                    inst = random_r2_instance(
                        n, edge_probability=density, seed=int(rng.integers(1 << 30))
                    )
                    s = r2_two_approx(inst)
                    opt = exact_optimum(inst)
                    ratio = float(s.makespan / opt)
                    assert s.makespan <= 2 * opt  # Theorem 21
                    ratios.append(ratio)
                stats = collect_ratio_stats(ratios)
                rows.append([n, density, stats.mean, stats.maximum])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    cols = ["n jobs", "edge density", "mean ratio", "max ratio"]
    emit_table(
        "E5_r2_two_approx",
        format_table(
            cols,
            rows,
            title="E5 (Thm 21): Algorithm 4 vs exact optimum (bound: 2)",
        ),
    )
    emit_record("E5_r2_two_approx", cols, rows)


@pytest.mark.parametrize("n", [50, 200, 800, 3200])
def test_e5_linear_time_scaling(benchmark, n):
    """Theorem 21 claims O(n); the per-size medians should scale ~linearly."""
    inst = random_r2_instance(n, edge_probability=min(0.2, 20.0 / n), seed=51)
    s = benchmark(lambda: r2_two_approx(inst))
    assert s.is_feasible()
