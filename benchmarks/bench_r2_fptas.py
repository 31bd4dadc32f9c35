"""E6 — Algorithm 5 / Theorem 22: the FPTAS for R2|G=bipartite|Cmax.

Regenerates: the eps sweep (ratio vs the (1+eps) guarantee, runtime vs
1/eps) and the fidelity check between the paper's 2T-sentinel encoding and
native machine pinning.
"""

import time
from fractions import Fraction

import pytest

from repro.analysis.suites import random_r2_instance
from repro.analysis.tables import format_table
from repro.core.r2_fptas import r2_fptas

from benchmarks._common import emit_record, emit_table

EPS_SWEEP = (2, 1, Fraction(1, 2), Fraction(1, 5), Fraction(1, 20), Fraction(1, 100))


def exact_optimum(instance):
    """Exact optimum: Algorithm 5 with the DP untrimmed."""
    return r2_fptas(instance, eps=None).makespan


def test_e6_eps_sweep(benchmark):
    def build():
        inst = random_r2_instance(160, edge_probability=0.05, seed=60)
        opt = exact_optimum(inst)
        rows = []
        for eps in EPS_SWEEP:
            t0 = time.perf_counter()
            s = r2_fptas(inst, eps=eps)
            dt = (time.perf_counter() - t0) * 1e3
            ratio = float(s.makespan / opt)
            assert s.makespan <= (1 + Fraction(eps)) * opt  # Theorem 22
            rows.append([str(eps), float(1 + Fraction(eps)), ratio, dt])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    cols = ["eps", "guarantee", "measured ratio", "time (ms)"]
    emit_table(
        "E6_r2_fptas",
        format_table(
            cols,
            rows,
            title="E6 (Thm 22): Algorithm 5 accuracy/time trade-off",
        ),
    )
    emit_record("E6_r2_fptas", cols, rows)


def test_e6_sentinel_vs_pinned(benchmark):
    def build():
        rows = []
        for seed in range(6):
            inst = random_r2_instance(60, edge_probability=0.1, seed=100 + seed)
            opt = exact_optimum(inst)
            pinned = r2_fptas(inst, eps=Fraction(1, 3)).makespan
            sentinel = r2_fptas(
                inst, eps=Fraction(1, 3), use_sentinel_times=True
            ).makespan
            assert pinned <= Fraction(4, 3) * opt
            assert sentinel <= Fraction(4, 3) * opt
            rows.append([seed, float(opt), float(pinned), float(sentinel)])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    cols = ["seed", "optimum", "pinned jobs", "2T sentinel"]
    emit_table(
        "E6_sentinel_fidelity",
        format_table(
            cols,
            rows,
            title="E6: the paper's 2T sentinel encoding matches native pinning",
        ),
    )
    emit_record("E6_sentinel_fidelity", cols, rows)


@pytest.mark.parametrize("eps", [1, Fraction(1, 10)])
def test_e6_fptas_speed(benchmark, eps):
    inst = random_r2_instance(120, edge_probability=0.08, seed=61)
    s = benchmark(lambda: r2_fptas(inst, eps=eps))
    assert s.is_feasible()
