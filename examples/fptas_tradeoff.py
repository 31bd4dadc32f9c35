#!/usr/bin/env python
"""Algorithm 5's accuracy/time trade-off on two unrelated machines.

Sweeps eps for the FPTAS (Theorem 22) on a random ``R2|G=bipartite|Cmax``
instance and compares with the linear-time 2-approximation (Algorithm 4,
Theorem 21) and — at this size — the exact optimum.

Run:  python examples/fptas_tradeoff.py
"""

import time
from fractions import Fraction

from repro import r2_fptas, r2_two_approx
from repro.analysis.suites import random_r2_instance
from repro.analysis.tables import format_table
from repro.core.r2_reduction import reduce_r2


def main() -> None:
    inst = random_r2_instance(120, edge_probability=0.08, seed=11)
    red = reduce_r2(inst)
    print(
        f"instance: {inst.n} jobs on 2 unrelated machines, "
        f"{inst.graph.edge_count} conflicts, "
        f"{len(red.components)} components after Algorithm 3\n"
    )

    # exact optimum: Algorithm 5 with the pseudo-polynomial DP untrimmed
    t0 = time.perf_counter()
    opt = r2_fptas(inst, eps=None).makespan
    t_exact = time.perf_counter() - t0
    print(f"exact optimum: {float(opt):.3f} (DP, {t_exact * 1e3:.1f} ms)\n")

    t0 = time.perf_counter()
    s4 = r2_two_approx(inst)
    t4 = time.perf_counter() - t0

    table = [["Alg. 4 (2-approx)", float(s4.makespan), float(s4.makespan / opt), t4 * 1e3]]
    for eps in (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 50)):
        t0 = time.perf_counter()
        s = r2_fptas(inst, eps=eps)
        dt = time.perf_counter() - t0
        table.append(
            [f"Alg. 5 eps={eps}", float(s.makespan), float(s.makespan / opt), dt * 1e3]
        )
        assert s.makespan <= (1 + Fraction(eps)) * opt

    print(
        format_table(
            ["algorithm", "makespan", "ratio vs OPT", "time (ms)"],
            table,
            title="Theorem 21/22: quality vs time",
        )
    )


if __name__ == "__main__":
    main()
