"""Shared strategies and helpers for the differential-testing harness.

The strategies span the v3 instance vocabulary: every conflict-graph
kind (bipartite / complete multipartite / block), every machine kind
(identical / integer-speed / rational-speed uniform), unit and mixed
job sizes, and optional per-job eligibility masks.  Each differential
test draws from these and runs every kernel tier on the *same*
instance — the integer reference, the numpy tier, and the shipped
cutoffs that mix them — asserting byte-identical results, and where a
loop has one, against an independent definitional oracle below.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Sequence

import pytest
from hypothesis import strategies as st

from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.conflict import BlockGraph, CompleteMultipartiteGraph
from repro.scheduling import dp_unrelated
from repro.scheduling.instance import UniformInstance

#: the numpy cutoffs in :mod:`repro.scheduling.dp_unrelated` that choose
#: a tier per call
CUTOFFS = ("R2_DP_NUMPY_MIN_STATES",)

#: cutoff value per tier: ``sys.maxsize`` keeps every loop on its
#: integer reference, 1 sends every loop to numpy wherever its operands
#: fit ``int64``, and ``None`` keeps the shipped cutoffs
TIERS = {"reference": sys.maxsize, "numpy": 1, "shipped": None}


@contextmanager
def kernel_tier(tier: str) -> Iterator[None]:
    """Force ``tier`` (a key of :data:`TIERS`) by patching every cutoff."""
    value = TIERS[tier]
    with pytest.MonkeyPatch.context() as mp:
        if value is not None:
            for name in CUTOFFS:
                mp.setattr(dp_unrelated, name, value)
        yield


def greedy_oracle(
    instance: UniformInstance, jobs: Sequence[int], machines: Sequence[int]
) -> dict[int, int]:
    """Greedy list scheduling by definition, in O(n·m) exact Fractions.

    Jobs in LPT order with ties by job id; each goes to the machine with
    the least completion time ``(load + p_j) / s_i``, ties to the
    earliest position in ``machines``.  The mapping's insertion order is
    the placement order.
    """
    if not machines and jobs:
        raise InvalidInstanceError("cannot schedule jobs on an empty machine group")
    loads = {i: 0 for i in machines}
    result: dict[int, int] = {}
    for j in sorted(jobs, key=lambda j: (-instance.p[j], j)):
        best = min(
            machines,
            key=lambda i: Fraction(loads[i] + instance.p[j]) / instance.speeds[i],
        )
        loads[best] += instance.p[j]
        result[j] = best
    return result


def cover_oracle(
    speeds: Sequence[Fraction], loads: Sequence[int], demand: int
) -> Fraction:
    """``min_cover_time_with_loads`` by definition: scan every jump point.

    The least ``T >= max_i loads[i] / s_i`` with ``sum_i max(0,
    floor(s_i * T) - loads[i]) >= demand`` is the frontier itself or a
    time ``c / s_i`` where machine ``i``'s capacity jumps to
    ``c <= loads[i] + demand``; this tries all of them.
    """
    frontier = max(
        (Fraction(load) / s for load, s in zip(loads, speeds)), default=Fraction(0)
    )
    if demand <= 0:
        return frontier

    def covers(t: Fraction) -> bool:
        residual = sum(
            max(0, math.floor(s * t) - load) for s, load in zip(speeds, loads)
        )
        return residual >= demand

    candidates = [frontier] + [
        Fraction(c) / s
        for s, load in zip(speeds, loads)
        for c in range(1, load + demand + 1)
    ]
    return min(t for t in candidates if t >= frontier and covers(t))


@st.composite
def bipartite_graphs(draw: st.DrawFn, max_side: int = 8) -> BipartiteGraph:
    """Random two-sided graphs, including empty sides and no edges."""
    a = draw(st.integers(0, max_side))
    b = draw(st.integers(0, max_side))
    pairs = [(u, a + v) for u in range(a) for v in range(b)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        if pairs
        else []
    )
    return BipartiteGraph(a + b, edges, side=[0] * a + [1] * b)


@st.composite
def _partitioned(draw: st.DrawFn, max_n: int, max_parts: int) -> tuple[int, list[list[int]]]:
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, min(max_parts, n)))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    groups: list[list[int]] = [[] for _ in range(k)]
    for v, lab in enumerate(labels):
        groups[lab].append(v)
    return n, [g for g in groups if g]


@st.composite
def complete_multipartite_graphs(
    draw: st.DrawFn, max_n: int = 12, max_parts: int = 4
) -> CompleteMultipartiteGraph:
    n, parts = draw(_partitioned(max_n, max_parts))
    return CompleteMultipartiteGraph(n, parts)


@st.composite
def block_graphs(draw: st.DrawFn, max_n: int = 12, max_blocks: int = 4) -> BlockGraph:
    n, blocks = draw(_partitioned(max_n, max_blocks))
    return BlockGraph(n, blocks)


def conflict_graphs(max_n: int = 12) -> st.SearchStrategy:
    """All v3 conflict-graph kinds under one strategy."""
    return st.one_of(
        bipartite_graphs(max_side=max_n // 2),
        complete_multipartite_graphs(max_n=max_n),
        block_graphs(max_n=max_n),
    )


@st.composite
def speed_tuples(
    draw: st.DrawFn, m: int | None = None, max_m: int = 5
) -> tuple[Fraction, ...]:
    """Non-increasing positive speeds across the machine kinds."""
    if m is None:
        m = draw(st.integers(1, max_m))
    kind = draw(st.sampled_from(["identical", "integer", "rational"]))
    if kind == "identical":
        s = Fraction(draw(st.integers(1, 4)))
        return (s,) * m
    if kind == "integer":
        vals = [Fraction(draw(st.integers(1, 9))) for _ in range(m)]
    else:
        vals = [
            Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
            for _ in range(m)
        ]
    return tuple(sorted(vals, reverse=True))


@st.composite
def uniform_instances(
    draw: st.DrawFn,
    max_n: int = 12,
    max_m: int = 5,
    with_eligibility: bool = False,
) -> UniformInstance:
    """A uniform instance over any graph kind and machine kind."""
    graph = draw(conflict_graphs(max_n=max_n))
    n = graph.n
    if draw(st.booleans()):
        p = [1] * n  # the paper's p_j = 1 restriction
    else:
        p = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    speeds = draw(speed_tuples(max_m=max_m))
    eligible = None
    if with_eligibility and n and draw(st.booleans()):
        m = len(speeds)
        eligible = [
            None
            if draw(st.booleans())
            else sorted(
                draw(
                    st.sets(
                        st.integers(0, m - 1), min_size=1, max_size=m
                    )
                )
            )
            for _ in range(n)
        ]
    return UniformInstance(graph, p, speeds, eligible=eligible)


@st.composite
def greedy_cases(
    draw: st.DrawFn,
) -> tuple[UniformInstance, list[int], list[int]]:
    """(instance, job subset, non-empty machine subset) for list scheduling."""
    inst = draw(uniform_instances())
    n, m = inst.n, inst.m
    jobs = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    machines = draw(
        st.lists(st.integers(0, m - 1), unique=True, min_size=1, max_size=m)
    )
    return inst, jobs, machines


@st.composite
def run_heavy_speed_tuples(draw: st.DrawFn) -> tuple[Fraction, ...]:
    """Speeds forming few contiguous groups of equal values.

    The event-calendar greedy treats each maximal equal-speed group as
    one arithmetic progression of completion times, so the interesting
    boundaries are group switches.  This draws the edge cases directly:
    a single group (all machines equal, including m = 1) and two- or
    three-group ladders whose switch a long run must straddle.
    """
    n_groups = draw(st.sampled_from([1, 1, 2, 3]))
    values = sorted(
        draw(
            st.lists(
                st.integers(1, 6),
                min_size=n_groups,
                max_size=n_groups,
                unique=True,
            )
        ),
        reverse=True,
    )
    speeds: list[Fraction] = []
    for value in values:
        speeds.extend([Fraction(value)] * draw(st.integers(1, 3)))
    return tuple(speeds)


@st.composite
def run_heavy_uniform_instances(draw: st.DrawFn) -> UniformInstance:
    """Instances whose LPT order is dominated by long equal-``p_j`` runs.

    Few distinct job sizes with large multiplicities make the run
    lengths comparable to *n*, so the batched water-level placement in
    the kernels (not the one-job heap step) carries most of the work,
    and runs regularly span the point where the water level crosses a
    speed-group boundary.
    """
    speeds = draw(run_heavy_speed_tuples())
    n_sizes = draw(st.integers(1, 3))
    sizes = draw(
        st.lists(
            st.integers(1, 9), min_size=n_sizes, max_size=n_sizes, unique=True
        )
    )
    p: list[int] = []
    for size in sizes:
        p.extend([size] * draw(st.integers(3, 12)))
    n = len(p)
    graph = BipartiteGraph(n, [], side=[0] * n)
    return UniformInstance(graph, p, speeds)


@st.composite
def run_heavy_greedy_cases(
    draw: st.DrawFn,
) -> tuple[UniformInstance, list[int], list[int]]:
    """Run-heavy (instance, jobs, machines) triples for the greedy tiers.

    Jobs stay near-complete so the equal-``p_j`` runs survive into the
    subset; machine lists may be permuted because the position-based
    tie-break is part of the pinned contract.
    """
    inst = draw(run_heavy_uniform_instances())
    n, m = inst.n, inst.m
    jobs = list(range(n))
    if draw(st.booleans()):
        dropped = draw(st.sets(st.integers(0, n - 1), max_size=2))
        jobs = [j for j in jobs if j not in dropped]
    machines = list(range(m))
    if draw(st.booleans()):
        machines = list(draw(st.permutations(machines)))
    return inst, jobs, machines
