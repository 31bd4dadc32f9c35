"""Replay the frozen corpus against every fast-path tier.

The corpus (``tests/fixtures/differential/corpus.jsonl``, regenerated
by ``regen_corpus.py``) freezes ~50 cross-kind instances together with
the makespan the reference tier produced for them.  Failures here
reproduce immediately from a committed file — no Hypothesis shrinking,
no randomness — which is exactly what you want when a kernel change
breaks equivalence.  The ``r2dp-*`` records are Algorithm 5 instances
with 150-300 jobs: auto mode builds their DP layers with the numpy step,
so comparing modes compares it with the reference dict step.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from diffutil import fastpath_mode
from repro import fastpath
from repro.engine import solve
from repro.fastpath import kernels_int, kernels_numpy
from repro.graphs import matching
from repro.graphs.bipartite import BipartiteGraph
from repro.io.serialization import instance_from_dict
from repro.scheduling import bounds, list_scheduling
from repro.scheduling.instance import UniformInstance

CORPUS = (
    Path(__file__).resolve().parents[1]
    / "fixtures"
    / "differential"
    / "corpus.jsonl"
)


def _records():
    with CORPUS.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


RECORDS = list(_records())


def test_corpus_shape():
    """The corpus stays ~50 strong and spans the v3 vocabulary."""
    assert len(RECORDS) >= 45
    tags = [r["id"] for r in RECORDS]
    for needle in (
        "uniform-bipartite",
        "uniform-complete_multipartite",
        "uniform-block",
        "eligible-",
        "unrelated-",
        "runheavy-single-group",
        "runheavy-two-group",
        "runheavy-three-group",
        "r2dp-q-",
        "r2dp-r-",
        "-unit-",
        "-mixed-",
        "-identical-",
        "-rational-",
    ):
        assert any(needle in t for t in tags), f"corpus lost its {needle} coverage"


@pytest.mark.parametrize("record", RECORDS, ids=[r["id"] for r in RECORDS])
def test_corpus_end_to_end_equivalence(record):
    """engine.solve agrees with the frozen reference makespan in every
    fast-path mode, and the assignments coincide across modes."""
    inst = instance_from_dict(record["instance"])
    expected = Fraction(record["expected_makespan"])
    outcomes = {}
    for mode in ("0", "int", None):
        with fastpath_mode(mode):
            schedule = solve(inst)
        outcomes[mode] = (list(schedule.assignment), schedule.makespan)
        assert schedule.makespan == expected, (
            f"{record['id']}: mode={mode!r} makespan {schedule.makespan} "
            f"!= frozen {expected}"
        )
        assert schedule.is_feasible() == record["feasible"]
    assert outcomes["0"] == outcomes["int"] == outcomes[None]


@pytest.mark.parametrize(
    "record",
    [r for r in RECORDS if r["instance"]["kind"] == "uniform_instance"],
    ids=[
        r["id"]
        for r in RECORDS
        if r["instance"]["kind"] == "uniform_instance"
    ],
)
def test_corpus_hot_loops_byte_identical(record):
    """The three hot loops agree tier-by-tier on every frozen instance."""
    inst = instance_from_dict(record["instance"])
    assert isinstance(inst, UniformInstance)
    jobs = list(range(inst.n))
    machines = list(range(inst.m))
    view = fastpath.int_view(inst)
    assert view.verify()

    # greedy list scheduling
    with fastpath_mode("0"):
        ref_assign = list_scheduling.assign_group_greedy(inst, jobs, machines)
    ki = kernels_int.assign_group_greedy_int(
        view.p, view.speeds_scaled, jobs, machines
    )
    assert list(ki.items()) == list(ref_assign.items())
    if kernels_numpy.numpy_available():
        kn = kernels_numpy.assign_group_greedy_numpy(
            view.p, view.speeds_scaled, jobs, machines
        )
        assert list(kn.items()) == list(ref_assign.items())

    # cover-time bounds at the instance's own demand
    demand = inst.total_p
    with fastpath_mode("0"):
        ref_cover = bounds.min_cover_time(inst.speeds, demand)
        ref_loads = bounds.min_cover_time_with_loads(
            inst.speeds, [1] * inst.m, demand
        )
    scaled, scale = fastpath.scaled_speeds(tuple(inst.speeds))
    assert kernels_int.min_cover_time_int(scaled, scale, demand) == ref_cover
    assert (
        kernels_int.min_cover_time_with_loads_int(
            scaled, scale, [1] * inst.m, demand
        )
        == ref_loads
    )
    if kernels_numpy.numpy_available() and demand > 0:
        assert (
            kernels_numpy.min_cover_time_numpy(scaled, scale, demand)
            == ref_cover
        )
        assert (
            kernels_numpy.min_cover_time_with_loads_numpy(
                scaled, scale, [1] * inst.m, demand
            )
            == ref_loads
        )

    # matching, where the graph is bipartite
    if isinstance(inst.graph, BipartiteGraph):
        with fastpath_mode("0"):
            ref_mate = matching.hopcroft_karp(inst.graph)
        assert kernels_int.hopcroft_karp_int(inst.graph) == ref_mate
        if kernels_numpy.numpy_available():
            assert kernels_numpy.hopcroft_karp_numpy(inst.graph) == ref_mate
