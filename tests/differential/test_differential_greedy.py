"""Differential proof: every greedy tier equals the definitional greedy.

The contract: jobs in LPT order with ties by job id; each job goes to
the machine minimising the exact completion time, ties to the earliest
position in the ``machines`` argument.  :func:`diffutil.greedy_oracle`
states it directly as an O(n·m) argmin over exact Fractions.
Assignments are compared as ordered item lists, so even insertion order
(= placement order) must coincide.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from diffutil import (
    TIERS,
    greedy_cases,
    greedy_oracle,
    kernel_tier,
    run_heavy_greedy_cases,
)
from repro import fastpath
from repro.exceptions import InvalidInstanceError
from repro.fastpath import kernels_numpy
from repro.scheduling import list_scheduling


def _assert_tiers_match_oracle(inst, jobs, machines):
    expected = list(greedy_oracle(inst, jobs, machines).items())
    for tier in TIERS:
        with kernel_tier(tier):
            got = list_scheduling.assign_group_greedy(inst, jobs, machines)
        assert list(got.items()) == expected, tier


@given(case=greedy_cases())
def test_greedy_tiers_match_the_oracle(case):
    _assert_tiers_match_oracle(*case)


@given(case=greedy_cases())
def test_greedy_load_vectors_match(case):
    """Same per-machine loads as the oracle (redundant with byte
    equality, but failure output localises which machine diverged)."""
    inst, jobs, machines = case
    ref = greedy_oracle(inst, jobs, machines)
    with kernel_tier("numpy"):
        fast = list_scheduling.assign_group_greedy(inst, jobs, machines)
    for i in machines:
        ref_load = sum(inst.p[j] for j, mi in ref.items() if mi == i)
        fast_load = sum(inst.p[j] for j, mi in fast.items() if mi == i)
        assert ref_load == fast_load, f"machine {i} load diverged"


def test_empty_machine_group_error_matches_reference():
    """All tiers raise the same typed error on jobs with no machines."""
    from repro.graphs.bipartite import BipartiteGraph
    from repro.scheduling.instance import UniformInstance

    inst = UniformInstance(BipartiteGraph(2, [(0, 1)]), [1, 1], [1])
    for tier in TIERS:
        with kernel_tier(tier):
            with pytest.raises(InvalidInstanceError):
                list_scheduling.assign_group_greedy(inst, [0, 1], [])
            assert list_scheduling.assign_group_greedy(inst, [], []) == {}


@given(case=run_heavy_greedy_cases())
def test_run_heavy_tiers_match_the_oracle(case):
    """Long equal-p_j runs over grouped speeds — the event-calendar
    batching inputs — still match the one-job-at-a-time definition."""
    _assert_tiers_match_oracle(*case)


@given(case=run_heavy_greedy_cases())
def test_run_heavy_numpy_batch_path_matches_the_oracle(case):
    """Force the vectorized water-level batch (normally gated behind
    runs of >= _GREEDY_RUN_MIN jobs) onto hypothesis-sized runs so the
    np.lexsort placement itself is differentially tested, not just the
    heap loop."""
    inst, jobs, machines = case
    view = fastpath.int_view(inst)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels_numpy, "_GREEDY_RUN_MIN", 2)
        kn = kernels_numpy.assign_group_greedy_numpy(
            view.p, view.speeds_scaled, jobs, machines
        )
    assert list(kn.items()) == list(greedy_oracle(inst, jobs, machines).items())


def test_numpy_round_robin_closed_form_matches():
    """The single-speed unit-job closed form (the paper's p_j = 1 case)
    must equal the definition exactly, including machine order."""
    from repro.graphs.bipartite import BipartiteGraph
    from repro.scheduling.instance import UniformInstance

    n, m = 4 * fastpath.GREEDY_NUMPY_MIN_JOBS, 7
    g = BipartiteGraph(n, [], side=[0] * n)
    inst = UniformInstance(g, [1] * n, [2] * m)
    jobs = list(range(n))
    machines = [3, 0, 5, 1, 6, 2, 4]  # deliberately shuffled positions
    _assert_tiers_match_oracle(inst, jobs, machines)
