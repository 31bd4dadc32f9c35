"""Differential proof: the greedy list scheduler equals the definition.

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

from diffutil import greedy_cases, greedy_oracle, run_heavy_greedy_cases
from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling import list_scheduling
from repro.scheduling.instance import UniformInstance


def _assert_matches_oracle(inst, jobs, machines):
    expected = list(greedy_oracle(inst, jobs, machines).items())
    got = list_scheduling.assign_group_greedy(inst, jobs, machines)
    assert list(got.items()) == expected


@given(case=greedy_cases())
def test_greedy_matches_the_oracle(case):
    _assert_matches_oracle(*case)


@given(case=greedy_cases())
def test_greedy_load_vectors_match(case):
    """Same per-machine loads as the oracle (redundant with byte
    equality, but failure output localises which machine diverged)."""
    inst, jobs, machines = case
    ref = greedy_oracle(inst, jobs, machines)
    got = list_scheduling.assign_group_greedy(inst, jobs, machines)
    for i in machines:
        ref_load = sum(inst.p[j] for j, mi in ref.items() if mi == i)
        got_load = sum(inst.p[j] for j, mi in got.items() if mi == i)
        assert ref_load == got_load, f"machine {i} load diverged"


def test_empty_machine_group_raises_typed_error():
    inst = UniformInstance(BipartiteGraph(2, [(0, 1)]), [1, 1], [1])
    with pytest.raises(InvalidInstanceError):
        list_scheduling.assign_group_greedy(inst, [0, 1], [])
    assert list_scheduling.assign_group_greedy(inst, [], []) == {}


@given(case=run_heavy_greedy_cases())
def test_run_heavy_cases_match_the_oracle(case):
    """Long equal-p_j runs over grouped speeds — the event-calendar
    batching inputs — still match the one-job-at-a-time definition."""
    _assert_matches_oracle(*case)


def test_round_robin_unit_jobs_match():
    """Unit jobs on one speed (the paper's p_j = 1 case) go round-robin
    over the machine list, exactly as the definition places them,
    including machine order."""
    n, m = 4096, 7
    g = BipartiteGraph(n, [], side=[0] * n)
    inst = UniformInstance(g, [1] * n, [2] * m)
    jobs = list(range(n))
    machines = [3, 0, 5, 1, 6, 2, 4]  # deliberately shuffled positions
    _assert_matches_oracle(inst, jobs, machines)
