"""End-to-end differential: solver and oracle behave identically with
the integer references only, with numpy wherever it fits, and at the
shipped cutoffs.

The hot-loop tests prove kernel equivalence in isolation; these prove
the *composition* — ranked dispatch, the paper algorithms, and the
branch-and-bound oracle all sit on top of the hot loops, so any
divergence the unit-level tests missed (wiring, caching, cutoff
handling) surfaces here as a schedule or node-count mismatch.  At
hypothesis sizes the shipped cutoff keeps the R2 DP on its integer
reference; the ``numpy`` tier is what runs its numpy kernel inside
``solve`` and ``certified_optimal``.
"""

from __future__ import annotations

from hypothesis import given, settings

from diffutil import TIERS, kernel_tier, uniform_instances
from repro.certify.oracle import certified_optimal
from repro.engine import solve
from repro.exceptions import ReproError


@given(inst=uniform_instances(max_n=10, max_m=4, with_eligibility=True))
def test_solve_identical_across_tiers(inst):
    outcomes = {}
    for tier in TIERS:
        with kernel_tier(tier):
            try:
                schedule = solve(inst)
            except ReproError as exc:
                outcomes[tier] = ("raise", type(exc).__name__)
            else:
                outcomes[tier] = (
                    list(schedule.assignment),
                    schedule.makespan,
                    schedule.is_feasible(),
                )
    assert outcomes["reference"] == outcomes["numpy"] == outcomes["shipped"]


@settings(max_examples=15)
@given(inst=uniform_instances(max_n=7, max_m=3))
def test_oracle_identical_across_tiers(inst):
    """The exact oracle: same makespan, same schedule, same node count —
    the bound it prunes with is a tiered hot loop, so a kernel that
    returned a different (even if also-correct) bound would change the
    search tree and show up in ``nodes``."""
    outcomes = {}
    for tier in TIERS:
        with kernel_tier(tier):
            try:
                result = certified_optimal(inst)
            except ReproError as exc:
                outcomes[tier] = ("raise", type(exc).__name__)
            else:
                outcomes[tier] = (
                    result.makespan,
                    list(result.schedule.assignment),
                    result.nodes,
                    result.proof,
                    result.seeded_from,
                )
    assert outcomes["reference"] == outcomes["numpy"] == outcomes["shipped"]
