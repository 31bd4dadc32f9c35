"""Replay the frozen corpus against every kernel tier.

The corpus (``tests/fixtures/differential/corpus.jsonl``, regenerated
by ``regen_corpus.py``) freezes ~70 cross-kind instances together with
the makespan the shipped code produced for them.  Failures here
reproduce immediately from a committed file — no Hypothesis shrinking,
no randomness — which is exactly what you want when a kernel change
breaks equivalence.  Every record is solved with the integer
references only, with numpy wherever it fits, and at the shipped
cutoffs.  The ``r2dp-*`` records are Algorithm 5 instances with 150-300
jobs whose DP layers take the numpy step at the shipped cutoffs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from diffutil import TIERS, cover_oracle, greedy_oracle, kernel_tier
from repro.engine import solve
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
    """engine.solve agrees with the frozen makespan in every tier, and
    the assignments coincide across tiers."""
    inst = instance_from_dict(record["instance"])
    expected = Fraction(record["expected_makespan"])
    outcomes = {}
    for tier in TIERS:
        with kernel_tier(tier):
            schedule = solve(inst)
        outcomes[tier] = (list(schedule.assignment), schedule.makespan)
        assert schedule.makespan == expected, (
            f"{record['id']}: tier={tier} makespan {schedule.makespan} "
            f"!= frozen {expected}"
        )
        assert schedule.is_feasible() == record["feasible"]
    assert outcomes["reference"] == outcomes["numpy"] == outcomes["shipped"]


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
    """The greedy and cover-time loops match their definitional oracles
    in every tier on every frozen instance."""
    inst = instance_from_dict(record["instance"])
    assert isinstance(inst, UniformInstance)
    jobs = list(range(inst.n))
    machines = list(range(inst.m))
    demand = inst.total_p
    want_assign = list(greedy_oracle(inst, jobs, machines).items())
    want_cover = cover_oracle(inst.speeds, [0] * inst.m, demand)
    want_loads = cover_oracle(inst.speeds, [1] * inst.m, demand)
    for tier in TIERS:
        with kernel_tier(tier):
            assign = list_scheduling.assign_group_greedy(inst, jobs, machines)
            cover = bounds.min_cover_time(inst.speeds, demand)
            loads = bounds.min_cover_time_with_loads(
                inst.speeds, [1] * inst.m, demand
            )
        assert list(assign.items()) == want_assign, tier
        assert (cover.numerator, cover.denominator) == (
            want_cover.numerator,
            want_cover.denominator,
        ), tier
        assert loads == want_loads, tier
