"""Differential proof: the numpy R2 DP step builds the dict step's layers.

``solve_r2_dp`` (Algorithm 5's two-machine engine) builds each DP layer
with the reference dict step, or with the numpy step ``_layer_numpy``
once a layer holds ``R2_DP_NUMPY_MIN_STATES`` states and the packed sort
key fits ``int64``.  The dict's tie-breaks are the contract: the first strictly
smaller ``l2`` wins a bucket, buckets keep the order of their first
candidate, and the final pick is the first minimal ``max(l1, l2)`` in
that order.  The tests lower the cutoff to 1 so every layer takes the
numpy step, and require the whole :class:`DPResult` — makespan and
assignment, down to the Python types — to equal the reference-tier
result, where the cutoff is ``sys.maxsize`` and every layer takes the
dict step.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diffutil import kernel_tier
from repro.exceptions import InfeasibleInstanceError
from repro.scheduling import dp_unrelated
from repro.scheduling.dp_unrelated import DPResult, solve_r2_dp

#: an entry no int64 holds: a job pinned to it pushes the prune bound
#: past 2**63, so every layer must fall back to the dict step
HUGE = 2**63 + 5


@st.composite
def r2_rows(draw: st.DrawFn) -> list[list[int | Fraction | None]]:
    """Two-row time matrices: ints, rationals, zeros and ``None`` pins."""
    n = draw(st.integers(1, 14))
    entry = st.one_of(
        st.integers(0, 40),
        st.fractions(min_value=0, max_value=40, max_denominator=6),
        st.just(0),
    )
    rows: list[list[int | Fraction | None]] = [
        [draw(entry) for _ in range(n)] for _ in range(2)
    ]
    for j in range(n):
        if draw(st.integers(0, 4)) == 0:
            rows[draw(st.integers(0, 1))][j] = None
    if draw(st.integers(0, 5)) == 0:
        j = draw(st.integers(0, n - 1))
        machine = draw(st.integers(0, 1))
        rows[machine][j] = HUGE
        rows[1 - machine][j] = None
    return rows


eps_values = st.one_of(
    st.sampled_from([None, 1, Fraction(1, 10)]),
    st.fractions(min_value=Fraction(1, 40), max_value=3, max_denominator=40),
)


def _reference(rows, eps) -> DPResult:
    with kernel_tier("reference"):
        return solve_r2_dp(rows, eps=eps)


def _numpy_every_layer(rows, eps) -> DPResult:
    with kernel_tier("numpy"):
        return solve_r2_dp(rows, eps=eps)


def _assert_identical(fast: DPResult, ref: DPResult) -> None:
    assert fast == ref
    assert type(fast.makespan) is Fraction
    assert all(type(machine) is int for machine in fast.assignment)


@given(rows=r2_rows(), eps=eps_values)
def test_numpy_step_matches_reference(rows, eps):
    _assert_identical(_numpy_every_layer(rows, eps), _reference(rows, eps))


@st.composite
def layers(draw: st.DrawFn) -> tuple:
    """One step's inputs, loads near the prune bound and times around it."""
    prune = draw(st.integers(0, 60))
    k = draw(st.integers(1, 30))
    loads = st.lists(st.integers(0, prune), min_size=k, max_size=k)
    time = st.one_of(st.none(), st.integers(0, prune + 3))
    return (
        draw(loads),
        draw(loads),
        draw(time),
        draw(time),
        draw(st.integers(1, 6)),
        prune,
    )


@given(args=layers())
@example(args=([0, 2], [3, 0], 7, 5, 1, 7))  # a time equal to the bound
@example(args=([0, 2], [3, 0], 5, 7, 1, 7))  # candidates landing on it
def test_one_step_matches_the_dict_step(args):
    """Step against step, including candidates exactly at the bound."""
    expected = dp_unrelated._layer_python(*args)
    got = dp_unrelated._layer_numpy(*args)
    assert [part.tolist() for part in got] == [list(part) for part in expected]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("eps", [None, 1, Fraction(1, 10)])
def test_large_layers_match_reference(seed, eps):
    """Realistic sizes: hundreds of states per layer, many bucket clashes."""
    rng = random.Random(seed)
    n = 60
    rows = [
        [Fraction(rng.randint(1, 60), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(2)
    ]
    rows[0][n - 2], rows[1][n - 1] = None, None  # Algorithm 5's pinned jobs
    calls = []
    real_step = dp_unrelated._layer_numpy

    def counting_step(*args):
        calls.append(len(args[0]))
        return real_step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp_unrelated, "_layer_numpy", counting_step)
        fast = solve_r2_dp(rows, eps=eps)
    assert calls and min(calls) >= dp_unrelated.R2_DP_NUMPY_MIN_STATES
    _assert_identical(fast, _reference(rows, eps))


def test_layers_below_the_cutoff_never_enter_the_numpy_step():
    def refuse(*args):
        raise AssertionError("numpy step ran below R2_DP_NUMPY_MIN_STATES")

    rows = [[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp_unrelated, "_layer_numpy", refuse)
        result = solve_r2_dp(rows)
    assert result == _reference(rows, None)


def test_key_overflow_falls_back_to_the_dict_step():
    """A pinned job above 2**63 makes the key unpackable: the numpy step
    returns ``None``, and the DP still returns the reference result."""
    rows = [[HUGE, 2, 3, 4], [None, 5, 6, 7]]
    assert dp_unrelated._layer_numpy([0], [0], HUGE, None, 1, HUGE + 18) is None
    fast = _numpy_every_layer(rows, None)
    _assert_identical(fast, _reference(rows, None))
    assert fast.makespan == HUGE


def test_both_steps_empty_a_layer_below_every_candidate():
    assert dp_unrelated._layer_python([5], [5], 3, 3, 1, 7) == ([], [], [])
    l1, l2, emitted = dp_unrelated._layer_numpy([5], [5], 3, 3, 1, 7)
    assert l1.size == l2.size == emitted.size == 0


def test_empty_layer_raises_the_same_error_in_both_steps(monkeypatch):
    """The public prune bound always admits the min-time assignment, so
    the empty-layer guard is reached only by shrinking the bound inside
    both steps; both must then fail at the same job with the same error."""

    def shrunk(step):
        def run(l1, l2, a, b, delta, prune):
            return step(l1, l2, a, b, delta, prune // 3)

        return run

    monkeypatch.setattr(
        dp_unrelated, "_layer_python", shrunk(dp_unrelated._layer_python)
    )
    monkeypatch.setattr(
        dp_unrelated, "_layer_numpy", shrunk(dp_unrelated._layer_numpy)
    )
    rows = [[5] * 8, [5] * 8]
    messages = {}
    for tier in ("reference", "numpy"):
        with kernel_tier(tier), pytest.raises(InfeasibleInstanceError) as info:
            solve_r2_dp(rows)
        messages[tier] = str(info.value)
    assert messages["reference"] == messages["numpy"]
    assert "emptied at job" in messages["reference"]
