"""Property tests for the integer-normalization layer (the IntView).

The certificate the integer kernels rest on: ``speeds_scaled[i] /
scale`` round-trips *exactly* to ``speeds[i]``, ``scale`` is the true
LCM of the denominators (minimal — a coarser common multiple would
also round-trip), and nothing silently truncates when the scale blows
past machine-word width: Python integers are arbitrary precision, and
the big-int properties here deliberately push beyond ``2**63``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffutil import speed_tuples, uniform_instances
from repro import fastpath
from repro.exceptions import InvalidInstanceError
from repro.fastpath.normalize import IntView

fracs = st.fractions(
    min_value=Fraction(1, 10**6),
    max_value=Fraction(10**6),
    max_denominator=10**6,
)


@given(speeds=st.lists(fracs, min_size=1, max_size=8))
def test_scaled_speeds_roundtrip_and_minimality(speeds):
    speeds = tuple(speeds)
    scaled, scale = fastpath.scaled_speeds(speeds)
    # exact round trip
    assert all(Fraction(si, scale) == s for si, s in zip(scaled, speeds))
    # scale is the true LCM of the denominators, not just a common multiple
    true_lcm = math.lcm(*(s.denominator for s in speeds))
    assert scale == true_lcm
    # every denominator divides the scale (restates minimality usefully)
    assert all(scale % s.denominator == 0 for s in speeds)


@given(inst=uniform_instances())
def test_int_view_certificate_verifies(inst):
    view = fastpath.int_view(inst)
    assert view.verify()
    assert view.p == tuple(inst.p)
    assert view.speeds == tuple(inst.speeds)


@given(
    primes=st.permutations(
        [2305843009213693951, 4611686018427387847, 9223372036854775783]
    ),
    numerators=st.lists(st.integers(1, 10**9), min_size=3, max_size=3),
)
def test_bigint_scale_beyond_2_63_is_exact(primes, numerators):
    """Denominators chosen so the LCM exceeds 2**63 by construction —
    the path a fixed-width implementation would silently corrupt."""
    speeds = tuple(
        Fraction(num, p) for num, p in zip(numerators, primes)
    )
    scaled, scale = fastpath.scaled_speeds(speeds)
    assert scale > 2**63
    assert all(Fraction(si, scale) == s for si, s in zip(scaled, speeds))
    assert scale == math.lcm(*(s.denominator for s in speeds))


def test_verify_rejects_corrupt_certificates():
    good = fastpath.scaled_speeds((Fraction(1, 3), Fraction(2, 5)))
    scaled, scale = good
    assert IntView(scaled, scale, (Fraction(1, 3), Fraction(2, 5))).verify()
    # wrong scaled value
    assert not IntView((scaled[0] + 1, scaled[1]), scale, (Fraction(1, 3), Fraction(2, 5))).verify()
    # round-trips but not minimal: doubled scale is not the true LCM
    assert not IntView(
        tuple(2 * x for x in scaled), 2 * scale, (Fraction(1, 3), Fraction(2, 5))
    ).verify()
    # non-positive scale / length mismatch
    assert not IntView(scaled, 0, (Fraction(1, 3), Fraction(2, 5))).verify()
    assert not IntView(scaled[:1], scale, (Fraction(1, 3), Fraction(2, 5))).verify()


def test_int_view_raises_typed_error_on_bad_instance():
    """int_view's safety net is a typed error, not a bare assert."""

    class _Fake:
        speeds = (Fraction(1, 3), Fraction(2, 5))
        p = (1, 2)

    view = fastpath.int_view(_Fake())
    assert view.verify()

    class _Corrupt:
        # a "Fraction" whose numerator lies about its denominator
        class _Bad:
            numerator = 1
            denominator = 3

            def __eq__(self, other):  # never equal: round-trip must fail
                return False

            def __hash__(self):
                return 0

        speeds = (_Bad(),)
        p = (1,)

    with pytest.raises(InvalidInstanceError):
        fastpath.int_view(_Corrupt())


@given(speeds=st.lists(fracs, min_size=1, max_size=6))
def test_scaled_speeds_cache_consistency(speeds):
    """The lru_cache must key on the exact tuple — same input, same object."""
    speeds = tuple(speeds)
    first = fastpath.scaled_speeds(speeds)
    second = fastpath.scaled_speeds(tuple(speeds))
    assert first == second
