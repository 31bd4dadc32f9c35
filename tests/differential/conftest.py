"""Differential-testing harness configuration.

One Hypothesis profile is registered here: ``differential``, a
moderate example budget so the equivalence gate travels with every
tier-1 run without dominating suite runtime; the frozen corpus under
``tests/fixtures/differential/`` carries the breadth.

The profile deliberately carries ``deadline=None``: the definitional
oracles run pure-``Fraction`` arithmetic and are legitimately slow on
the occasional large draw; wall-clock variance must not fail an
equivalence proof.

The profile is applied per-test (autouse fixture) rather than globally
in ``pytest_configure`` so that a full-suite run keeps Hypothesis's
default budget for every *other* property test in the repo.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "differential",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def _differential_profile(request):
    # an explicit --hypothesis-profile (loaded by the hypothesis plugin
    # at configure time) governs the whole run; otherwise pin this
    # directory to "differential" and restore the prior profile after
    # each test so the rest of the suite keeps its own budget
    if request.config.getoption("--hypothesis-profile", default=None):
        yield
        return
    prior = getattr(settings, "_current_profile", None) or "default"
    settings.load_profile("differential")
    try:
        yield
    finally:
        settings.load_profile(prior)
