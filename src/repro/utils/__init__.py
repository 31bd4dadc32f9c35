"""Shared utilities: seeded RNG helpers, exact rational arithmetic helpers,
input validation primitives, and light-weight timing instrumentation."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.rationals import (
    as_fraction,
    as_fraction_tuple,
    floor_fraction,
    ceil_fraction,
    speed_grid,
    time_grid,
)
from repro.utils.validation import (
    check_positive_int,
    check_positive_ints,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "as_fraction",
    "as_fraction_tuple",
    "floor_fraction",
    "ceil_fraction",
    "speed_grid",
    "time_grid",
    "check_positive_int",
    "check_positive_ints",
    "check_probability",
]
