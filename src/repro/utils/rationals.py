"""Exact rational arithmetic helpers.

The paper's correctness arguments compare completion times, machine
capacities and lower bounds exactly; machine speeds such as ``1/(k*n)``
(Theorem 8) make floating point unusable.  Everything that feeds a
theorem-level comparison goes through :class:`fractions.Fraction`, or
through integers on an exact grid: :func:`speed_grid` for uniform speeds,
:func:`time_grid` for unrelated processing times.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from repro.exceptions import InvalidInstanceError, ReproError

__all__ = [
    "as_fraction",
    "as_fraction_tuple",
    "floor_fraction",
    "ceil_fraction",
    "speed_grid",
    "time_grid",
]

Rational = int | Fraction


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Floats are converted through their decimal string representation rather
    than their binary expansion, so ``as_fraction(0.1) == Fraction(1, 10)``:
    callers writing literal speeds like ``0.5`` get the rational they meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot convert non-finite float {value!r} to Fraction")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def as_fraction_tuple(values: Iterable[int | float | str | Fraction]) -> tuple[Fraction, ...]:
    """Vectorised :func:`as_fraction`."""
    return tuple(as_fraction(v) for v in values)


def floor_fraction(value: Fraction | int) -> int:
    """Exact floor of a rational value."""
    if isinstance(value, int):
        return value
    return value.numerator // value.denominator


def ceil_fraction(value: Fraction | int) -> int:
    """Exact ceiling of a rational value."""
    if isinstance(value, int):
        return value
    return -((-value.numerator) // value.denominator)


def speed_grid(speeds: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """The integer time grid of uniform speeds: ``(Q, unit_times)``.

    ``Q`` is the lcm of the speed numerators and ``unit_times[i] =
    den_i * Q / num_i`` is the time one unit of work takes on machine
    ``i``, in ticks of ``1 / Q``: ``p`` units on machine ``i`` end at
    exactly ``p * unit_times[i] / Q``.  ``Q`` is the least integer with
    that property, so comparing completion times across machines is
    comparing the integers ``p * unit_times[i]``.

    Raises :exc:`~repro.exceptions.InvalidInstanceError` unless every
    speed is positive and round-trips, ``unit_times[i] * num_i == Q *
    den_i``.
    """
    quantum = math.lcm(*(s.numerator for s in speeds))
    unit_times: list[int] = []
    for s in speeds:
        num, den = s.numerator, s.denominator
        unit = den * (quantum // num) if num > 0 else 0
        if unit <= 0 or unit * num != quantum * den:
            raise InvalidInstanceError(
                f"speed {s} is not on the integer time grid 1/{quantum}"
            )
        unit_times.append(unit)
    return quantum, tuple(unit_times)


def time_grid(
    rows: Sequence[Sequence[Rational | None]],
) -> tuple[int, list[list[int | None]]]:
    """The integer grid of processing times: ``(scale, ticks)``.

    ``scale`` is the lcm of the denominators of the finite entries and
    ``ticks[i][j] = rows[i][j] * scale``, so sums of times compare like
    sums of ticks.  ``scale`` is the least such integer, hence
    ``gcd(scale, *ticks) == 1``.  ``None`` (a forbidden pair) stays
    ``None``, and integer rows come back unchanged with ``scale == 1``.
    """
    scale = math.lcm(*{t.denominator for row in rows for t in row if t is not None})
    ticks = [
        [None if t is None else t.numerator * (scale // t.denominator) for t in row]
        for row in rows
    ]
    return scale, ticks


def _to_grid(value: Fraction, quantum: int) -> int:
    """``value * quantum`` as an integer; raises when it is not one."""
    scaled, rest = divmod(value.numerator * quantum, value.denominator)
    if rest:
        raise ReproError(f"{value} is off the 1/{quantum} grid")
    return scaled
