"""Exact and (1+eps)-approximate solver for ``R2||Cmax``.

The paper uses the Jansen–Porkolab FPTAS [15] as a black box (Theorem 20)
inside Algorithm 5 and Theorem 4.  For two machines the same guarantee is
delivered by a Pareto-state dynamic program with load trimming — see
"Substitutes for the paper's black-box subroutines" in
``docs/ARCHITECTURE.md`` for why this substitution is behaviour-preserving:

* state after deciding jobs ``1..j`` = the pair of machine loads
  ``(l1, l2)``;
* for a fixed ``l1``, only the minimal ``l2`` can be optimal (dominance),
  so one state per distinct ``l1`` suffices — *exact* and pseudo-polynomial;
* bucketing ``l1`` on a grid of width ``Delta = eps * UB / (4n)`` keeps
  ``O(n / eps)`` states and loses at most ``n * Delta <= eps/2 * OPT``,
  giving the FPTAS.

Forbidden pairs (``times[i][j] is None``) are honoured natively, which is
how Algorithm 5 pins its two aggregated "private load" jobs to their
machines (the paper encodes the same constraint with a ``2T`` sentinel
processing time).

All arithmetic is integer after an exact rescaling of the rational inputs.

The forward pass builds one layer per job.  Small layers go through the
reference dict step (:func:`_layer_python`); once a layer holds
``repro.fastpath.R2_DP_NUMPY_MIN_STATES`` states, the next one is built
by :func:`repro.fastpath.kernels_numpy.r2_dp_layer_numpy`, which
reproduces the dict's tie-breaks exactly, whenever its packed sort key
fits ``int64``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from repro import fastpath
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.fastpath import FastpathUnavailable, kernels_numpy
from repro.utils.rationals import as_fraction, floor_fraction, rescale_to_integers

__all__ = ["solve_r2_dp", "DPResult"]

TimeEntry = int | float | str | Fraction | None


@dataclass(frozen=True)
class DPResult:
    """Outcome of the two-machine DP.

    ``assignment[j]`` is 0 or 1 (machine index); ``makespan`` is exact for
    the returned assignment (recomputed from the inputs, so it is a true
    achievable value even in trimmed mode).
    """

    makespan: Fraction
    assignment: tuple[int, ...]


def solve_r2_dp(
    times: Sequence[Sequence[TimeEntry]],
    eps: int | float | Fraction | None = None,
) -> DPResult:
    """Minimise makespan on two unrelated machines.

    Parameters
    ----------
    times:
        Two rows; ``times[i][j]`` is the processing time of job ``j`` on
        machine ``i`` (rational) or ``None`` when forbidden.
    eps:
        ``None`` for the exact pseudo-polynomial DP, else the FPTAS
        accuracy: the result is within ``(1 + eps)`` of optimal.
    """
    if len(times) != 2:
        raise InvalidInstanceError(f"solve_r2_dp needs exactly 2 machines, got {len(times)}")
    n = len(times[0])
    if len(times[1]) != n:
        raise InvalidInstanceError("ragged processing-time matrix")
    if n == 0:
        return DPResult(Fraction(0), ())

    # exact integer rescaling ------------------------------------------------
    finite: list[Fraction] = []
    for row in times:
        for t in row:
            if t is not None:
                f = as_fraction(t)
                if f < 0:
                    raise InvalidInstanceError(f"negative processing time {t}")
                finite.append(f)
    scaled, scale = rescale_to_integers(finite)
    it = iter(scaled)
    t_int: list[list[int | None]] = [[None] * n for _ in range(2)]
    for i in range(2):
        for j in range(n):
            if times[i][j] is not None:
                t_int[i][j] = next(it)

    ub = 0
    for j in range(n):
        a, b = t_int[0][j], t_int[1][j]
        if a is None and b is None:
            raise InvalidInstanceError(f"job {j} forbidden on both machines")
        ub += min(x for x in (a, b) if x is not None)

    if eps is None:
        delta = 1
    else:
        eps_f = as_fraction(eps)
        if eps_f <= 0:
            raise InvalidInstanceError(f"eps must be positive, got {eps}")
        delta = max(1, floor_fraction(eps_f * ub / (4 * n)))
    prune = ub + n * delta

    # forward DP ---------------------------------------------------------
    # a layer is its states' loads in layer order; emitted_by_job[j][s]
    # is the emission index 2 * parent position + machine of state s
    l1: Any = [0]
    l2: Any = [0]
    emitted_by_job: list[Any] = []
    for j in range(n):
        a, b = t_int[0][j], t_int[1][j]
        step = None
        if len(l1) >= fastpath.R2_DP_NUMPY_MIN_STATES:
            try:
                step = kernels_numpy.r2_dp_layer_numpy(l1, l2, a, b, delta, prune)
            except FastpathUnavailable:
                pass
        if step is None:
            step = _layer_python(_as_list(l1), _as_list(l2), a, b, delta, prune)
        l1, l2, emitted = step
        emitted_by_job.append(emitted)
        if not len(l1):
            # the min-time branch keeps l1 + l2 <= ub <= prune, so an
            # empty layer means the prune bound itself is broken
            raise InfeasibleInstanceError(
                f"R2 DP state space emptied at job {j}: no assignment "
                f"survives the prune bound {prune}"
            )

    l1, l2 = _as_list(l1), _as_list(l2)
    best = min(range(len(l1)), key=lambda s: max(l1[s], l2[s]))

    # reconstruct --------------------------------------------------------
    assignment = [0] * n
    pos = best
    for j in range(n - 1, -1, -1):
        emission = int(emitted_by_job[j][pos])
        assignment[j] = emission & 1
        pos = emission >> 1

    makespan = Fraction(max(l1[best], l2[best]), scale)
    return DPResult(makespan, tuple(assignment))


def _as_list(loads: Any) -> list[int]:
    """A layer's loads as Python ints (the numpy step returns arrays)."""
    return loads if isinstance(loads, list) else loads.tolist()


def _layer_python(
    l1: list[int],
    l2: list[int],
    a: int | None,
    b: int | None,
    delta: int,
    prune: int,
) -> tuple[list[int], list[int], list[int]]:
    """One DP layer with a dict: the reference step.

    State ``p`` of the current layer emits the job on machine 1 (bucket
    ``(l1 + a) // delta``) and then on machine 2 (bucket ``l1 // delta``),
    skipping candidates above ``prune``.  The dict keeps each bucket at
    the position of its first candidate; a later candidate replaces the
    holder only with a strictly smaller ``l2``.  Returns the next layer
    in dict order as ``(l1, l2, emitted)``, with ``emitted[s] = 2 *
    parent position + machine``.
    """
    slot: dict[int, int] = {}
    new1: list[int] = []
    new2: list[int] = []
    emitted: list[int] = []
    for pos in range(len(l1)):
        base1, base2 = l1[pos], l2[pos]
        if a is not None:
            nl1 = base1 + a
            if nl1 <= prune:
                bucket = nl1 // delta
                at = slot.get(bucket)
                if at is None:
                    slot[bucket] = len(new1)
                    new1.append(nl1)
                    new2.append(base2)
                    emitted.append(2 * pos)
                elif base2 < new2[at]:
                    new1[at] = nl1
                    new2[at] = base2
                    emitted[at] = 2 * pos
        if b is not None:
            nl2 = base2 + b
            if nl2 <= prune:
                bucket = base1 // delta
                at = slot.get(bucket)
                if at is None:
                    slot[bucket] = len(new1)
                    new1.append(base1)
                    new2.append(nl2)
                    emitted.append(2 * pos + 1)
                elif nl2 < new2[at]:
                    new1[at] = base1
                    new2[at] = nl2
                    emitted[at] = 2 * pos + 1
    return new1, new2, emitted
