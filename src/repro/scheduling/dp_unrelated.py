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

All arithmetic is integer, on the inputs' exact
:func:`~repro.utils.rationals.time_grid` (integer rows are used as they are).

The forward pass builds one layer per job.  Small layers go through the
reference dict step (:func:`_layer_python`); once a layer holds
:data:`R2_DP_NUMPY_MIN_STATES` states, the next one is built by the numpy
step (:func:`_layer_numpy`), which reproduces the dict's tie-breaks
exactly: a bucket keeps the first candidate with the strictly smallest
``l2``, buckets are listed in the order of their first candidate (state
by state, machine 1 before machine 2), and the final pick is the first
state with minimal ``max(l1, l2)`` in that order.  The numpy step returns
``None`` when its packed sort key could overflow ``int64`` (checked,
never assumed: a wrapped key would corrupt an exact result), and that
layer takes the dict step.  ``tests/differential/`` forces each step by
patching the cutoff and requires byte-identical results.  The numpy step
stays only while its row of ``BENCH_PERF_fastpath.json`` shows it paying
at the shape of the ``sparse-fptas`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.utils.rationals import as_fraction, floor_fraction, time_grid

__all__ = ["solve_r2_dp", "DPResult"]

TimeEntry = int | float | str | Fraction | None

#: states in a layer below which the dict step builds the next layer
#: faster than the numpy step (the two break even at 64-95 states on
#: sparse-fptas layers); measured with ``repro perf --target fastpath``
R2_DP_NUMPY_MIN_STATES = 64


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

    # exact integer grid -------------------------------------------------
    exact: list[list[int | Fraction | None]] = [[], []]
    for row, out in zip(times, exact):
        for t in row:
            f = t if t is None or isinstance(t, int) else as_fraction(t)
            if f is not None and f < 0:
                raise InvalidInstanceError(f"negative processing time {t}")
            out.append(f)
    scale, t_int = time_grid(exact)

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
        if len(l1) >= R2_DP_NUMPY_MIN_STATES:
            step = _layer_numpy(l1, l2, a, b, delta, prune)
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
    if isinstance(loads, list):
        return loads
    ints: list[int] = loads.tolist()
    return ints


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


def _layer_numpy(
    l1: Any, l2: Any, a: int | None, b: int | None, delta: int, prune: int
) -> tuple[Any, Any, Any] | None:
    """The next layer, identical to :func:`_layer_python`, or ``None``.

    ``l1``/``l2`` are the current layer's loads in layer order (lists or
    int64 arrays).  State ``p`` emits candidate ``2p`` (machine 1) and
    then ``2p + 1`` (machine 2), as in the dict step.  Each candidate
    becomes one key with the bit fields ``bucket | l2 | emission``:
    after one sort the first key of each bucket is its winner, and a
    segment minimum of the emission field gives the bucket's first
    candidate, which orders the buckets.

    Returns int64 arrays ``(l1, l2, emitted)`` of the next layer in
    layer order, or ``None`` when the packed key could overflow
    ``int64``; the caller then runs the dict step.
    """
    slots = 2 * len(l1)
    e_bits = (slots - 1).bit_length()
    l2_bits = prune.bit_length()
    low_bits = l2_bits + e_bits
    if (prune // delta).bit_length() + low_bits > 63:
        return None
    l1 = np.asarray(l1, dtype=np.int64)
    l2 = np.asarray(l2, dtype=np.int64)
    # candidate 2p + machine sits at that index; a time above the prune
    # bound is never taken, and prune + 1 both marks it and keeps every
    # sum inside int64
    over = prune + 1
    cand_l1 = np.empty(slots, dtype=np.int64)
    cand_l2 = np.empty(slots, dtype=np.int64)
    cand_l1[0::2] = l1 + a if a is not None and a <= prune else over
    cand_l1[1::2] = l1
    cand_l2[0::2] = l2
    cand_l2[1::2] = l2 + b if b is not None and b <= prune else over
    emission = (np.maximum(cand_l1, cand_l2) <= prune).nonzero()[0]
    if emission.size == 0:
        return emission, emission, emission
    keys = cand_l1[emission]
    if delta > 1:
        keys //= delta
    keys <<= l2_bits
    keys |= cand_l2[emission]
    keys <<= e_bits
    keys |= emission
    keys.sort()
    buckets = keys >> low_bits
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(buckets[1:], buckets[:-1], out=first[1:])
    starts = first.nonzero()[0]
    keys &= (1 << e_bits) - 1  # each sorted candidate's emission index
    emitted = keys[starts][np.minimum.reduceat(keys, starts).argsort()]
    return cand_l1[emitted], cand_l2[emitted], emitted
