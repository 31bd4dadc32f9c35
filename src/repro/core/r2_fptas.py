"""Algorithm 5: FPTAS for ``R2|G = bipartite|Cmax`` (Theorem 22).

Pipeline:

1. run Algorithm 4 to obtain a 2-approximate makespan ``T`` (the paper uses
   ``T`` to build "unreasonable" sentinel processing times ``2T``/``3T``);
2. run Algorithm 3 to reduce the graph instance to artificial jobs plus
   per-machine private loads ``P'``, ``P''``;
3. append two aggregated *private load jobs*: one of length ``sum P'``
   runnable only on machine 1 and one of length ``sum P''`` runnable only
   on machine 2 (:meth:`~repro.core.r2_reduction.R2Reduction.dp_rows`).
   The paper pins them via the ``2T`` sentinel; our ``Rm||Cmax`` engine
   (:func:`repro.scheduling.dp_unrelated.solve_r2_dp`) supports forbidden
   pairs natively, so the pin is expressed directly — the sentinel trick
   remains available through ``use_sentinel_times=True`` for fidelity
   experiments;
4. solve the graph-free two-machine instance with the ``(1 + eps)`` engine
   (it stands in for the paper's Jansen–Porkolab black box; see
   "Substitutes for the paper's black-box subroutines" in
   ``docs/ARCHITECTURE.md``), or exactly with ``eps=None``;
5. map each artificial job's machine back to its component's orientation
   and expand to a full schedule.

Every schedule of the reduced instance corresponds makespan-for-makespan
to one of the original instance and vice versa, so the ``(1 + eps)``
guarantee transfers verbatim.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.r2_reduction import reduce_r2
from repro.core.r2_two_approx import r2_two_approx
from repro.exceptions import InvalidInstanceError
from repro.scheduling.dp_unrelated import solve_r2_dp
from repro.scheduling.instance import UnrelatedInstance
from repro.scheduling.schedule import Schedule
from repro.utils.rationals import _to_grid, as_fraction

__all__ = ["r2_fptas"]


def r2_fptas(
    instance: UnrelatedInstance,
    eps: int | float | Fraction | None = 1,
    use_sentinel_times: bool = False,
) -> Schedule:
    """A ``(1 + eps)``-approximate schedule for ``R2|G = bipartite|Cmax``.

    ``eps = 1`` reproduces the configuration Algorithm 1 uses for its
    two-machine schedule ``S1``; ``eps=None`` runs the DP untrimmed, so
    the schedule is optimal.  With ``use_sentinel_times`` the private
    load jobs get the paper's literal ``2T`` processing time on the wrong
    machine instead of being forbidden there (both must yield the same
    guarantee; tests assert they agree).
    """
    if eps is not None and as_fraction(eps) <= 0:
        raise InvalidInstanceError(f"eps must be positive, got {eps}")
    if instance.n == 0:
        return Schedule(instance, [])

    reduction = reduce_r2(instance)
    sentinel: int | None = None
    if use_sentinel_times:
        t_2approx = r2_two_approx(instance).makespan
        sentinel = _to_grid(2 * t_2approx if t_2approx > 0 else Fraction(1), reduction.scale)

    result = solve_r2_dp(reduction.dp_rows(sentinel), eps=eps)

    c = len(reduction.components)
    # sanity: the pinned jobs must have stayed on their machines (always
    # true with forbidden pairs; with sentinel times it holds because any
    # schedule violating a pin costs >= 2T >= (1+eps) * OPT for eps <= 1,
    # and the engine returns a strictly better one)
    if result.assignment[c] != 0 or result.assignment[c + 1] != 1:
        raise InvalidInstanceError(
            "private load job left its machine; sentinel too small for this eps"
        )
    orientations = [
        rec.orientation_for_dummy(result.assignment[k])
        for k, rec in enumerate(reduction.components)
    ]
    return reduction.schedule_from_orientations(orientations)
