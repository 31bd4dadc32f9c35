"""Algorithm 3: component reduction for ``R2|G = bipartite|Cmax``.

For every connected component ``G_k`` with parts ``(V^k_1, V^k_2)`` only two
assignments exist: *straight* (part 1 on ``M_1``, part 2 on ``M_2``) with
machine loads ``(p*_{1,1}, p*_{2,2})``, or *flipped* with loads
``(p*_{1,2}, p*_{2,1})``, where ``p*_{i,l}`` is the total time of part ``l``
on machine ``i``.  Algorithm 3 classifies each component:

* one orientation dominates the other coordinate-wise -> its loads are
  folded into the per-machine "private loads" ``P'`` / ``P''`` and the
  component's artificial job has zero length (cases A and B);
* otherwise the orientation is a genuine binary choice -> the minimum loads
  are folded into ``P'`` / ``P''`` and the *differences* become the two
  processing times of the component's artificial job (case C).

The reduction is exact: schedules of the reduced instance (artificial jobs
on two machines plus the private loads) correspond 1-1, makespan-preserving,
to schedules of the original instance — this is the content of the proof of
Theorem 21.

The case analysis only adds, subtracts and compares times, so it runs on
the instance's own ticks (:attr:`UnrelatedInstance.ticks`, the grid of
:func:`~repro.utils.rationals.time_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, cast

from repro.exceptions import InvalidInstanceError
from repro.graphs.components import connected_components
from repro.graphs.coloring import proper_two_coloring
from repro.scheduling.instance import UnrelatedInstance
from repro.scheduling.schedule import Schedule

__all__ = ["ComponentCase", "ComponentRecord", "R2Reduction", "reduce_r2"]


class ComponentCase(Enum):
    """Which branch of Algorithm 3's case analysis applied."""

    STRAIGHT_DOMINATES = "straight"  # p*11 <= p*12 and p*22 <= p*21
    FLIPPED_DOMINATES = "flipped"    # p*12 <= p*11 and p*21 <= p*22
    CHOICE = "choice"                # neither dominates: real binary decision


@dataclass(frozen=True)
class ComponentRecord:
    """One connected component after reduction.

    ``part1`` / ``part2`` hold original job ids; ``loads[0]`` are the
    straight loads ``(p*_{1,1}, p*_{2,2})`` and ``loads[1]`` the flipped
    loads ``(p*_{1,2}, p*_{2,1})``.  ``dummy_times`` is the artificial
    job's processing time on each machine and ``base_loads`` the
    contribution to ``(P'_k, P''_k)``.  All are in ticks of ``1 / scale``
    of the owning :class:`R2Reduction`.
    """

    part1: tuple[int, ...]
    part2: tuple[int, ...]
    loads: tuple[tuple[int, int], tuple[int, int]]
    case: ComponentCase
    dummy_times: tuple[int, int]
    base_loads: tuple[int, int]

    def orientation_for_dummy(self, dummy_machine: int) -> int:
        """Map the artificial job's machine to an orientation.

        Returns 0 (straight) or 1 (flipped).  For dominated cases the
        orientation is fixed regardless of where a zero-length dummy sits.
        In the choice case, putting the dummy on machine ``i`` means
        machine ``i`` carries its larger of the two possible part loads
        (see the reconstruction paragraph of Theorem 21's proof).
        """
        if self.case is ComponentCase.STRAIGHT_DOMINATES:
            return 0
        if self.case is ComponentCase.FLIPPED_DOMINATES:
            return 1
        (p11, p22), (p12, p21) = self.loads
        if dummy_machine == 0:
            # machine 1 takes max(p*_{1,1}, p*_{1,2})
            return 0 if p11 >= p12 else 1
        # machine 2 takes max(p*_{2,1}, p*_{2,2}); straight puts p22 there
        return 0 if p22 > p21 else 1


@dataclass(frozen=True)
class R2Reduction:
    """Output of Algorithm 3 for a full instance, in ticks of ``1 / scale``."""

    instance: UnrelatedInstance
    components: tuple[ComponentRecord, ...]
    scale: int

    @property
    def private_load_m1(self) -> int:
        """``sum_k P'_k`` — work machine 1 carries in *every* schedule."""
        return sum(c.base_loads[0] for c in self.components)

    @property
    def private_load_m2(self) -> int:
        """``sum_k P''_k`` — work machine 2 carries in *every* schedule."""
        return sum(c.base_loads[1] for c in self.components)

    def dp_rows(self, sentinel: int | None = None) -> list[list[int | None]]:
        """Algorithm 5's reduced two-machine instance, as integer rows.

        The artificial jobs, then ``sum P'`` on machine 1 and ``sum P''``
        on machine 2, each taking ``sentinel`` ticks on its other machine
        (``None`` forbids it there).  Dividing every entry by ``gcd(scale,
        entries)`` gives exactly what :func:`~repro.utils.rationals.time_grid`
        makes of the same rows in time units, so the DP trims on one grid.
        """
        rows: list[list[int | None]] = [
            [*(c.dummy_times[0] for c in self.components), self.private_load_m1, sentinel],
            [*(c.dummy_times[1] for c in self.components), sentinel, self.private_load_m2],
        ]
        g = math.gcd(self.scale, *(t for row in rows for t in row if t is not None))
        return [[None if t is None else t // g for t in row] for row in rows]

    def schedule_from_orientations(self, orientations: Sequence[int]) -> Schedule:
        """Expand per-component orientations back to a full job schedule."""
        if len(orientations) != len(self.components):
            raise InvalidInstanceError(
                f"{len(orientations)} orientations for {len(self.components)} components"
            )
        assignment = [0] * self.instance.n
        for rec, orient in zip(self.components, orientations):
            if orient not in (0, 1):
                raise InvalidInstanceError(f"orientation must be 0 or 1, got {orient}")
            m_part1 = 0 if orient == 0 else 1
            for j in rec.part1:
                assignment[j] = m_part1
            for j in rec.part2:
                assignment[j] = 1 - m_part1
        return Schedule(self.instance, assignment)


def reduce_r2(instance: UnrelatedInstance) -> R2Reduction:
    """Algorithm 3: merge each component into one artificial job.

    Requires exactly two machines and a fully finite time matrix (the
    paper's R2 model has no forbidden pairs; Algorithm 5 adds pinned jobs
    *after* this reduction).
    """
    if instance.m != 2:
        raise InvalidInstanceError(f"Algorithm 3 needs exactly 2 machines, got {instance.m}")
    for i, row in enumerate(instance.ticks):
        if None in row:
            raise InvalidInstanceError(
                f"Algorithm 3 requires finite processing times; "
                f"times[{i}][{row.index(None)}] is forbidden"
            )
    scale = instance.scale
    t1, t2 = cast("tuple[tuple[int, ...], ...]", instance.ticks)  # finite: checked above
    coloring = proper_two_coloring(instance.graph)
    records: list[ComponentRecord] = []
    for comp in connected_components(instance.graph):
        part1 = tuple(j for j in comp if coloring[j] == 0)
        part2 = tuple(j for j in comp if coloring[j] == 1)
        p11 = sum(t1[j] for j in part1)
        p21 = sum(t2[j] for j in part1)
        p12 = sum(t1[j] for j in part2)
        p22 = sum(t2[j] for j in part2)
        loads = ((p11, p22), (p12, p21))
        if p11 <= p12 and p22 <= p21:
            case = ComponentCase.STRAIGHT_DOMINATES
            dummy = (0, 0)
            base = (p11, p22)
        elif p12 <= p11 and p21 <= p22:
            case = ComponentCase.FLIPPED_DOMINATES
            dummy = (0, 0)
            base = (p12, p21)
        else:
            case = ComponentCase.CHOICE
            dummy = (
                max(p11, p12) - min(p11, p12),
                max(p21, p22) - min(p21, p22),
            )
            base = (min(p11, p12), min(p21, p22))
        records.append(
            ComponentRecord(
                part1=part1,
                part2=part2,
                loads=loads,
                case=case,
                dummy_times=dummy,
                base_loads=base,
            )
        )
    return R2Reduction(instance=instance, components=tuple(records), scale=scale)
