"""Schedules and their validation.

A schedule is a total assignment of jobs to machines; for ``Cmax`` with no
preemption the order of jobs within a machine is irrelevant, so the
assignment *is* the schedule.  Feasibility (the paper's defining
constraint) means the job set of every machine is an independent set of the
incompatibility graph, and no job sits on a machine that forbids it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.exceptions import InvalidScheduleError
from repro.scheduling.instance import SchedulingInstance

__all__ = ["Schedule", "schedule_from_groups"]


class Schedule:
    """An assignment of every job to a machine.

    Parameters
    ----------
    instance:
        The instance being scheduled.
    assignment:
        ``assignment[j]`` is the machine index of job ``j``.
    check:
        When true (default) the schedule is validated eagerly and an
        :exc:`InvalidScheduleError` is raised on infeasibility; the passed
        check is kept, so :meth:`is_feasible` answers ``True`` at once.
        Baseline heuristics that deliberately ignore the incompatibility
        graph pass ``check=False`` and report :meth:`is_feasible` instead.
    """

    __slots__ = ("instance", "assignment", "_completions", "_checked")

    def __init__(
        self,
        instance: SchedulingInstance,
        assignment: Sequence[int],
        check: bool = True,
    ) -> None:
        if len(assignment) != instance.n:
            raise InvalidScheduleError(
                f"assignment covers {len(assignment)} of {instance.n} jobs"
            )
        m = instance.m
        for j, i in enumerate(assignment):
            if not (0 <= i < m):
                raise InvalidScheduleError(
                    f"job {j} assigned to machine {i}, valid range is 0..{m - 1}"
                )
        self.instance = instance
        self.assignment: tuple[int, ...] = tuple(int(i) for i in assignment)
        self._completions: tuple[Fraction, ...] | None = None
        # True once the check has passed: the instance and the assignment
        # are immutable, so the verdict stands
        self._checked = False
        if check:
            self.assert_feasible()
            self._checked = True

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def jobs_on(self, machine: int) -> list[int]:
        """Jobs assigned to ``machine`` (ascending job ids)."""
        return [j for j, i in enumerate(self.assignment) if i == machine]

    def machine_groups(self) -> list[list[int]]:
        """Per-machine job lists (index = machine)."""
        groups: list[list[int]] = [[] for _ in range(self.instance.m)]
        for j, i in enumerate(self.assignment):
            groups[i].append(j)
        return groups

    # ------------------------------------------------------------------ #
    # objective
    # ------------------------------------------------------------------ #

    def completion_times(self) -> tuple[Fraction, ...]:
        """Completion time of every machine (cached)."""
        if self._completions is None:
            inst = self.instance
            self._completions = tuple(
                inst.machine_completion(i, jobs)
                for i, jobs in enumerate(self.machine_groups())
            )
        return self._completions

    @property
    def makespan(self) -> Fraction:
        """``Cmax``: the largest machine completion time."""
        comps = self.completion_times()
        return max(comps) if comps else Fraction(0)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def violations(self) -> list[str]:
        """All feasibility violations, as human-readable strings."""
        problems: list[str] = []
        inst = self.instance
        graph = inst.graph
        for i, jobs in enumerate(self.machine_groups()):
            for j in jobs:
                if not inst.allows(i, j):
                    problems.append(f"job {j} forbidden on machine {i}")
            job_set = set(jobs)
            for j in jobs:
                bad = graph.neighbors(j) & job_set
                for other in bad:
                    if j < other:
                        problems.append(
                            f"incompatible jobs {j} and {other} share machine {i}"
                        )
        return problems

    def is_feasible(self) -> bool:
        """Whether the schedule satisfies every constraint.

        A schedule built with ``check=True`` passed the check already and
        answers without scanning the machines again.
        """
        return self._checked or not self.violations()

    def assert_feasible(self) -> None:
        """Raise :exc:`InvalidScheduleError` listing all violations, if any."""
        problems = self.violations()
        if problems:
            raise InvalidScheduleError("; ".join(problems))

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.instance is other.instance and self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash((id(self.instance), self.assignment))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(makespan={self.makespan}, m={self.instance.m})"


def schedule_from_groups(
    instance: SchedulingInstance,
    groups: Mapping[int, Iterable[int]],
    check: bool = True,
) -> Schedule:
    """Build a schedule from a ``machine -> jobs`` mapping.

    Every job must appear exactly once across all groups.
    """
    assignment = [-1] * instance.n
    for machine, jobs in groups.items():
        for j in jobs:
            if assignment[j] != -1:
                raise InvalidScheduleError(f"job {j} assigned twice")
            assignment[j] = machine
    missing = [j for j, i in enumerate(assignment) if i == -1]
    if missing:
        raise InvalidScheduleError(f"jobs not assigned: {missing[:10]}")
    return Schedule(instance, assignment, check=check)
