"""Scheduling instances for the three machine environments.

The paper's model (Section 1): jobs ``J_1..J_n`` with integer processing
requirements ``p_j``, machines ``M_1..M_m``, and an incompatibility
(conflict) graph on the jobs — any :class:`~repro.graphs.conflict.ConflictGraph`
implementation (bipartite, complete multipartite, block-type, ...).
Instances are immutable; machine speeds are exact rationals sorted
non-increasingly (the paper's convention ``s_1 >= ... >= s_m``).

:class:`UniformInstance` covers both ``Q`` (general speeds) and ``P`` (all
speeds 1), optionally with per-job *machine-eligibility masks* (the CP
``alternative`` + eligibility idiom); :class:`UnrelatedInstance` covers
``R`` including *forbidden* job/machine pairs (processing time ``None``),
which Algorithm 5 uses for its machine-pinned artificial jobs.  An
unrelated instance stores its times as integer ticks of ``1 / scale``
(``scale`` minimal), the grid Algorithms 3-5, the oracle and the
completion times compute on; the :class:`Fraction` matrix is a view.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence, cast

from repro.exceptions import InvalidInstanceError
from repro.graphs.conflict import ConflictGraph
from repro.utils.rationals import as_fraction, as_fraction_tuple, speed_grid, time_grid
from repro.utils.validation import check_positive_ints

__all__ = [
    "SchedulingInstance",
    "UniformInstance",
    "UnrelatedInstance",
    "identical_instance",
    "unit_uniform_instance",
    "make_uniform_instance",
]


class SchedulingInstance(ABC):
    """Common interface: a job set with an incompatibility graph and a
    machine-dependent processing-time oracle."""

    graph: ConflictGraph

    @property
    def n(self) -> int:
        """Number of jobs."""
        return self.graph.n

    @property
    @abstractmethod
    def m(self) -> int:
        """Number of machines."""

    @abstractmethod
    def processing_time(self, machine: int, job: int) -> Fraction | None:
        """Time of ``job`` on ``machine``; ``None`` when forbidden."""

    @abstractmethod
    def machine_completion(self, machine: int, jobs: Iterable[int]) -> Fraction:
        """Completion time of ``machine`` running exactly ``jobs``."""

    @abstractmethod
    def with_graph(self, graph: ConflictGraph) -> "SchedulingInstance":
        """The same instance data under a different graph representation."""

    def allows(self, machine: int, job: int) -> bool:
        """Whether ``job`` may run on ``machine`` at all."""
        return self.processing_time(machine, job) is not None


class UniformInstance(SchedulingInstance):
    """``Q|G|Cmax`` data: integer ``p_j`` and rational machine speeds.

    Speeds must be positive and non-increasing (use
    :func:`make_uniform_instance` to sort arbitrary speed data).  With all
    speeds equal to 1 this is the identical-machine environment ``P``.

    ``eligible`` optionally restricts which machines each job may run on
    (the CP ``alternative`` + eligibility idiom, mirroring
    :class:`UnrelatedInstance`'s forbidden pairs): ``eligible[j]`` is an
    iterable of allowed machine indices, or ``None`` for "any machine".
    Pass ``eligible=None`` (the default) for the unrestricted paper
    model — the fast path is unchanged.
    """

    __slots__ = ("graph", "p", "speeds", "eligible")

    def __init__(
        self,
        graph: ConflictGraph,
        p: Sequence[int],
        speeds: Sequence[int | float | str | Fraction],
        eligible: Sequence[Iterable[int] | None] | None = None,
    ) -> None:
        self.graph = graph
        self.p: tuple[int, ...] = check_positive_ints(p, "p")
        if len(self.p) != graph.n:
            raise InvalidInstanceError(
                f"{len(self.p)} processing requirements for {graph.n} jobs"
            )
        self.speeds: tuple[Fraction, ...] = as_fraction_tuple(speeds)
        if not self.speeds:
            raise InvalidInstanceError("need at least one machine")
        if any(s <= 0 for s in self.speeds):
            raise InvalidInstanceError("speeds must be positive")
        if any(
            self.speeds[i] < self.speeds[i + 1] for i in range(len(self.speeds) - 1)
        ):
            raise InvalidInstanceError(
                "speeds must be non-increasing (s_1 >= ... >= s_m); "
                "use make_uniform_instance() to sort"
            )
        self.eligible: tuple[frozenset[int] | None, ...] | None
        if eligible is None:
            self.eligible = None
        else:
            if len(eligible) != graph.n:
                raise InvalidInstanceError(
                    f"{len(eligible)} eligibility masks for {graph.n} jobs"
                )
            m = len(self.speeds)
            masks: list[frozenset[int] | None] = []
            for j, raw in enumerate(eligible):
                if raw is None:
                    masks.append(None)
                    continue
                mask = frozenset(int(i) for i in raw)
                if not mask:
                    raise InvalidInstanceError(
                        f"job {j} has an empty eligibility mask "
                        "(forbidden on every machine)"
                    )
                bad = [i for i in mask if not 0 <= i < m]
                if bad:
                    raise InvalidInstanceError(
                        f"job {j} eligibility names machine {bad[0]} "
                        f"but there are only {m} machines"
                    )
                # a full mask is the same as no mask; normalise so
                # serialization and equality don't depend on spelling
                masks.append(None if len(mask) == m else mask)
            self.eligible = None if all(x is None for x in masks) else tuple(masks)

    @property
    def m(self) -> int:
        return len(self.speeds)

    @property
    def total_p(self) -> int:
        """``sum p_j`` — the quantity bounding Algorithm 1's ratio."""
        return sum(self.p)

    @property
    def pmax(self) -> int:
        """``max p_j`` (0 when there are no jobs)."""
        return max(self.p, default=0)

    @property
    def is_identical(self) -> bool:
        """Whether all speeds coincide (environment ``P``)."""
        return all(s == self.speeds[0] for s in self.speeds)

    @property
    def has_unit_jobs(self) -> bool:
        """Whether every ``p_j = 1`` (the ``p_j = 1`` restriction)."""
        return all(pj == 1 for pj in self.p)

    @property
    def has_eligibility(self) -> bool:
        """Whether any job carries a machine-eligibility restriction."""
        return self.eligible is not None

    def eligible_machines(self, job: int) -> frozenset[int]:
        """The machines ``job`` may run on (all machines when unmasked)."""
        if self.eligible is not None:
            mask = self.eligible[job]
            if mask is not None:
                return mask
        return frozenset(range(self.m))

    def allows(self, machine: int, job: int) -> bool:
        """Whether ``job`` may run on ``machine``: its mask alone decides."""
        if self.eligible is not None:
            mask = self.eligible[job]
            if mask is not None:
                return machine in mask
        return True

    def processing_time(self, machine: int, job: int) -> Fraction | None:
        if self.eligible is not None:
            mask = self.eligible[job]
            if mask is not None and machine not in mask:
                return None
        return Fraction(self.p[job]) / self.speeds[machine]

    def machine_completion(self, machine: int, jobs: Iterable[int]) -> Fraction:
        if self.eligible is not None:
            jobs = list(jobs)
            for j in jobs:
                mask = self.eligible[j]
                if mask is not None and machine not in mask:
                    raise InvalidInstanceError(
                        f"job {j} is not eligible on machine {machine}"
                    )
        load = sum(self.p[j] for j in jobs)
        return Fraction(load) / self.speeds[machine]

    def with_graph(self, graph: ConflictGraph) -> "UniformInstance":
        """The same job/machine data under a different graph representation.

        Used by the engine to hand a *structurally* bipartite instance
        (e.g. a 2-colorable block graph) to an algorithm whose
        implementation needs a concrete
        :class:`~repro.graphs.bipartite.BipartiteGraph` with a side
        witness.  The replacement must describe the same job set.
        """
        if graph.n != self.graph.n:
            raise InvalidInstanceError(
                f"replacement graph has {graph.n} vertices for {self.graph.n} jobs"
            )
        return UniformInstance(graph, self.p, self.speeds, self.eligible)

    def to_unrelated(
        self, machines: Sequence[int] | None = None
    ) -> "UnrelatedInstance":
        """Reinterpret as an ``R`` instance, optionally on a machine subset.

        Used by Algorithm 1 (step 3 hands machines ``M_1, M_2`` to the R2
        FPTAS) and by Theorem 4's prepared instances.  Eligibility masks
        translate to forbidden (``None``) time entries.  The times are
        built as ticks on the speeds'
        :func:`~repro.utils.rationals.speed_grid`, with no
        :class:`Fraction` per entry.
        """
        idx = list(range(self.m)) if machines is None else list(machines)
        # p_j / s_i = p_j * u_i / Q on the speeds' grid: integer ticks,
        # which from_ticks reduces to the minimal scale
        quantum, unit_times = speed_grid([self.speeds[i] for i in idx])
        p, masks = self.p, self.eligible
        ticks: list[list[int | None]]
        if masks is None:
            ticks = [[pj * u for pj in p] for u in unit_times]
        else:
            ticks = [
                [
                    pj * u if (mask := masks[j]) is None or i in mask else None
                    for j, pj in enumerate(p)
                ]
                for i, u in zip(idx, unit_times)
            ]
        return UnrelatedInstance.from_ticks(self.graph, quantum, ticks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformInstance(n={self.n}, m={self.m}, sum_p={self.total_p})"


class UnrelatedInstance(SchedulingInstance):
    """``R|G|Cmax`` data: an ``m x n`` processing-time matrix.

    The data is the integer grid of the times: ``ticks[i][j]`` is the
    time of job ``j`` on machine ``i`` in units of ``1 / scale``, or
    ``None`` when the pair is forbidden (Algorithm 5 pins its two
    artificial load jobs this way).  ``scale`` is minimal, as
    :func:`~repro.utils.rationals.time_grid` makes it, so
    ``gcd(scale, *ticks) == 1``; sums of times compare like sums of
    ticks.  :attr:`times` is the same matrix as exact rationals, built
    on first use.

    The constructor takes rationals (ints, ``"num/den"`` strings,
    floats read through their decimal form, :class:`Fraction`);
    :meth:`from_ticks` takes a grid directly and runs the same checks.
    """

    __slots__ = ("graph", "scale", "ticks", "_forbidden", "_times")

    def __init__(
        self,
        graph: ConflictGraph,
        times: Sequence[Sequence[int | float | str | Fraction | None]],
    ) -> None:
        rows: list[tuple[Fraction | None, ...]] = []
        for i, row in enumerate(times):
            if len(row) != graph.n:
                raise InvalidInstanceError(
                    f"times[{i}] has {len(row)} entries for {graph.n} jobs"
                )
            conv: list[Fraction | None] = []
            for j, t in enumerate(row):
                if t is None:
                    conv.append(None)
                else:
                    f = as_fraction(t)
                    if f < 0:
                        raise InvalidInstanceError(
                            f"times[{i}][{j}] must be non-negative, got {t}"
                        )
                    conv.append(f)
            rows.append(tuple(conv))
        scale, ticks = time_grid(rows)
        self._set_grid(graph, scale, ticks)
        self._times: tuple[tuple[Fraction | None, ...], ...] | None = tuple(rows)

    @classmethod
    def from_ticks(
        cls,
        graph: ConflictGraph,
        scale: int,
        ticks: Sequence[Sequence[int | None]],
    ) -> "UnrelatedInstance":
        """The instance whose times are ``ticks[i][j] / scale``.

        Runs the constructor's checks, with its messages, and divides
        ``scale`` and every tick by their gcd, so any integer grid of
        the times (say one from unreduced denominators) gives the same
        instance.  No :class:`Fraction` is built.
        """
        instance = cls.__new__(cls)
        instance._set_grid(graph, scale, ticks)
        instance._times = None
        return instance

    def _set_grid(
        self,
        graph: ConflictGraph,
        scale: int,
        ticks: Sequence[Sequence[int | None]],
    ) -> None:
        if scale < 1:
            raise InvalidInstanceError(f"the time scale must be positive, got {scale}")
        n = graph.n
        rows: list[tuple[int | None, ...]] = []
        finite: list[Sequence[int]] = []
        forbidden = False
        for i, raw in enumerate(ticks):
            row = tuple(raw)
            if len(row) != n:
                raise InvalidInstanceError(f"times[{i}] has {len(row)} entries for {n} jobs")
            values = cast("Sequence[int]", row)
            if None in row:
                forbidden = True
                values = [t for t in row if t is not None]
            if values and min(values) < 0:
                j, t = next((j, t) for j, t in enumerate(row) if t is not None and t < 0)
                raise InvalidInstanceError(
                    f"times[{i}][{j}] must be non-negative, got {Fraction(t, scale)}"
                )
            rows.append(row)
            finite.append(values)
        if not rows:
            raise InvalidInstanceError("need at least one machine")
        if forbidden:
            for j, column in enumerate(zip(*rows)):
                if column.count(None) == len(rows):
                    raise InvalidInstanceError(f"job {j} is forbidden on every machine")
        g = math.gcd(scale, *chain.from_iterable(finite))
        if g > 1:
            scale //= g
            rows = [tuple(None if t is None else t // g for t in row) for row in rows]
        self.graph = graph
        self.scale = scale
        self.ticks: tuple[tuple[int | None, ...], ...] = tuple(rows)
        self._forbidden = forbidden

    @property
    def times(self) -> tuple[tuple[Fraction | None, ...], ...]:
        """``times[i][j] = ticks[i][j] / scale`` as exact rationals."""
        if self._times is None:
            scale = self.scale
            self._times = tuple(
                tuple(None if t is None else Fraction(t, scale) for t in row)
                for row in self.ticks
            )
        return self._times

    @property
    def m(self) -> int:
        return len(self.ticks)

    @property
    def has_eligibility(self) -> bool:
        """Whether any job is forbidden on some machine (a ``None`` time).

        The ``R`` counterpart of :attr:`UniformInstance.has_eligibility`.
        """
        return self._forbidden

    def with_graph(self, graph: ConflictGraph) -> "UnrelatedInstance":
        """The same time matrix under a different graph representation.

        See :meth:`UniformInstance.with_graph`."""
        if graph.n != self.graph.n:
            raise InvalidInstanceError(
                f"replacement graph has {graph.n} vertices for {self.graph.n} jobs"
            )
        return UnrelatedInstance.from_ticks(graph, self.scale, self.ticks)

    def allows(self, machine: int, job: int) -> bool:
        return self.ticks[machine][job] is not None

    def processing_time(self, machine: int, job: int) -> Fraction | None:
        return self.times[machine][job]

    def load_ticks(self, machine: int, jobs: Iterable[int]) -> int | None:
        """Total ticks of ``jobs`` on ``machine``; ``None`` if one is forbidden there."""
        try:
            return sum(cast("Iterator[int]", map(self.ticks[machine].__getitem__, jobs)))
        except TypeError:  # a None tick
            return None

    def machine_completion(self, machine: int, jobs: Iterable[int]) -> Fraction:
        jobs = list(jobs)
        total = self.load_ticks(machine, jobs)
        if total is None:
            j = next(j for j in jobs if self.ticks[machine][j] is None)
            raise InvalidInstanceError(f"job {j} is forbidden on machine {machine}")
        return Fraction(total, self.scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnrelatedInstance(n={self.n}, m={self.m})"


def identical_instance(graph: ConflictGraph, p: Sequence[int], m: int) -> UniformInstance:
    """A ``P|G=bipartite|Cmax`` instance on ``m`` unit-speed machines."""
    return UniformInstance(graph, p, [Fraction(1)] * m)


def unit_uniform_instance(
    graph: ConflictGraph, speeds: Sequence[int | float | str | Fraction]
) -> UniformInstance:
    """A ``Q|G=bipartite, p_j=1|Cmax`` instance (all jobs unit length)."""
    return UniformInstance(graph, [1] * graph.n, speeds)


def make_uniform_instance(
    graph: ConflictGraph,
    p: Sequence[int],
    speeds: Sequence[int | float | str | Fraction],
) -> UniformInstance:
    """Build a :class:`UniformInstance`, sorting speeds non-increasingly."""
    ordered = sorted(as_fraction_tuple(speeds), reverse=True)
    return UniformInstance(graph, p, ordered)
