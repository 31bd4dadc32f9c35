"""Capability matching, ranked ``auto`` selection, and explain mode.

Dispatch policy (lowest ``auto_rank`` among applicable methods wins,
reproducing the pre-engine first-match table exactly):

==============================  =============================================
condition                       method
==============================  =============================================
``Q``, unit jobs, ``K_{a,b}``   exact unary algorithm ([20]/[24]); also
(+ isolated vertices)           covers unit-job edgeless instances exactly
``Q``, unit jobs, ``m = 2``     exact Theorem 4 algorithm
``Q``, edgeless, identical      dual-approximation PTAS ([11], ``1 + 1/3``)
``Q``, ``m = 2``                Algorithm 5 on ``to_unrelated()``
                                (``1 + 1/10``, the Theorem 4 route)
``Q``, edgeless                 graph-blind LPT (feasible here; factor 2)
``Q``, otherwise                Algorithm 1 (``sqrt(sum p_j)``-approx, Thm 9)
``R``, ``m = 2``                Algorithm 5 FPTAS (``eps = 1/10``)
``R``, edgeless                 Lenstra–Shmoys–Tardos 2-approx ([18])
``R``, otherwise                color split (Theorem 24 forbids guarantees)
==============================  =============================================

Every method is also callable by name (``algorithm="sqrt_approx"``), and
:func:`explain_dispatch` reports, per registered algorithm, *why* it was
chosen or rejected (``repro solve --explain``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.registry import REGISTRY, AlgorithmSpec
from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
    UnrelatedInstance,
)
from repro.scheduling.schedule import Schedule

__all__ = [
    "DispatchEntry",
    "DispatchReport",
    "auto_choice",
    "available_algorithms",
    "explain_dispatch",
    "solve",
]


def available_algorithms(
    instance: SchedulingInstance | None = None,
) -> list[AlgorithmSpec]:
    """All registered algorithms, optionally filtered by applicability.

    Parameters
    ----------
    instance:
        When given, only specs whose preconditions hold for this
        instance are returned (``spec.applies(instance)``).

    Returns
    -------
    list of AlgorithmSpec
        Registry entries in registration order.
    """
    specs = REGISTRY.specs()
    if instance is None:
        return specs
    return [s for s in specs if s.applies(instance)]


def _auto_eligible(spec: AlgorithmSpec, instance: SchedulingInstance) -> bool:
    """Whether ``spec`` participates in auto selection for ``instance``."""
    if spec.auto_rank is None or not spec.applies(instance):
        return False
    return spec.auto_when is None or spec.auto_when.check(instance)


def auto_choice(instance: SchedulingInstance) -> str:
    """The algorithm name ``solve(instance, "auto")`` would run.

    Ranked capability matching: among registered specs that apply to the
    instance *and* carry an ``auto_rank`` (plus any ``auto_when``
    selection constraint), the lowest rank wins.  Exposed so batch
    drivers (:mod:`repro.runtime`) and reports can record which
    registered method the dispatch policy resolved to without
    re-implementing the policy.

    Parameters
    ----------
    instance:
        The instance the dispatch policy inspects (machine environment,
        unit jobs, graph structure).

    Returns
    -------
    str
        A key of the registry.

    Raises
    ------
    repro.exceptions.InfeasibleInstanceError
        If the instance has conflict edges but only one machine (no
        feasible schedule can exist).
    repro.exceptions.InvalidInstanceError
        If the instance type is not registered.
    """
    if not isinstance(instance, (UniformInstance, UnrelatedInstance)):
        raise InvalidInstanceError(
            f"unknown instance type {type(instance).__name__}"
        )
    best: AlgorithmSpec | None = None
    for spec in REGISTRY.values():
        if _auto_eligible(spec, instance) and (
            best is None or spec.auto_rank < best.auto_rank
        ):
            best = spec
    if best is not None:
        return best.name
    raise InfeasibleInstanceError(
        "instances with conflicts need at least two machines"
    )


@dataclass(frozen=True)
class DispatchEntry:
    """One algorithm's verdict inside a :class:`DispatchReport`."""

    name: str
    guarantee: str
    anchor: str
    applicable: bool
    auto_rank: int | None
    chosen: bool
    why: str

    def to_dict(self) -> dict:
        """JSON-safe form (the serving layer streams these)."""
        return {
            "name": self.name,
            "guarantee": self.guarantee,
            "anchor": self.anchor,
            "applicable": self.applicable,
            "auto_rank": self.auto_rank,
            "chosen": self.chosen,
            "why": self.why,
        }


@dataclass(frozen=True)
class DispatchReport:
    """Per-algorithm accept/reject reasons for one dispatch decision.

    ``chosen`` is the resolved algorithm name (``None`` when dispatch
    itself failed, with ``error`` saying why); ``entries`` cover every
    registered algorithm in registration order.
    """

    algorithm: str
    chosen: str | None
    error: str | None
    entries: tuple[DispatchEntry, ...]

    def why_chosen(self) -> str | None:
        """The chosen entry's reason string (``None`` if nothing chosen)."""
        for entry in self.entries:
            if entry.chosen:
                return entry.why
        return None

    def why_rejected(self) -> dict[str, str]:
        """``name -> reason`` for every non-chosen algorithm."""
        return {e.name: e.why for e in self.entries if not e.chosen}

    def table(self) -> str:
        """Aligned monospace rendering (what ``solve --explain`` prints)."""
        from repro.analysis.tables import format_table

        rows = [
            [
                ("->" if e.chosen else "") + e.name,
                "yes" if e.applicable else "no",
                "-" if e.auto_rank is None else e.auto_rank,
                e.why,
            ]
            for e in self.entries
        ]
        title = (
            f"dispatch: chose {self.chosen!r}"
            if self.chosen is not None
            else f"dispatch failed: {self.error}"
        )
        return format_table(
            ["algorithm", "applies", "rank", "why"], rows, title=title
        )

    def to_dict(self) -> dict:
        """JSON-safe form (the serving layer streams these)."""
        return {
            "algorithm": self.algorithm,
            "chosen": self.chosen,
            "error": self.error,
            "entries": [e.to_dict() for e in self.entries],
        }


def explain_dispatch(
    instance: SchedulingInstance, algorithm: str = "auto"
) -> DispatchReport:
    """Why each registered algorithm was (not) selected for ``instance``.

    With ``algorithm="auto"`` the report walks the ranked policy; with a
    named algorithm it reports that method's precondition check and
    marks everything else "not requested".  Never raises for dispatch
    failures — they land in :attr:`DispatchReport.error` so explain mode
    can describe infeasible instances too.
    """
    chosen: str | None = None
    error: str | None = None
    if algorithm == "auto":
        try:
            chosen = auto_choice(instance)
        except (InfeasibleInstanceError, InvalidInstanceError) as exc:
            error = str(exc)
    elif algorithm in REGISTRY:
        chosen = algorithm if REGISTRY[algorithm].applies(instance) else None
        if chosen is None:
            error = f"algorithm {algorithm!r} does not apply to this instance"
    else:
        error = f"unknown algorithm {algorithm!r}"

    entries: list[DispatchEntry] = []
    for spec in REGISTRY.values():
        applicable, reasons = spec.matches(instance)
        is_chosen = spec.name == chosen
        if is_chosen:
            if algorithm == "auto":
                why = (
                    f"selected: strongest applicable ranked method "
                    f"(rank {spec.auto_rank})"
                )
            else:
                why = "selected: explicitly requested"
        elif not applicable:
            why = "; ".join(reasons)
        elif algorithm != "auto":
            why = "applies, but a different algorithm was requested"
        elif spec.auto_rank is None:
            why = "applies, but is callable by name only (not in the auto policy)"
        elif spec.auto_when is not None and not spec.auto_when.check(instance):
            constraint = ", ".join(spec.auto_when.requirements())
            why = f"applies, but auto selection additionally needs: {constraint}"
        elif chosen is not None:
            why = (
                f"applies, but rank {spec.auto_rank} loses to "
                f"{chosen!r} (rank {REGISTRY[chosen].auto_rank})"
            )
        else:
            why = "applies, but dispatch failed before selection"
        entries.append(
            DispatchEntry(
                name=spec.name,
                guarantee=spec.guarantee,
                anchor=spec.anchor,
                applicable=applicable,
                auto_rank=spec.auto_rank,
                chosen=is_chosen,
                why=why,
            )
        )
    return DispatchReport(
        algorithm=algorithm, chosen=chosen, error=error, entries=tuple(entries)
    )


def solve(instance: SchedulingInstance, algorithm: str = "auto") -> Schedule:
    """Schedule ``instance`` with the requested (or auto-chosen) method.

    Parameters
    ----------
    instance:
        A :class:`~repro.scheduling.instance.UniformInstance` or
        :class:`~repro.scheduling.instance.UnrelatedInstance`.
    algorithm:
        ``"auto"`` (default) applies the ranked dispatch policy in the
        module docstring; any other value must be a registered name.

    Returns
    -------
    repro.scheduling.schedule.Schedule
        The produced schedule.  Graph-blind baselines may return an
        infeasible schedule on graphs with edges — check
        :meth:`~repro.scheduling.schedule.Schedule.is_feasible`.

    Raises
    ------
    repro.exceptions.InvalidInstanceError
        If ``algorithm`` is unknown, or its preconditions fail for this
        instance.
    repro.exceptions.InfeasibleInstanceError
        If no feasible schedule exists (propagated from dispatch or the
        exact methods).

    Examples
    --------
    >>> from repro import BipartiteGraph, UniformInstance, solve
    >>> graph = BipartiteGraph(4, [(0, 2), (1, 3)])
    >>> inst = UniformInstance(graph, p=[5, 3, 4, 2], speeds=[3, 2, 1])
    >>> schedule = solve(inst)
    >>> schedule.is_feasible()
    True
    """
    name = auto_choice(instance) if algorithm == "auto" else algorithm
    spec = REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(REGISTRY))
        raise InvalidInstanceError(f"unknown algorithm {name!r}; known: {known}")
    if not spec.applies(instance):
        raise InvalidInstanceError(
            f"algorithm {name!r} does not apply to this instance "
            f"({spec.guarantee}; {spec.anchor})"
        )
    return spec.execute(instance)
