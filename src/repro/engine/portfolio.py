"""Portfolio execution: race k eligible algorithms, keep the best.

``auto`` dispatch picks the single method the policy ranks strongest,
but on concrete instances a lower-ranked method (or a heuristic with no
worst-case guarantee) often lands a better makespan.  The portfolio runs
up to ``k`` eligible algorithms one after another in-process and
returns the best *feasible* schedule, with an early cutoff the moment
some result matches the instance's exact lower bound
(:mod:`repro.scheduling.bounds` via
:func:`repro.certify.validators.instance_lower_bound`): a schedule at
the lower bound is provably optimal, so the rest of the race is moot.

By construction the portfolio is never worse than ``auto``: the auto
choice is always the first candidate, and losing entries are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from repro.certify.validators import instance_lower_bound
from repro.engine.dispatch import auto_choice
from repro.engine.registry import REGISTRY
from repro.exceptions import InvalidInstanceError, ReproError
from repro.scheduling.instance import SchedulingInstance
from repro.scheduling.schedule import Schedule

__all__ = [
    "PortfolioEntry",
    "PortfolioResult",
    "portfolio_candidates",
    "portfolio_solve",
]


@dataclass(frozen=True)
class PortfolioEntry:
    """One raced algorithm's outcome.

    ``makespan`` is ``None`` when the algorithm errored (``error`` holds
    the declared failure) or produced an infeasible schedule
    (``feasible=False``), or when the race was cut off before this
    entry ran (``skipped=True``).
    """

    algorithm: str
    makespan: Fraction | None
    wall_time_s: float
    feasible: bool
    error: str | None = None
    skipped: bool = False


@dataclass(frozen=True)
class PortfolioResult:
    """The winning schedule of one portfolio race, with the full field."""

    chosen: str
    makespan: Fraction
    schedule: Schedule
    lower_bound: Fraction | None
    cutoff: bool
    entries: tuple[PortfolioEntry, ...]
    wall_time_s: float

    def table(self) -> str:
        """Aligned monospace rendering of the race (CLI output)."""
        from repro.analysis.tables import format_table

        rows = []
        for e in self.entries:
            if e.skipped:
                outcome = "skipped (cutoff)"
            elif e.error is not None:
                outcome = f"error: {e.error}"
            elif not e.feasible:
                outcome = "infeasible"
            else:
                outcome = "ok"
            rows.append(
                [
                    ("->" if e.algorithm == self.chosen else "") + e.algorithm,
                    "-" if e.makespan is None else str(e.makespan),
                    f"{e.wall_time_s * 1e3:.2f}",
                    outcome,
                ]
            )
        title = (
            f"portfolio: {self.chosen!r} wins with Cmax={self.makespan}"
            + (" (provably optimal, early cutoff)" if self.cutoff else "")
        )
        return format_table(
            ["algorithm", "Cmax", "time (ms)", "outcome"], rows, title=title
        )


def portfolio_candidates(instance: SchedulingInstance, k: int = 3) -> list[str]:
    """Up to ``k`` algorithm names worth racing on ``instance``.

    The ``auto`` choice always leads (so the portfolio can never lose to
    it); the remaining slots fill with other applicable methods in rank
    order, then registration order.  Excluded: ``exponential`` searches
    (they would dominate any race) and, on graphs with edges,
    ``graph_blind`` baselines (their schedules would be infeasible and
    could never win).

    Raises whatever :func:`auto_choice` raises — an instance auto
    dispatch rejects as infeasible has no portfolio either.
    """
    if k < 1:
        raise InvalidInstanceError(f"portfolio size must be >= 1, got {k}")
    first = auto_choice(instance)
    names = [first]
    edged = instance.graph.edge_count > 0
    eligible = [
        spec
        for spec in REGISTRY.values()
        if spec.name != first
        and not spec.exponential
        and not (spec.graph_blind and edged)
        and spec.applies(instance)
    ]
    ranked = sorted(
        range(len(eligible)),
        key=lambda i: (
            eligible[i].auto_rank is None,
            eligible[i].auto_rank if eligible[i].auto_rank is not None else i,
            i,
        ),
    )
    names.extend(eligible[i].name for i in ranked)
    return names[:k]


def portfolio_solve(
    instance: SchedulingInstance,
    k: int = 3,
    early_cutoff: bool = True,
) -> PortfolioResult:
    """Race up to ``k`` eligible algorithms and keep the best schedule.

    Candidates run one after another in-process; makespan ties keep the
    earlier candidate.

    Parameters
    ----------
    instance:
        The instance to schedule.
    k:
        Maximum number of algorithms raced
        (:func:`portfolio_candidates`).
    early_cutoff:
        Stop the race as soon as some feasible makespan reaches the
        instance's exact lower bound (the schedule is then provably
        optimal); remaining candidates are reported ``skipped``.

    Returns
    -------
    PortfolioResult
        Winner, per-entry outcomes, and whether the cutoff fired.

    Raises
    ------
    repro.exceptions.InfeasibleInstanceError
        If auto dispatch already rejects the instance.
    repro.exceptions.ReproError
        If *every* raced candidate failed or produced an infeasible
        schedule (cannot happen with the built-in registry: the auto
        choice is always feasible there).
    """
    candidates = portfolio_candidates(instance, k)
    lower = instance_lower_bound(instance)
    start = perf_counter()
    entries: list[PortfolioEntry] = []
    best_name: str | None = None
    best_schedule: Schedule | None = None
    cutoff = False
    for position, name in enumerate(candidates):
        if cutoff:
            entries.append(
                PortfolioEntry(name, None, 0.0, False, skipped=True)
            )
            continue
        t0 = perf_counter()
        try:
            schedule = REGISTRY[name].run(instance)
        except ReproError as exc:
            entries.append(
                PortfolioEntry(
                    name, None, perf_counter() - t0, False, error=str(exc)
                )
            )
            continue
        except Exception as exc:  # noqa: BLE001 — one crashing (plugin)
            # candidate must not abort the race and discard the others'
            # finished schedules; the typed error keeps the defect loud
            entries.append(
                PortfolioEntry(
                    name,
                    None,
                    perf_counter() - t0,
                    False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        elapsed = perf_counter() - t0
        feasible = schedule.is_feasible()
        entries.append(
            PortfolioEntry(
                name, schedule.makespan if feasible else None, elapsed, feasible
            )
        )
        if feasible and (
            best_schedule is None or schedule.makespan < best_schedule.makespan
        ):
            best_name, best_schedule = name, schedule
            if early_cutoff and lower is not None and schedule.makespan <= lower:
                cutoff = position + 1 < len(candidates)

    wall = perf_counter() - start
    if best_name is None or best_schedule is None:
        detail = "; ".join(
            f"{e.algorithm}: {e.error or 'infeasible'}" for e in entries
        )
        raise ReproError(f"portfolio found no feasible schedule ({detail})")
    return PortfolioResult(
        chosen=best_name,
        makespan=best_schedule.makespan,
        schedule=best_schedule,
        lower_bound=lower,
        cutoff=cutoff,
        entries=tuple(entries),
        wall_time_s=wall,
    )
