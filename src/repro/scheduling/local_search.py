"""Local-search polishing of feasible schedules.

The paper's algorithms stop at their guaranteed bounds; a practical
library wants to squeeze the constant.  :func:`improve_schedule` takes
any feasible schedule and applies first-improvement **moves** (relocate
one job off a busiest machine) and **swaps** (exchange two jobs across
machines).  A step is accepted when it improves the pair
``(Cmax, number of machines attaining Cmax)`` lexicographically — the
count tiebreak lets the search drain plateaus where several machines
share the peak, and strict lexicographic descent over a finite state
space guarantees termination.  Every step re-checks independence and
forbidden pairs, so feasibility is invariant; the result is never worse
than the input, hence all approximation guarantees carry over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.scheduling.schedule import Schedule

__all__ = ["LocalSearchResult", "improve_schedule"]


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of :func:`improve_schedule`."""

    schedule: Schedule
    initial_makespan: Fraction
    moves: int
    swaps: int
    rounds: int

    @property
    def improvement(self) -> Fraction:
        """Absolute makespan reduction achieved."""
        return self.initial_makespan - self.schedule.makespan


def improve_schedule(
    schedule: Schedule,
    max_rounds: int = 1000,
) -> LocalSearchResult:
    """Polish ``schedule`` by lexicographic first-improvement steps.

    The input must be feasible (validated).  Each round scans the
    critical machines and applies the first move or swap that lowers
    ``(Cmax, #critical)``; the search stops when a full round finds
    nothing or after ``max_rounds`` steps.
    """
    schedule.assert_feasible()
    inst = schedule.instance
    m = inst.m
    scale, times = inst.grid()
    assignment = list(schedule.assignment)
    machine_jobs: list[set[int]] = [set() for _ in range(m)]
    for j, i in enumerate(assignment):
        machine_jobs[i].add(j)
    # a feasible schedule has a tick on every assigned pair
    loads = [sum(times[i][j] for j in machine_jobs[i]) for i in range(m)]
    initial = Fraction(max(loads), scale)
    graph = inst.graph
    moves = swaps = rounds = 0

    def can_host(i: int, j: int, leaving: int | None = None) -> bool:
        """Whether machine ``i`` may take job ``j`` (graph + forbidden),
        pretending job ``leaving`` has already left it."""
        if times[i][j] is None:
            return False
        others = machine_jobs[i]
        for neighbor in graph.neighbors(j):
            if neighbor in others and neighbor != leaving:
                return False
        return True

    def lex_better(src: int, dst: int, new_src: int, new_dst: int) -> bool:
        """Whether replacing ``loads[src], loads[dst]`` with the new
        values lowers ``(peak, count-at-peak)`` lexicographically."""
        old_peak = max(loads)
        old_count = sum(1 for value in loads if value == old_peak)
        other_peak = max(
            (loads[i] for i in range(m) if i not in (src, dst)),
            default=0,
        )
        new_peak = max(other_peak, new_src, new_dst)
        if new_peak != old_peak:
            return new_peak < old_peak
        new_count = sum(
            1 for i in range(m) if i not in (src, dst) and loads[i] == new_peak
        )
        new_count += (new_src == new_peak) + (new_dst == new_peak)
        return new_count < old_count

    def try_round() -> bool:
        nonlocal moves, swaps
        cmax = max(loads)
        critical = [i for i in range(m) if loads[i] == cmax]
        for src in critical:
            for j in sorted(machine_jobs[src]):
                t_src = times[src][j]
                # relocation: src loses j, dst gains it
                for dst in sorted(range(m), key=lambda i: loads[i]):
                    if dst == src:
                        continue
                    t_dst = times[dst][j]
                    if t_dst is None or not can_host(dst, j):
                        continue
                    if lex_better(src, dst, loads[src] - t_src, loads[dst] + t_dst):
                        _apply_move(j, src, dst, t_src, t_dst)
                        moves += 1
                        return True
                # swap: j leaves src, some job k arrives from dst
                for dst in range(m):
                    if dst == src:
                        continue
                    for k in sorted(machine_jobs[dst]):
                        t_k_dst = times[dst][k]
                        t_k_src = times[src][k]
                        t_j_dst = times[dst][j]
                        if t_k_src is None or t_j_dst is None:
                            continue
                        if not can_host(src, k, leaving=j):
                            continue
                        if not can_host(dst, j, leaving=k):
                            continue
                        new_src = loads[src] - t_src + t_k_src
                        new_dst = loads[dst] - t_k_dst + t_j_dst
                        if lex_better(src, dst, new_src, new_dst):
                            _apply_swap(j, k, src, dst)
                            swaps += 1
                            return True
        return False

    def _apply_move(j: int, src: int, dst: int, t_src, t_dst) -> None:
        machine_jobs[src].remove(j)
        machine_jobs[dst].add(j)
        loads[src] -= t_src
        loads[dst] += t_dst
        assignment[j] = dst

    def _apply_swap(j: int, k: int, src: int, dst: int) -> None:
        machine_jobs[src].remove(j)
        machine_jobs[dst].remove(k)
        machine_jobs[src].add(k)
        machine_jobs[dst].add(j)
        loads[src] += times[src][k] - times[src][j]
        loads[dst] += times[dst][j] - times[dst][k]
        assignment[j] = dst
        assignment[k] = src

    while rounds < max_rounds and try_round():
        rounds += 1

    improved = Schedule(inst, assignment)
    # repro: allow[RS004] reason=monotonicity invariant of the accept-only-improving loop; a regression is a solver bug, not bad input
    assert improved.makespan <= initial, "local search must never regress"
    return LocalSearchResult(
        schedule=improved,
        initial_makespan=initial,
        moves=moves,
        swaps=swaps,
        rounds=rounds,
    )
