"""ASCII Gantt charts and schedule summaries.

Makespan scheduling without preemption fixes only the job-to-machine
assignment; within a machine we draw jobs back-to-back in id order.  The
renderer is exact-arithmetic aware: bar lengths are scaled from rational
completion times, and the makespan ruler is printed verbatim.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.tables import format_table, render_number
from repro.scheduling.schedule import Schedule

__all__ = ["render_gantt", "render_schedule_summary"]


def _bar(segments: list[tuple[int, int]], scale: Fraction, width: int) -> str:
    """One machine's bar: each job drawn as its id repeated to length.

    ``segments`` are ``(job, ticks)`` pairs; ``scale`` converts ticks to
    columns.  Every job occupies at least one column so short jobs stay
    visible; the bar is clipped to ``width`` (clipping only triggers when
    minimum-width padding overflows).
    """
    out: list[str] = []
    for job, duration in segments:
        cols = max(1, round(float(duration * scale)))
        label = str(job)
        if cols >= len(label) + 2:
            body = label.center(cols - 2, "-")
            out.append("[" + body + "]")
        else:
            out.append("#" * cols)
    bar = "".join(out)
    return bar[:width]


def render_gantt(schedule: Schedule, width: int = 64) -> str:
    """Render ``schedule`` as an ASCII Gantt chart.

    One row per machine: ``M<i> |[---0---][-3-]#  | <completion>``.
    Rows are scaled so the latest-finishing machine spans ``width``
    columns.  Zero-duration schedules render as an empty chart.
    """
    inst = schedule.instance
    makespan = schedule.makespan
    lines: list[str] = [
        f"Gantt chart: {inst.n} jobs on {inst.m} machines, "
        f"Cmax = {render_number(makespan)}"
    ]
    if makespan == 0:
        for i in range(inst.m):
            lines.append(f"M{i:<3}|{' ' * width}| 0")
        return "\n".join(lines)
    grid_scale, ticks = inst.grid()
    scale = Fraction(width) / (makespan * grid_scale)
    completions = schedule.completion_times()
    for i, jobs in enumerate(schedule.machine_groups()):
        segments = []
        for j in jobs:
            t = ticks[i][j]
            if t is None:  # pragma: no cover - infeasible placements skipped
                continue
            segments.append((j, t))
        bar = _bar(segments, scale, width)
        lines.append(
            f"M{i:<3}|{bar:<{width}}| {render_number(completions[i])}"
        )
    ruler = f"{'0':<{width // 2}}{render_number(makespan):>{width // 2}}"
    lines.append("    |" + ruler + "|")
    return "\n".join(lines)


def render_schedule_summary(schedule: Schedule) -> str:
    """Per-machine table: job list, job count, completion time, share."""
    inst = schedule.instance
    makespan = schedule.makespan
    completions = schedule.completion_times()
    rows = []
    for i, jobs in enumerate(schedule.machine_groups()):
        share = (
            float(completions[i] / makespan) if makespan else 0.0
        )
        job_list = ",".join(map(str, jobs)) if jobs else "-"
        if len(job_list) > 40:
            job_list = job_list[:37] + "..."
        rows.append([f"M{i}", len(jobs), job_list, completions[i], f"{share:.0%}"])
    status = "feasible" if schedule.is_feasible() else "INFEASIBLE"
    return format_table(
        ["machine", "jobs", "job ids", "completion", "of Cmax"],
        rows,
        title=f"Schedule: Cmax = {render_number(makespan)} ({status})",
    )
