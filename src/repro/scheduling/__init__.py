"""Scheduling substrate: instances, schedules, exact lower bounds, list
scheduling, exact solvers (branch-and-bound, two-machine dynamic
programming / FPTAS) and the literature baselines used for comparison."""

from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
    UnrelatedInstance,
    identical_instance,
    unit_uniform_instance,
    make_uniform_instance,
)
from repro.scheduling.schedule import Schedule
from repro.scheduling.bounds import (
    min_cover_time,
    area_lower_bound,
    pmax_lower_bound,
    uniform_capacity_lower_bound,
    unrelated_lower_bound,
)
from repro.scheduling.list_scheduling import (
    assign_group_greedy,
    schedule_job_classes,
    graph_aware_greedy,
)
from repro.scheduling.brute_force import brute_force_optimal, brute_force_makespan
from repro.scheduling.dp_unrelated import solve_r2_dp, DPResult
from repro.scheduling.baselines import (
    bjw_identical_approx,
    r_color_split,
    two_machine_split,
    unconstrained_lpt,
)
from repro.scheduling.dual_approx import (
    DualApproxResult,
    dual_approx_identical,
    dual_feasibility_test,
)
from repro.scheduling.lp_rounding import (
    LpRoundingResult,
    greedy_min_time_schedule,
    lst_two_approx,
)
from repro.scheduling.local_search import LocalSearchResult, improve_schedule
from repro.scheduling.conflict_split import (
    conflict_color_split,
    greedy_coloring,
    mcs_order,
)

__all__ = [
    "SchedulingInstance",
    "UniformInstance",
    "UnrelatedInstance",
    "identical_instance",
    "unit_uniform_instance",
    "make_uniform_instance",
    "Schedule",
    "min_cover_time",
    "area_lower_bound",
    "pmax_lower_bound",
    "uniform_capacity_lower_bound",
    "unrelated_lower_bound",
    "assign_group_greedy",
    "schedule_job_classes",
    "graph_aware_greedy",
    "brute_force_optimal",
    "brute_force_makespan",
    "solve_r2_dp",
    "DPResult",
    "bjw_identical_approx",
    "r_color_split",
    "two_machine_split",
    "unconstrained_lpt",
    "DualApproxResult",
    "dual_approx_identical",
    "dual_feasibility_test",
    "LpRoundingResult",
    "greedy_min_time_schedule",
    "lst_two_approx",
    "LocalSearchResult",
    "improve_schedule",
    "conflict_color_split",
    "greedy_coloring",
    "mcs_order",
]
