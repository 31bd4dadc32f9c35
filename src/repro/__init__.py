"""repro — reproduction of *"Scheduling on uniform and unrelated machines
with bipartite incompatibility graphs"* (Pikies & Furmańczyk, IPPS 2022,
arXiv:2106.14354).

The model: jobs with a bipartite *incompatibility graph* must be assigned
to machines so that each machine's job set is an independent set, while
minimising makespan.  This package provides

* the paper's algorithms — Algorithm 1 (:func:`sqrt_approx_schedule`),
  Algorithm 2 (:func:`random_graph_schedule`), Algorithms 3-5 for two
  unrelated machines (:func:`reduce_r2`, :func:`r2_two_approx`,
  :func:`r2_fptas`) and the exact ``Q2`` unit-job algorithm of Theorem 4
  (:func:`q2_unit_exact`);
* the substrate they need — bipartite graph algorithms (matching,
  König covers, max-weight independent sets, inequitable colorings),
  exact capacity lower bounds, list scheduling, exact solvers;
* the hardness constructions of Theorems 8 and 24 as executable
  reductions; and
* the Section 4.1 random-graph theory with Monte-Carlo estimators.

Quickstart::

    from fractions import Fraction
    from repro import BipartiteGraph, UniformInstance, sqrt_approx_schedule

    graph = BipartiteGraph(4, [(0, 2), (1, 3)])      # two incompatible pairs
    inst = UniformInstance(graph, p=[5, 3, 4, 2], speeds=[3, 2, 1])
    result = sqrt_approx_schedule(inst)
    print(result.schedule.assignment, result.schedule.makespan)
"""

from repro.exceptions import (
    ReproError,
    NotBipartiteError,
    InfeasibleInstanceError,
    BoundExcludedError,
    InvalidInstanceError,
    InvalidScheduleError,
    CacheCollisionError,
    BenchSchemaError,
)
from repro.graphs import (
    BipartiteGraph,
    connected_components,
    proper_two_coloring,
    inequitable_two_coloring,
    hopcroft_karp,
    maximum_matching_size,
    min_weight_vertex_cover,
    max_weight_independent_set,
    max_weight_independent_set_containing,
    independence_number,
    PrExtInstance,
    solve_prext,
)
from repro.scheduling import (
    UniformInstance,
    UnrelatedInstance,
    identical_instance,
    unit_uniform_instance,
    make_uniform_instance,
    Schedule,
    min_cover_time,
    uniform_capacity_lower_bound,
    brute_force_optimal,
    solve_r2_dp,
    graph_aware_greedy,
    bjw_identical_approx,
)
from repro.core import (
    sqrt_approx_schedule,
    satisfies_sqrt_guarantee,
    SqrtApproxResult,
    random_graph_schedule,
    reduce_r2,
    r2_two_approx,
    r2_fptas,
    q2_unit_exact,
    feasible_first_machine_counts,
)
from repro.hardness import theorem8_reduction, theorem24_reduction
from repro.random_graphs import gnnp

# Single-sourced from pyproject.toml: installed wheels read the
# distribution metadata; source checkouts (PYTHONPATH=src, the CI
# workflow) use the constant below, which MUST match [project].version —
# the release test pins the two together.  The source tree is detected
# first so a *different* version pip-installed elsewhere on the machine
# can never misreport the code actually being executed.
_FALLBACK_VERSION = "1.9.0"


def _resolve_version() -> str:  # pragma: no cover — per-install-mode
    from pathlib import Path

    here = Path(__file__).resolve()
    # this checkout's layout is <root>/src/repro/ — require the "src"
    # segment so an unrelated pyproject.toml above an installed copy
    # (pip --target into some project tree) cannot masquerade as us
    if (
        here.parents[1].name == "src"
        and (here.parents[2] / "pyproject.toml").is_file()
    ):
        return _FALLBACK_VERSION  # running from a source checkout
    try:
        from importlib.metadata import version as _dist_version

        return _dist_version("repro-bipartite-scheduling")
    except Exception:  # no dist-info: vendored/zipped tree
        return _FALLBACK_VERSION


__version__ = _resolve_version()

# imported below the paper-facing API so the registry sees every algorithm
from repro.core import (
    MultipartiteSolution,
    complete_multipartite_min_time,
    schedule_complete_bipartite_unit,
)
from repro.graphs import GraphStructure, analyze_structure
from repro.scheduling import (
    DualApproxResult,
    LpRoundingResult,
    dual_approx_identical,
    lst_two_approx,
    r_color_split,
)
from repro.engine import (
    ALGORITHMS,
    REGISTRY,
    AlgorithmRegistry,
    AlgorithmSpec,
    Capability,
    DispatchReport,
    EngineService,
    PortfolioResult,
    auto_choice,
    available_algorithms,
    explain_dispatch,
    portfolio_solve,
    register_algorithm,
    solve,
    unregister_algorithm,
)
from repro.runtime import (
    BatchResult,
    BatchRunner,
    BatchStats,
    BatchTask,
    ResultCache,
    ShardedResultCache,
)
from repro.workloads import (
    UNRELATED_MODELS,
    build_machines_instance,
    build_unrelated_instance,
)
from repro.certify import (
    AuditRow,
    CertificateReport,
    OracleResult,
    VIOLATION_STATUSES,
    audit_guarantees,
    audit_instance,
    certified_optimal,
    certify_schedule,
)
from repro.perf import (
    BenchPhase,
    BenchRecord,
    ProfileReport,
    TimingResult,
    measure,
    profile_top,
    validate_bench_record,
    write_bench_record,
)

__all__ = [
    "ReproError",
    "NotBipartiteError",
    "InfeasibleInstanceError",
    "BoundExcludedError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "CacheCollisionError",
    "BipartiteGraph",
    "connected_components",
    "proper_two_coloring",
    "inequitable_two_coloring",
    "hopcroft_karp",
    "maximum_matching_size",
    "min_weight_vertex_cover",
    "max_weight_independent_set",
    "max_weight_independent_set_containing",
    "independence_number",
    "PrExtInstance",
    "solve_prext",
    "UniformInstance",
    "UnrelatedInstance",
    "identical_instance",
    "unit_uniform_instance",
    "make_uniform_instance",
    "Schedule",
    "min_cover_time",
    "uniform_capacity_lower_bound",
    "brute_force_optimal",
    "solve_r2_dp",
    "graph_aware_greedy",
    "bjw_identical_approx",
    "sqrt_approx_schedule",
    "satisfies_sqrt_guarantee",
    "SqrtApproxResult",
    "random_graph_schedule",
    "reduce_r2",
    "r2_two_approx",
    "r2_fptas",
    "q2_unit_exact",
    "feasible_first_machine_counts",
    "theorem8_reduction",
    "theorem24_reduction",
    "gnnp",
    "MultipartiteSolution",
    "complete_multipartite_min_time",
    "schedule_complete_bipartite_unit",
    "GraphStructure",
    "analyze_structure",
    "DualApproxResult",
    "LpRoundingResult",
    "dual_approx_identical",
    "lst_two_approx",
    "r_color_split",
    "ALGORITHMS",
    "REGISTRY",
    "AlgorithmRegistry",
    "AlgorithmSpec",
    "Capability",
    "DispatchReport",
    "EngineService",
    "PortfolioResult",
    "auto_choice",
    "available_algorithms",
    "explain_dispatch",
    "portfolio_solve",
    "register_algorithm",
    "unregister_algorithm",
    "solve",
    "BatchResult",
    "BatchRunner",
    "BatchStats",
    "BatchTask",
    "ResultCache",
    "ShardedResultCache",
    "UNRELATED_MODELS",
    "build_machines_instance",
    "build_unrelated_instance",
    "AuditRow",
    "CertificateReport",
    "OracleResult",
    "VIOLATION_STATUSES",
    "audit_guarantees",
    "audit_instance",
    "certified_optimal",
    "certify_schedule",
    "BenchSchemaError",
    "BenchPhase",
    "BenchRecord",
    "ProfileReport",
    "TimingResult",
    "measure",
    "profile_top",
    "validate_bench_record",
    "write_bench_record",
    "__version__",
]
