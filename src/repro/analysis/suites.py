"""Named instance suites shared by the benchmarks, and batch aggregation.

Keeping the workloads in one place makes experiment tables comparable:
E2 (Algorithm 1 ratios), E5/E6 (R2 algorithms) and E9 (baseline
comparison) all draw from these families.  :func:`summarize_batch`
closes the loop on the other side: it folds a
:class:`~repro.runtime.batch.BatchResult` stream (from
:class:`~repro.runtime.batch.BatchRunner` or a results JSONL) into the
per-algorithm aggregate rows the experiment tables are built from.
"""

from __future__ import annotations

from typing import Any, Iterable, Literal

import numpy as np

from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.machines.profiles import (
    geometric_speeds,
    identical_speeds,
    power_law_speeds,
    random_integer_speeds,
    two_fast_speeds,
)
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.utils.rng import ensure_rng

__all__ = [
    "standard_graph_families",
    "job_weight_profile",
    "speed_profile_suite",
    "random_r2_instance",
    "standard_uniform_suite",
    "unrelated_workload_suite",
    "certification_suite",
    "workload_model_of",
    "summarize_batch",
    "summarize_models",
    "batch_summary_table",
    "model_ratio_table",
    "violation_table",
    "certification_summary",
    "portfolio_gain_rows",
]

WeightKind = Literal["unit", "uniform", "heavy_tailed", "one_giant"]


def standard_graph_families(
    n: int, seed=None
) -> list[tuple[str, BipartiteGraph]]:
    """The graph families used across experiment tables.

    ``n`` is a *target* vertex count; each family hits it approximately
    (exact counts depend on the family's structure).
    """
    rng = ensure_rng(seed)
    half = max(1, n // 2)
    return [
        ("empty", generators.empty_graph(n)),
        ("matching", generators.matching_graph(half)),
        ("path", generators.path_graph(n)),
        ("cycle", generators.even_cycle(n if n % 2 == 0 else n + 1)),
        ("star", generators.star(n - 1)),
        ("double_star", generators.double_star(half - 1, n - half - 1)),
        ("caterpillar", generators.caterpillar(max(1, n // 4), 3)),
        ("tree", generators.random_tree(n, rng)),
        ("forest", generators.random_forest(n, max(1, n // 8), rng)),
        ("complete_bipartite", generators.complete_bipartite(half, n - half)),
        ("crown", generators.crown(half)),
        ("degree_bounded_3", generators.random_bipartite_degree_bounded(half, n - half, 3, rng)),
        ("gilbert_sparse", gnnp(half, min(1.0, 1.5 / half), rng)),
        ("gilbert_dense", gnnp(half, min(1.0, 0.3), rng)),
    ]


def job_weight_profile(n: int, kind: WeightKind, seed=None) -> tuple[int, ...]:
    """Processing requirements for ``n`` jobs.

    * ``unit`` — all 1 (the ``p_j = 1`` restriction);
    * ``uniform`` — iid uniform ``{1..20}``;
    * ``heavy_tailed`` — Pareto-like (many small, few large): stresses
      Algorithm 1's heavy-job independent set;
    * ``one_giant`` — one job of weight ``~n`` among units: forces the
      ``p_max`` condition of ``C**max``.
    """
    rng = ensure_rng(seed)
    if kind == "unit":
        return tuple(1 for _ in range(n))
    if kind == "uniform":
        return tuple(int(x) for x in rng.integers(1, 21, size=n))
    if kind == "heavy_tailed":
        raw = rng.pareto(1.2, size=n) + 1.0
        return tuple(int(min(x, 50 * n)) for x in np.ceil(raw))
    if kind == "one_giant":
        p = [1] * n
        p[int(rng.integers(0, n))] = max(2, n)
        return tuple(p)
    raise ValueError(f"unknown weight profile {kind!r}")


def speed_profile_suite(m: int, seed=None) -> list[tuple[str, tuple]]:
    """The machine-speed profiles used across experiment tables."""
    rng = ensure_rng(seed)
    profiles: list[tuple[str, tuple]] = [
        ("identical", identical_speeds(m)),
        ("power_law", power_law_speeds(m)),
        ("random_int", random_integer_speeds(m, 1, 10, rng)),
    ]
    if m >= 2:
        profiles.append(("two_fast", two_fast_speeds(m, 4)))
    if m <= 12:
        profiles.append(("geometric", geometric_speeds(m, 2)))
    return profiles


def standard_uniform_suite(
    n: int = 24, m: int = 4, weight_kind: WeightKind = "uniform", seed=None
) -> list[tuple[str, UniformInstance]]:
    """Cross product of graph families with one weight/speed draw each."""
    rng = ensure_rng(seed)
    out: list[tuple[str, UniformInstance]] = []
    for gname, graph in standard_graph_families(n, rng):
        p = job_weight_profile(graph.n, weight_kind, rng)
        for sname, speeds in speed_profile_suite(m, rng):
            out.append((f"{gname}/{sname}", UniformInstance(graph, p, speeds)))
    return out


def _as_result_dict(result: Any) -> dict[str, Any]:
    """Accept ``BatchResult`` objects or their JSONL dicts alike."""
    if isinstance(result, dict):
        return result
    to_dict = getattr(result, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(f"cannot summarise {type(result).__name__} as a batch result")


def _aggregate_by(
    results: Iterable[Any], label_of: Any
) -> list[list[Any]]:
    """Fold a result stream into per-label aggregate rows (shared core).

    Each row: ``[*label, count, cached, errors, mean ratio, worst ratio,
    solve time (ms)]`` sorted by label.  ``label_of(record)`` may return a
    string or a tuple (tuples spread over several leading columns).
    """
    grouped: dict[tuple, dict[str, Any]] = {}
    for raw in results:
        record = _as_result_dict(raw)
        label = label_of(record)
        key = label if isinstance(label, tuple) else (label,)
        agg = grouped.setdefault(
            key,
            {"count": 0, "cached": 0, "errors": 0, "ratios": [], "time": 0.0},
        )
        agg["count"] += 1
        if record.get("cached"):
            agg["cached"] += 1
        if record.get("error") is not None:
            agg["errors"] += 1
        ratio = record.get("ratio")
        if ratio is not None:
            agg["ratios"].append(float(ratio))
        if not record.get("cached"):
            agg["time"] += float(record.get("wall_time_s", 0.0))
    rows: list[list[Any]] = []
    for key in sorted(grouped):
        agg = grouped[key]
        ratios = agg["ratios"]
        rows.append(
            [
                *key,
                agg["count"],
                agg["cached"],
                agg["errors"],
                sum(ratios) / len(ratios) if ratios else float("nan"),
                max(ratios) if ratios else float("nan"),
                agg["time"] * 1e3,
            ]
        )
    return rows


def summarize_batch(results: Iterable[Any]) -> list[list[Any]]:
    """Per-algorithm aggregate rows for a batch result stream.

    Each row: ``[algorithm, count, cached, errors, mean ratio,
    worst ratio, solve time (ms)]``, sorted by algorithm name.  Ratios
    average only the records that carry one (a zero lower bound or an
    errored solve contributes to the counts but not the ratio columns);
    the time column sums fresh-solve wall time, so a fully warm batch
    reads 0.
    """
    return _aggregate_by(
        results,
        lambda record: record.get("chosen") or record.get("algorithm") or "?",
    )


def workload_model_of(name: str) -> str:
    """The workload-model tag of a batch task name (``model/rest`` or ``?``).

    Spec-v2 ``machines`` entries and :func:`unrelated_workload_suite` both
    name tasks ``<model>/<family>-...``, which is what makes per-model
    aggregation possible downstream.
    """
    return name.split("/", 1)[0] if "/" in name else "?"


def summarize_models(results: Iterable[Any]) -> list[list[Any]]:
    """Per-(model, algorithm) aggregate rows for a batch result stream.

    The model tag comes from the task-name prefix (see
    :func:`workload_model_of`); ratios are against the environment's
    exact lower bound (:func:`repro.scheduling.bounds.unrelated_lower_bound`
    for ``R`` records), so the table reads directly as "how far above the
    bound does each algorithm land on each workload family".
    """
    return _aggregate_by(
        results,
        lambda record: (
            workload_model_of(str(record.get("name", ""))),
            record.get("chosen") or record.get("algorithm") or "?",
        ),
    )


def batch_summary_table(results: Iterable[Any], title: str | None = None) -> str:
    """Render :func:`summarize_batch` as an aligned monospace table."""
    from repro.analysis.tables import format_table

    return format_table(
        ["algorithm", "count", "cached", "errors", "mean ratio", "worst ratio",
         "solve time (ms)"],
        summarize_batch(results),
        title=title,
    )


def model_ratio_table(results: Iterable[Any], title: str | None = None) -> str:
    """Render :func:`summarize_models` as an aligned monospace table."""
    from repro.analysis.tables import format_table

    return format_table(
        ["model", "algorithm", "count", "cached", "errors", "mean ratio",
         "worst ratio", "solve time (ms)"],
        summarize_models(results),
        title=title,
    )


def _as_audit_dict(row: Any) -> dict[str, Any]:
    """Accept ``repro.certify.AuditRow`` objects or their dicts alike."""
    if isinstance(row, dict):
        return row
    to_dict = getattr(row, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(f"cannot summarise {type(row).__name__} as an audit row")


def certification_summary(rows: Iterable[Any]) -> list[list[Any]]:
    """Per-(algorithm, status) aggregate rows for an audit sweep.

    Each row: ``[algorithm, status, count, worst ratio]`` sorted by
    algorithm then status; the ratio column is the worst observed
    makespan/OPT (falling back to makespan/lower-bound) quotient in the
    group.
    """
    grouped: dict[tuple[str, str], dict[str, Any]] = {}
    for raw in rows:
        record = _as_audit_dict(raw)
        key = (str(record.get("algorithm", "?")), str(record.get("status", "?")))
        agg = grouped.setdefault(key, {"count": 0, "ratios": []})
        agg["count"] += 1
        ratio = record.get("ratio")
        if ratio is not None:
            agg["ratios"].append(float(ratio))
    return [
        [
            *key,
            agg["count"],
            max(agg["ratios"]) if agg["ratios"] else float("nan"),
        ]
        for key, agg in sorted(grouped.items())
    ]


def violation_table(rows: Iterable[Any], title: str | None = None) -> str:
    """Render an audit sweep: the violating rows, else a clean summary.

    When any row carries a violation status (``violated`` /
    ``infeasible_output``), those rows are listed individually with
    their details; otherwise the per-(algorithm, status) summary from
    :func:`certification_summary` is rendered.
    """
    from repro.analysis.tables import format_table
    from repro.certify import VIOLATION_STATUSES

    records = [_as_audit_dict(row) for row in rows]
    bad = [r for r in records if r.get("status") in VIOLATION_STATUSES]
    if bad:
        return format_table(
            ["instance", "algorithm", "status", "ratio", "detail"],
            [
                [
                    r.get("name", "?"),
                    r.get("algorithm", "?"),
                    r.get("status", "?"),
                    r.get("ratio"),
                    r.get("detail", ""),
                ]
                for r in bad
            ],
            title=title or f"{len(bad)} guarantee/certification VIOLATION(S)",
        )
    return format_table(
        ["algorithm", "status", "count", "worst ratio"],
        certification_summary(records),
        title=title or f"certification sweep clean ({len(records)} audits)",
    )


def portfolio_gain_rows(
    suite: Iterable[tuple[str, Any]], k: int = 3
) -> list[list[Any]]:
    """Single-algorithm ``auto`` vs k-way portfolio, per named instance.

    Each row: ``[name, auto choice, auto Cmax, auto ms, portfolio
    winner, portfolio Cmax, portfolio ms, gain]`` where ``gain`` is
    ``auto Cmax / portfolio Cmax`` (``>= 1`` always — the portfolio
    races the auto choice among its candidates, so it can never lose).
    Exact makespans are rendered as floats for table cells; the
    underlying race is exact (:func:`repro.engine.portfolio_solve`).
    This is what ``benchmarks/bench_engine_portfolio.py`` (E19) emits.
    """
    from time import perf_counter

    from repro.engine import auto_choice, portfolio_solve, solve

    rows: list[list[Any]] = []
    for name, instance in suite:
        chosen = auto_choice(instance)
        start = perf_counter()
        auto_schedule = solve(instance, algorithm=chosen)
        auto_ms = (perf_counter() - start) * 1e3
        result = portfolio_solve(instance, k=k)
        gain = float(auto_schedule.makespan / result.makespan)
        rows.append(
            [
                name,
                chosen,
                float(auto_schedule.makespan),
                auto_ms,
                result.chosen,
                float(result.makespan),
                result.wall_time_s * 1e3,
                gain,
            ]
        )
    return rows


def random_r2_instance(
    n: int,
    edge_probability: float = 0.15,
    time_range: tuple[int, int] = (1, 30),
    seed=None,
) -> UnrelatedInstance:
    """A random two-machine unrelated instance on a Gilbert-style graph."""
    rng = ensure_rng(seed)
    half = max(1, n // 2)
    graph = gnnp(half, edge_probability, rng)
    lo, hi = time_range
    times = [
        [int(x) for x in rng.integers(lo, hi + 1, size=graph.n)] for _ in range(2)
    ]
    return UnrelatedInstance(graph, times)


DEFAULT_UNRELATED_MODELS = (
    "uniform_pij",
    "correlated",
    "restricted_assignment",
    "two_value",
)


def certification_suite(
    n: int = 10,
    m: int = 3,
    graph_families: tuple[str, ...] = ("gnnp", "path", "crown", "matching", "empty"),
    models: tuple[str, ...] = DEFAULT_UNRELATED_MODELS,
    uniform_profiles: tuple[str, ...] = ("identical", "geometric"),
    weight_kinds: tuple[str, ...] = ("unit", "uniform"),
    seeds: int = 1,
    seed: int = 0,
) -> list[tuple[str, Any]]:
    """Named instances for guarantee-violation sweeps (``repro certify``).

    Crosses the graph families with both machine environments: uniform
    instances (each speed profile x job-weight kind) and unrelated
    instances (each :mod:`repro.workloads` ``p_ij`` model, at ``m = 2``
    so the R2 algorithms are exercised, plus the given ``m``).  Small
    ``n`` by design — every instance should sit inside the exact
    oracle's reach so the auditor can compare against proven optima.
    Deterministic: cell ``(family, ..., r)`` uses integer seed
    ``seed + r`` throughout, so growing the sweep never perturbs
    existing cells.
    """
    from repro.runtime.specs import build_family_graph
    from repro.workloads import UNIFORM_PROFILES, build_unrelated_instance

    out: list[tuple[str, Any]] = []
    for family in graph_families:
        for replica in range(seeds):
            s = seed + replica
            graph = build_family_graph(family, n, seed=s)
            for profile in uniform_profiles:
                speeds = UNIFORM_PROFILES[profile](m)
                for kind in weight_kinds:
                    p = job_weight_profile(graph.n, kind, s)
                    out.append(
                        (
                            f"Q/{profile}/{kind}/{family}-n{n}-s{s}",
                            UniformInstance(graph, p, sorted(speeds, reverse=True)),
                        )
                    )
            for model in models:
                for mm in sorted({2, m}):
                    inst = build_unrelated_instance(graph, model, mm, seed=s)
                    out.append((f"R/{model}/m{mm}/{family}-n{n}-s{s}", inst))
    return out


def unrelated_workload_suite(
    n: int = 16,
    m: int = 2,
    models: tuple[str, ...] = DEFAULT_UNRELATED_MODELS,
    graph_families: tuple[str, ...] = ("gnnp", "path", "crown"),
    seeds: int = 2,
    seed: int = 0,
) -> list[tuple[str, UnrelatedInstance]]:
    """Named unrelated instances: workload models x graph families x seeds.

    Names follow the ``model/family-n{n}-s{seed}`` convention that
    :func:`summarize_models` groups on.  Every cell is deterministic: cell
    ``(model, family, r)`` uses integer seed ``seed + r`` for both the
    graph and the time matrix, so adding models or families never
    perturbs the other cells.  ``hardness_r`` (Theorem 24 geometry) needs
    ``m >= 3`` and is therefore not in the default model list.
    """
    from repro.runtime.specs import build_family_graph
    from repro.workloads import build_unrelated_instance

    out: list[tuple[str, UnrelatedInstance]] = []
    for model in models:
        for family in graph_families:
            for replica in range(seeds):
                s = seed + replica
                graph = build_family_graph(family, n, seed=s)
                inst = build_unrelated_instance(graph, model, m, seed=s)
                out.append((f"{model}/{family}-n{n}-s{s}", inst))
    return out
