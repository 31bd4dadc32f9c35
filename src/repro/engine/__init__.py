"""The solver engine: registry, dispatch, portfolio, serving.

Five cooperating layers:

* :mod:`repro.engine.registry` — a declarative plugin registry; each
  algorithm is an :class:`AlgorithmSpec` with structured
  :class:`Capability` requirements, and :func:`register_algorithm` makes
  any new method a one-call plugin;
* :mod:`repro.engine.dispatch` — capability matching with ranked
  ``auto`` selection and explain mode
  (:func:`explain_dispatch`, surfaced as ``repro solve --explain``);
* :mod:`repro.engine.portfolio` — race k eligible algorithms in turn
  and keep the best certified makespan, with early cutoff at the exact
  lower bound;
* :mod:`repro.engine.service` — the persistent serving loop behind
  ``repro serve``: JSONL requests over stdin, canonical content-hash
  keys, repeat queries answered from a lazily-loaded sharded cache;
* :mod:`repro.engine.aserve` — the concurrent asyncio TCP tier (the
  default for ``repro serve --port``): many connections on one event
  loop, solves on a worker pool, in-flight coalescing by content hash,
  admission control, and a p50/p95/p99 latency surface.
"""

from repro.engine.registry import (
    ALGORITHMS,
    GRAPH_CLASSES,
    MACHINE_KINDS,
    REGISTRY,
    AlgorithmRegistry,
    AlgorithmSpec,
    Capability,
    register_algorithm,
    unregister_algorithm,
)
from repro.engine.dispatch import (
    DispatchEntry,
    DispatchReport,
    auto_choice,
    available_algorithms,
    explain_dispatch,
    solve,
)
from repro.engine.portfolio import (
    PortfolioEntry,
    PortfolioResult,
    portfolio_candidates,
    portfolio_solve,
)
from repro.engine.service import (
    SERVE_FORMAT,
    EngineService,
    LatencyReservoir,
    ServiceStats,
    build_solve_record,
    parse_solve_request,
)
from repro.engine.aserve import (
    SERVE_FORMAT_V2,
    AsyncEngineService,
    serve_async,
)

__all__ = [
    "ALGORITHMS",
    "GRAPH_CLASSES",
    "MACHINE_KINDS",
    "REGISTRY",
    "AlgorithmRegistry",
    "AlgorithmSpec",
    "Capability",
    "register_algorithm",
    "unregister_algorithm",
    "DispatchEntry",
    "DispatchReport",
    "auto_choice",
    "available_algorithms",
    "explain_dispatch",
    "solve",
    "PortfolioEntry",
    "PortfolioResult",
    "portfolio_candidates",
    "portfolio_solve",
    "SERVE_FORMAT",
    "SERVE_FORMAT_V2",
    "EngineService",
    "AsyncEngineService",
    "LatencyReservoir",
    "ServiceStats",
    "build_solve_record",
    "parse_solve_request",
    "serve_async",
]
