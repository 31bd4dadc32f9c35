"""Per-layer spans for the traced benchmark run, recorded from outside.

The package has no tracer of its own, so the traced run rebinds public
names *where their callers look them up* with timing wrappers, and
restores the originals afterwards; the untraced run never installs
them.  Two pitfalls shape the site table below:

* ``import repro.core.r2_fptas as m`` binds the *function*, because
  ``repro.core`` re-exports the name over its submodule.  Modules are
  therefore resolved with :func:`importlib.import_module`.
* A wrapper only sees calls made through the binding it replaced, so a
  function imported into several modules is wrapped in each caller's
  namespace (``instance_from_dict`` in both service tiers, ``r2_fptas``
  in the registry and in Algorithm 1), and special methods such as
  ``ResultCache.__contains__`` are replaced on the class.

Spans carry a name, start, end, parent and op id; they stay in memory
until the run writes them out.  A span's parent is the innermost open
span of its own thread; a span opened with an empty thread stack (the
async tier runs solves on an executor thread) hangs under the outermost
span still open for the current op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

__all__ = ["COUNT_SITES", "LAYERS", "SITES", "Tracer", "install", "layer_metrics", "self_times"]

#: every layer the traced run reports, in report order
LAYERS = (
    "engine.service.handle_line",
    "engine.aserve.handle_line",
    "io.instance_from_dict",
    "runtime.cache.task_key",
    "runtime.cache.lookup",
    "runtime.cache.put",
    "engine.dispatch.auto_choice",
    "engine.dispatch.solve",
    "core.sqrt_approx",
    "graphs.independent_set",
    "graphs.coloring",
    "scheduling.bounds.capacity",
    "scheduling.list_scheduling",
    "scheduling.instance.to_unrelated",
    "core.r2_fptas",
    "core.r2_reduction",
    "scheduling.dp_unrelated",
    "certify.oracle.certified_optimal",
)


class Tracer:
    """In-memory span store plus named counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []   # [id, name, start, end, parent, op]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._anchor: list[Any] | None = None

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list[Any]:
        """Start a span; returns the record :meth:`close` takes."""
        stack = self._stack()
        parent = stack[-1] if stack else self._anchor
        span = [next(self._ids), name, perf_counter(), None,
                None if parent is None else parent[0], self.op]
        if parent is None:
            self._anchor = span
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        """End ``span`` (the innermost open span of this thread)."""
        span[3] = perf_counter()
        self._stack().pop()
        if span is self._anchor:
            self._anchor = None


def self_times(spans: Iterable[list[Any]]) -> dict[int, float]:
    """``span id -> self seconds``: duration minus what its children cover.

    Children are clipped to the parent's interval and merged, so
    overlapping children (one thread's span beside another's) are not
    subtracted twice.
    """
    spans = list(spans)
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    result: dict[int, float] = {}
    for sid, _name, start, end, _parent, _op in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #

Hook = Callable[[Tracer, tuple, Any], None]


def _timed(tracer: Tracer, layer: str, fn: Callable, hook: Hook | None) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(layer)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return wrapper


def _counted(tracer: Tracer, counter: str, fn: Callable) -> Callable:
    # per-node calls inside the oracle: a counter, not a span, so the
    # traced run stays small and close to the untraced one
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _on_lookup(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["cache.lookups"] += 1
    tracer.counts["cache.hits"] += bool(result)


def _on_sqrt(tracer: Tracer, args: tuple, result: Any) -> None:
    if result.s2 is not None:
        tracer.counts["sqrt.s2_built"] += 1
        tracer.counts["sqrt.s2_wins"] += result.chosen == "s2"


def _on_dp(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["scheduling.dp_unrelated.jobs"] += len(args[0][0])


def _on_oracle(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["certify.oracle.nodes"] += result.nodes
    tracer.counts["oracle.bound_tight"] += result.proof == "bound-tight"


#: (module, attribute path inside it, layer, hook); a dotted attribute
#: names a class member.  Each entry is a place a caller looks the name up.
SITES: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("repro.engine.service", "EngineService.handle_line", "engine.service.handle_line", None),
    ("repro.engine.aserve", "AsyncEngineService.handle_line", "engine.aserve.handle_line", None),
    ("repro.engine.service", "instance_from_dict", "io.instance_from_dict", None),
    ("repro.engine.aserve", "instance_from_dict", "io.instance_from_dict", None),
    ("repro.io", "instance_from_dict", "io.instance_from_dict", None),
    ("repro.engine.service", "task_key", "runtime.cache.task_key", None),
    ("repro.engine.aserve", "task_key", "runtime.cache.task_key", None),
    ("repro.runtime.cache", "ResultCache.__contains__", "runtime.cache.lookup", _on_lookup),
    ("repro.runtime.cache", "ResultCache.record", "runtime.cache.lookup", None),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache.put", None),
    ("repro.engine.service", "auto_choice", "engine.dispatch.auto_choice", None),
    ("repro.engine", "auto_choice", "engine.dispatch.auto_choice", None),
    ("repro.engine.service", "solve", "engine.dispatch.solve", None),
    ("repro.engine", "solve", "engine.dispatch.solve", None),
    ("repro.engine.registry", "sqrt_approx_schedule", "core.sqrt_approx", _on_sqrt),
    ("repro.core.sqrt_approx", "max_weight_independent_set_containing",
     "graphs.independent_set", None),
    ("repro.core.sqrt_approx", "inequitable_two_coloring", "graphs.coloring", None),
    ("repro.scheduling.baselines", "inequitable_two_coloring", "graphs.coloring", None),
    ("repro.core.sqrt_approx", "uniform_capacity_lower_bound",
     "scheduling.bounds.capacity", None),
    ("repro.certify.validators", "uniform_capacity_lower_bound",
     "scheduling.bounds.capacity", None),
    ("repro.core.sqrt_approx", "schedule_job_classes", "scheduling.list_scheduling", None),
    ("repro.scheduling.instance", "UniformInstance.to_unrelated",
     "scheduling.instance.to_unrelated", None),
    ("repro.engine.registry", "r2_fptas", "core.r2_fptas", None),
    ("repro.core.sqrt_approx", "r2_fptas", "core.r2_fptas", None),
    ("repro.core.r2_fptas", "reduce_r2", "core.r2_reduction", None),
    ("repro.core.r2_fptas", "solve_r2_dp", "scheduling.dp_unrelated", _on_dp),
    ("repro.certify.oracle", "certified_optimal", "certify.oracle.certified_optimal",
     _on_oracle),
)

#: call sites that only count (``counter`` name instead of a layer)
COUNT_SITES = (
    ("repro.certify.oracle", "min_cover_time_with_loads",
     "scheduling.bounds.min_cover_time_with_loads.calls"),
)


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner)[part]
    return owner, attr


@contextmanager
def install(tracer: Tracer) -> Iterator[list[str]]:
    """Every site wrapped for ``tracer`` inside the block, restored after.

    Yields the list of sites whose name no longer exists.  They are
    skipped and reported rather than failing the run, so a refactor that
    moves a call site shows up as a layer with no calls.
    """
    wrappers = [
        (module, path, functools.partial(_timed, tracer, layer, hook=hook))
        for module, path, layer, hook in SITES
    ] + [
        (module, path, functools.partial(_counted, tracer, counter))
        for module, path, counter in COUNT_SITES
    ]
    saved: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for module, path, wrap in wrappers:
            owner, attr = _resolve(module, path)
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{module}.{path}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        for site in missing:
            print(f"e2ebench: trace site {site} not found; its layer reads 0",
                  file=sys.stderr)
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer ``calls``/``self_s`` plus the derived counters."""
    own = self_times(tracer.spans)
    calls: defaultdict[str, int] = defaultdict(int)
    self_s: defaultdict[str, float] = defaultdict(float)
    for span in tracer.spans:
        calls[span[1]] += 1
        self_s[span[1]] += own[span[0]]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    counts = tracer.counts

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out["runtime.cache.hit_ratio"] = ratio("cache.hits", "cache.lookups")
    out["core.sqrt_approx.s2_win_ratio"] = ratio("sqrt.s2_wins", "sqrt.s2_built")
    out["scheduling.dp_unrelated.jobs"] = counts["scheduling.dp_unrelated.jobs"]
    out["certify.oracle.nodes"] = counts["certify.oracle.nodes"]
    out["certify.oracle.bound_tight_ratio"] = (
        counts["oracle.bound_tight"] / calls["certify.oracle.certified_optimal"]
        if calls["certify.oracle.certified_optimal"] else 0.0
    )
    out["scheduling.bounds.min_cover_time_with_loads.calls"] = counts[
        "scheduling.bounds.min_cover_time_with_loads.calls"
    ]
    out["trace.coverage_ratio"] = (
        sum(own.values()) / traced_wall_s if traced_wall_s > 0 else 0.0
    )
    return out
