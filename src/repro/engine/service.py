"""The persistent serving layer: ``repro serve``.

A long-lived process that accepts JSONL requests — one JSON object per
line on stdin — and answers them on stdout from the engine (TCP serving
is the concurrent tier in :mod:`repro.engine.aserve`).  Instances are
canonicalized and content-hashed (:func:`repro.runtime.cache.task_key`),
so a repeated identical query is answered from the cache without
touching a solver; with a
:class:`~repro.runtime.cache.ShardedResultCache` directory the cache
survives restarts and loads lazily per key prefix, keeping startup O(1)
regardless of history size.

Request protocol (``repro/serve/v1``), one JSON object per line::

    {"op": "solve", "id": 7, "instance": {...}, "algorithm": "auto"}
    {"op": "solve", "id": 8, "instance": {...}, "explain": true}
    {"op": "solve", "id": 9, "instance": {...}, "portfolio": 3}
    {"op": "ping"}
    {"op": "stats"}

``instance`` is the canonical JSON form of
:func:`repro.io.instance_to_dict`.  Responses echo ``id`` and carry
``ok``, the task ``key``, the resolved ``chosen`` algorithm, the exact
``makespan`` (``"num/den"``), the ``assignment``, and ``cached``.
Errors never kill the loop: they come back as ``ok=false`` responses.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, TextIO

from repro.engine.dispatch import auto_choice, explain_dispatch, solve
from repro.engine.portfolio import portfolio_solve
from repro.exceptions import CacheCollisionError, ReproError
from repro.io import frac_str, instance_from_dict
from repro.runtime.cache import ResultCache, ShardedResultCache, task_key

__all__ = [
    "SERVE_FORMAT",
    "LatencyReservoir",
    "ServiceStats",
    "EngineService",
    "parse_solve_request",
    "build_solve_record",
]

SERVE_FORMAT = "repro/serve/v1"


class LatencyReservoir:
    """A ring buffer of recent request latencies with percentile snapshots.

    Keeps the last ``window`` samples (seconds) for percentiles — so
    p50/p95/p99 track *recent* behaviour, not the whole history — plus
    lifetime count/total/max.  Snapshots sort the window
    (O(window log window)), which is negligible at the default size.
    """

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ValueError(f"latency window must be >= 1, got {window}")
        self.window = window
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one request latency (negative inputs clamp to 0)."""
        seconds = max(0.0, float(seconds))
        self._samples.append(seconds)
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def percentile(self, q: float) -> float | None:
        """Nearest-rank ``q``-th percentile (0..100) of the window."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = math.ceil(q / 100.0 * len(ordered)) - 1
        return ordered[max(0, min(len(ordered) - 1, rank))]

    def snapshot(self) -> dict[str, Any]:
        """The JSON-ready metrics block served under ``stats.latency``."""

        def ms(value: float | None) -> float | None:
            return None if value is None else round(value * 1000.0, 3)

        return {
            "count": self.count,
            "window": len(self._samples),
            "p50_ms": ms(self.percentile(50)),
            "p95_ms": ms(self.percentile(95)),
            "p99_ms": ms(self.percentile(99)),
            "mean_ms": ms(self.total_s / self.count) if self.count else None,
            "max_ms": ms(self.max_s) if self.count else None,
        }


@dataclass
class ServiceStats:
    """Aggregate counters and latency surface over one service lifetime.

    ``coalesced``/``rejected``/``connections`` are serving-tier counters
    (the async TCP tier drives them; they stay 0 on the stdin stream
    path).  ``latency`` is a :class:`LatencyReservoir` of per-request
    handling times; ``qps`` is requests over the service's uptime.
    """

    requests: int = 0
    solved: int = 0
    cached: int = 0
    errors: int = 0
    coalesced: int = 0
    rejected: int = 0
    connections: int = 0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    started: float = field(default_factory=perf_counter)

    def observe_latency(self, seconds: float) -> None:
        """Record one request's handling latency."""
        self.latency.observe(seconds)

    def uptime_s(self) -> float:
        """Seconds since the stats object was created (never zero)."""
        return max(perf_counter() - self.started, 1e-9)

    def qps(self) -> float:
        """Lifetime requests per second."""
        return self.requests / self.uptime_s()

    def to_dict(self) -> dict[str, Any]:
        from repro.fastpath import scaled_speeds_cache_stats

        return {
            "requests": self.requests,
            "solved": self.solved,
            "cached": self.cached,
            "errors": self.errors,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "connections": self.connections,
            "uptime_s": round(self.uptime_s(), 3),
            "qps": round(self.qps(), 3),
            "latency": self.latency.snapshot(),
            # fast-path health for long-lived services: the normalization
            # cache is bounded, so hit rate (not growth) is the signal
            "fastpath": {"scaled_speeds_cache": scaled_speeds_cache_stats()},
        }


def parse_solve_request(
    request: dict[str, Any], default_algorithm: str = "auto"
) -> tuple[dict[str, Any], str, int | None, str]:
    """Validate one solve request into ``(payload, algorithm, k, cache_algorithm)``.

    Shared by the sync and async services so both reject malformed
    requests identically.  Raises :exc:`~repro.exceptions.ReproError`
    for protocol-level problems; a non-numeric ``portfolio`` raises the
    underlying ``ValueError``/``TypeError`` (callers shape it into a
    typed error response).
    """
    payload = request.get("instance")
    if not isinstance(payload, dict):
        raise ReproError("solve request carries no 'instance' payload")
    algorithm = request.get("algorithm") or default_algorithm
    if not isinstance(algorithm, str):
        raise ReproError(
            f"'algorithm' must be a string, got {type(algorithm).__name__}"
        )
    portfolio_k = request.get("portfolio")
    if portfolio_k is not None:
        portfolio_k = int(portfolio_k)
        if portfolio_k < 1:
            raise ReproError(
                f"portfolio size must be >= 1, got {portfolio_k}"
            )
        if request.get("algorithm") not in (None, "auto"):
            # mirror the CLI: racing a fixed candidate list cannot
            # honour a named algorithm — refuse, don't drop it
            raise ReproError(
                "a portfolio request races the strongest eligible "
                "methods and cannot honour a named 'algorithm'; "
                "send one of the two"
            )
    cache_algorithm = (
        f"portfolio:{portfolio_k}" if portfolio_k is not None else algorithm
    )
    return payload, algorithm, portfolio_k, cache_algorithm


def _float_or_none(value: Fraction) -> float | None:
    """``float(value)``, or ``None`` when it is outside float range.

    The exact ``makespan`` string stays authoritative; the float is a
    convenience for display and may be absent.
    """
    try:
        return float(value)
    except OverflowError:
        return None


def build_solve_record(
    payload: dict[str, Any],
    algorithm: str,
    portfolio_k: int | None,
    key: str,
) -> dict[str, Any]:
    """Solve one validated payload and build its cacheable serve record.

    Module-level (and with the response ``id`` left ``None``) so worker
    processes can run it through pickle — the async tier hands solves to
    :class:`~repro.runtime.batch.BatchRunner`'s pool via
    :func:`repro.engine.aserve._pool_solve`.  Raises on solver-level
    failure (unknown algorithm, infeasible instance, ...); callers shape
    errors into responses.
    """
    instance = instance_from_dict(payload)
    start = perf_counter()
    if portfolio_k is not None:
        result = portfolio_solve(instance, k=portfolio_k)
        chosen, schedule = result.chosen, result.schedule
    else:
        chosen = auto_choice(instance) if algorithm == "auto" else algorithm
        schedule = solve(instance, algorithm=chosen)
    wall = perf_counter() - start
    cache_algorithm = (
        f"portfolio:{portfolio_k}" if portfolio_k is not None else algorithm
    )
    return {
        "format": SERVE_FORMAT,
        "kind": "serve_result",
        "id": None,
        "ok": True,
        "key": key,
        "algorithm": cache_algorithm,
        "chosen": chosen,
        "n": instance.n,
        "m": instance.m,
        "edges": instance.graph.edge_count,
        "makespan": frac_str(schedule.makespan),
        "makespan_float": _float_or_none(schedule.makespan),
        "feasible": schedule.is_feasible(),
        "assignment": list(schedule.assignment),
        "cached": False,
        "wall_time_s": wall,
        "error": None,
    }


class EngineService:
    """Stateful request handler behind ``repro serve``.

    Parameters
    ----------
    cache:
        ``None`` (in-memory only), a ready cache object
        (:class:`ResultCache` / :class:`ShardedResultCache` or anything
        with their ``in``/``record``/``put`` protocol), or a path — a
        directory becomes a sharded cache, a file a flat one.
    algorithm:
        Default algorithm for requests without their own.

    Notes
    -----
    Serve-layer records carry the ``assignment`` (a serving API must
    return the schedule, not just its makespan), so the service keeps
    its own cache namespace — point it at a *serve* cache directory,
    not at a batch results cache.  Only successful solves are cached;
    errors are re-evaluated per request.
    """

    def __init__(
        self,
        cache: Any | str | Path | None = None,
        algorithm: str = "auto",
    ) -> None:
        if cache is None:
            self.cache: Any = ResultCache(None)
        elif isinstance(cache, (str, Path)):
            path = Path(cache)
            if path.is_file():
                self.cache = ResultCache(path)
            else:
                self.cache = ShardedResultCache(path)
        else:
            self.cache = cache
        self.algorithm = algorithm
        self.stats = ServiceStats()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    def handle_line(self, line: str) -> str:
        """One JSONL request line in, exactly one JSONL response line out.

        The protocol boundary: whatever junk arrives — non-JSON bytes,
        deeply nested JSON (``RecursionError`` from the parser), huge
        integer literals (``ValueError`` from the int-conversion limit),
        wrong-typed fields — the reply is a single parseable JSON line
        with a boolean ``ok``, and every call counts exactly one
        request.  The fuzz suite pins this down.
        """
        try:
            request = json.loads(line)
        except Exception as exc:  # noqa: BLE001 — JSONDecodeError is only
            # the common case; see the docstring for the exotic ones
            self.stats.requests += 1
            self.stats.errors += 1
            return json.dumps(
                self._error_response(None, f"malformed request line: {exc}")
            )
        if not isinstance(request, dict):
            self.stats.requests += 1
            self.stats.errors += 1
            return json.dumps(
                self._error_response(None, "request must be a JSON object")
            )
        try:
            return json.dumps(self.handle_request(request))
        except Exception as exc:  # noqa: BLE001 — a response that cannot
            # be serialised must still come back as one parseable line
            self.stats.errors += 1
            return json.dumps(
                self._error_response(
                    None, f"unserialisable response: {type(exc).__name__}"
                )
            )

    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one decoded request, timing it into the stats surface."""
        self.stats.requests += 1
        started = perf_counter()
        try:
            return self._handle_op(request)
        finally:
            self.stats.observe_latency(perf_counter() - started)

    def _handle_op(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op", "solve")
        request_id = request.get("id")
        if op == "ping":
            return {"format": SERVE_FORMAT, "id": request_id, "op": "ping", "ok": True}
        if op == "stats":
            return {
                "format": SERVE_FORMAT,
                "id": request_id,
                "op": "stats",
                "ok": True,
                "stats": self.stats.to_dict(),
            }
        if op != "solve":
            self.stats.errors += 1
            return self._error_response(request_id, f"unknown op {op!r}")
        try:
            return self._handle_solve(request)
        except ReproError as exc:
            self.stats.errors += 1
            return self._error_response(request_id, str(exc))
        except Exception as exc:  # noqa: BLE001 — a persistent server
            # must survive *any* bad request (malformed payloads raise
            # KeyError/ValueError, not ReproError); the typed message
            # keeps the defect visible to the client and to stats
            self.stats.errors += 1
            return self._error_response(
                request_id, f"{type(exc).__name__}: {exc}"
            )

    def _error_response(
        self, request_id: Any, message: str
    ) -> dict[str, Any]:
        return {
            "format": SERVE_FORMAT,
            "id": request_id,
            "ok": False,
            "error": message,
        }

    def _handle_solve(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        payload, algorithm, portfolio_k, cache_algorithm = parse_solve_request(
            request, self.algorithm
        )
        # the "serve/" marker namespaces serve keys apart from batch
        # task keys, so pointing --cache-dir at a batch cache can never
        # be answered with (or collide against) batch-shaped records
        key = task_key(payload, f"serve/{cache_algorithm}")

        if key in self.cache:
            record = dict(self.cache.record(key))
            if record.get("kind") != "serve_result":
                # foreign record under a serve key: a poisoned cache —
                # refuse before wasting a solve whose put() could only
                # collide with the bad record anyway
                raise CacheCollisionError(
                    f"cache key {key[:16]}... holds a non-serve record "
                    f"(kind={record.get('kind')!r}); the serve cache "
                    "directory is poisoned or shared with another tool"
                )
            self.stats.cached += 1
            record.update(id=request_id, cached=True, wall_time_s=0.0)
            if request.get("explain"):
                # explain derives from the instance alone (no solve),
                # so cache hits still answer it
                record["explain"] = explain_dispatch(
                    instance_from_dict(payload), algorithm
                ).to_dict()
            return record

        record = build_solve_record(payload, algorithm, portfolio_k, key)
        self.stats.solved += 1
        self.cache.put(key, dict(record, id=None, wall_time_s=0.0))
        record["id"] = request_id
        if request.get("explain"):
            record["explain"] = explain_dispatch(
                instance_from_dict(payload), algorithm
            ).to_dict()
        return record

    # ------------------------------------------------------------------ #
    # serving loops
    # ------------------------------------------------------------------ #

    def serve_stream(
        self, source: Iterable[str], sink: TextIO
    ) -> ServiceStats:
        """Answer every request line from ``source`` onto ``sink``.

        The stdin/stdout serving mode: blank lines are skipped, each
        response is flushed immediately so a piped client sees complete
        lines, and the final stats are returned when the stream ends.
        """
        for line in source:
            if not line.strip():
                continue
            sink.write(self.handle_line(line) + "\n")
            sink.flush()
        return self.stats

