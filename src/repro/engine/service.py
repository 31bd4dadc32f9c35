"""The serve request protocol and its stdin tier: ``repro serve``.

:class:`ServeProtocol` is the one implementation of the request
protocol, and both serving tiers extend it: :class:`EngineService`
answers JSONL lines from stdin on stdout and solves inline, and
:class:`repro.engine.aserve.AsyncEngineService` answers TCP connections
and solves on an executor.  Instances are canonicalized and
content-hashed (:func:`repro.runtime.cache.task_key`), so a repeated
identical query is answered from the cache without touching a solver;
with a :class:`~repro.runtime.cache.ShardedResultCache` directory the
cache survives restarts and loads lazily per key prefix, keeping
startup O(1) regardless of history size.

Request protocol (``repro/serve/v1``), one JSON object per line::

    {"op": "solve", "id": 7, "instance": {...}, "algorithm": "auto"}
    {"op": "solve", "id": 8, "instance": {...}, "explain": true}
    {"op": "solve", "id": 9, "instance": {...}, "portfolio": 3}
    {"op": "ping"}
    {"op": "stats"}

``instance`` is the canonical JSON form of
:func:`repro.io.instance_to_dict`; ``portfolio``, when present, is a
JSON integer >= 1.  Responses echo ``id`` and carry ``ok``, the task
``key``, the resolved ``chosen`` algorithm, the exact ``makespan``
(``"num/den"``), the ``assignment``, and ``cached``.  Every request ends
in exactly one reply: errors come back as ``ok=false`` replies with a
message and never kill the loop.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, NamedTuple, TextIO

from repro.engine.dispatch import auto_choice, explain_dispatch, solve
from repro.engine.portfolio import portfolio_solve
from repro.exceptions import CacheCollisionError, ReproError
from repro.io import frac_str, instance_from_dict
from repro.runtime.cache import ResultCache, ShardedResultCache, task_key
from repro.scheduling.instance import SchedulingInstance
from repro.scheduling.schedule import Schedule

__all__ = [
    "SERVE_FORMAT",
    "LatencyReservoir",
    "ServiceStats",
    "SolveJob",
    "ServeProtocol",
    "EngineService",
    "parse_solve_request",
    "solve_payload",
    "build_solve_record",
    "failed_record",
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
        }


def parse_solve_request(
    request: dict[str, Any], default_algorithm: str = "auto"
) -> tuple[dict[str, Any], str, int | None, str]:
    """Validate one solve request into ``(payload, algorithm, k, cache_algorithm)``.

    Raises :exc:`~repro.exceptions.ReproError` for every malformed
    field, so both tiers refuse bad requests with the same message.
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
        # bool is an int subclass, and int() would also accept 2.9 or
        # "3": only a JSON integer names a portfolio size
        if (
            isinstance(portfolio_k, bool)
            or not isinstance(portfolio_k, int)
            or portfolio_k < 1
        ):
            # the "ValueError:" prefix keeps the error class these
            # replies have always named
            raise ReproError(
                "ValueError: 'portfolio' must be a JSON integer >= 1, "
                f"got {json.dumps(portfolio_k)}"
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


def failed_record(exc: BaseException) -> dict[str, Any]:
    """The ``ok=false`` record of a solve that raised ``exc``.

    A :exc:`~repro.exceptions.ReproError` keeps its bare message; any
    other exception is prefixed with its type, so a defect stays
    visible to the client and to the stats.
    """
    if isinstance(exc, ReproError):
        return {"ok": False, "error": str(exc)}
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


class SolveJob(NamedTuple):
    """One parsed solve request: the arguments of :func:`build_solve_record`."""

    payload: dict[str, Any]
    algorithm: str
    portfolio_k: int | None
    key: str


def solve_payload(
    payload: Any, algorithm: str, portfolio_k: int | None = None
) -> tuple[SchedulingInstance | None, str | None, Schedule | None, float, str | None]:
    """Decode and solve one payload: the solve path of every tier.

    Returns ``(instance, chosen, schedule, wall_time_s, error)``.  The
    solve is named, ``auto`` (resolved by :func:`auto_choice`) or, with
    ``portfolio_k``, a portfolio race; ``wall_time_s`` times it.  Never
    raises: on any failure ``schedule`` is ``None``, ``error`` is worded
    as :func:`failed_record` words it, ``wall_time_s`` is ``0.0``, and
    ``instance`` and ``chosen`` keep what was resolved before the
    failure.  Module-level, so a worker process can run it.
    """
    instance: SchedulingInstance | None = None
    chosen: str | None = None
    try:
        instance = instance_from_dict(payload)
        start = perf_counter()
        if portfolio_k is not None:
            result = portfolio_solve(instance, k=portfolio_k)
            chosen, schedule = result.chosen, result.schedule
        else:
            chosen = auto_choice(instance) if algorithm == "auto" else algorithm
            schedule = solve(instance, algorithm=chosen)
        wall = perf_counter() - start
        # every record reads the makespan: reading it here turns a plugin
        # that returns no Schedule, or one whose makespan cannot be
        # computed, into an error rather than a record shaper's exception
        schedule.makespan
    except Exception as exc:  # noqa: BLE001 — malformed payloads raise
        # KeyError/ValueError and plugins anything; every solve ends in a
        # result or an error
        return instance, chosen, None, 0.0, failed_record(exc)["error"]
    return instance, chosen, schedule, wall, None


def build_solve_record(
    payload: dict[str, Any],
    algorithm: str,
    portfolio_k: int | None,
    key: str,
) -> dict[str, Any]:
    """Solve one validated payload into its cacheable serve record.

    Never raises: a failed solve (unknown algorithm, infeasible or
    malformed instance, ...) comes back as a :func:`failed_record`.
    Module-level, with the reply ``id`` left ``None``, so the TCP tier
    can run it in a worker process.
    """
    instance, chosen, schedule, wall, error = solve_payload(
        payload, algorithm, portfolio_k
    )
    if instance is None or schedule is None:
        return {"ok": False, "error": error}
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


class ServeProtocol:
    """The request protocol both serving tiers extend.

    Owns everything about a request except where its solve runs:
    decoding and encoding lines, the ``ping``/``stats``/unknown-op
    replies, parsing a solve request into its cache key, the cache
    check, counting and caching a fresh record, and shaping a record
    into a reply.  A tier adds ``handle_line``/``handle_request`` and
    runs :func:`build_solve_record` its own way.

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
    errors are re-evaluated per request.  Cache records are v1-shaped
    whichever tier wrote them, so the tiers can share a directory.
    """

    #: the protocol version every reply names
    format = SERVE_FORMAT

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

    def _decode(self, line: str) -> dict[str, Any] | str:
        """The request object on ``line``, or the reply line refusing it.

        A refused line counts one request and one error.
        """
        try:
            request = json.loads(line)
        except Exception as exc:  # noqa: BLE001 — JSONDecodeError is only
            # the common case: deep nesting raises RecursionError and a
            # huge integer literal ValueError
            message = f"malformed request line: {exc}"
        else:
            if isinstance(request, dict):
                return request
            message = "request must be a JSON object"
        self.stats.requests += 1
        self.stats.errors += 1
        return json.dumps(self._error(None, message))

    def _encode(self, reply: dict[str, Any]) -> str:
        """One reply as one JSON line, or an error line if it cannot be."""
        try:
            return json.dumps(reply)
        except Exception as exc:  # noqa: BLE001 — the client still gets
            # one parseable line
            self.stats.errors += 1
            return json.dumps(
                self._error(None, f"unserialisable response: {type(exc).__name__}")
            )

    def _error(self, request_id: Any, message: str) -> dict[str, Any]:
        return {"format": self.format, "id": request_id, "ok": False, "error": message}

    def _refuse(self, request: dict[str, Any], exc: Exception) -> dict[str, Any]:
        """The error reply to a request whose handling raised ``exc``."""
        self.stats.errors += 1
        return self._reply(failed_record(exc), request)

    def _control(self, request: dict[str, Any]) -> dict[str, Any] | None:
        """The reply to a control op, or ``None`` when ``request`` is a solve."""
        op = request.get("op", "solve")
        if op == "solve":
            return None
        if op == "ping":
            return {"format": self.format, "id": request.get("id"), "op": "ping", "ok": True}
        if op == "stats":
            return self._stats_reply(request.get("id"))
        self.stats.errors += 1
        return self._error(request.get("id"), f"unknown op {op!r}")

    def _stats_reply(self, request_id: Any) -> dict[str, Any]:
        return {
            "format": self.format,
            "id": request_id,
            "op": "stats",
            "ok": True,
            "stats": self.stats.to_dict(),
        }

    def _parse(self, request: dict[str, Any]) -> SolveJob:
        payload, algorithm, portfolio_k, cache_algorithm = parse_solve_request(
            request, self.algorithm
        )
        # the "serve/" marker namespaces serve keys apart from batch
        # task keys, so pointing --cache-dir at a batch cache can never
        # be answered with (or collide against) batch-shaped records
        key = task_key(payload, f"serve/{cache_algorithm}")
        return SolveJob(payload, algorithm, portfolio_k, key)

    def _cached(self, key: str) -> dict[str, Any] | None:
        """The cached record under ``key``, marked as a hit; ``None`` on a miss."""
        if key not in self.cache:
            return None
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
        record.update(cached=True, wall_time_s=0.0)
        return record

    def _count(self, key: str, record: dict[str, Any]) -> None:
        """Count one fresh record, caching it when it is a result."""
        if record["ok"]:
            self.stats.solved += 1
            self.cache.put(key, dict(record, id=None, wall_time_s=0.0))
        else:
            self.stats.errors += 1

    def _reply(
        self, record: dict[str, Any], request: dict[str, Any], **extra: Any
    ) -> dict[str, Any]:
        """One record shaped into one requester's reply; ``extra`` comes last."""
        if not record["ok"]:
            return dict(self._error(request.get("id"), record["error"]), **extra)
        reply = dict(record, format=self.format, id=request.get("id"), **extra)
        if request.get("explain"):
            # explain derives from the instance alone (no solve), so
            # cache hits and coalesced followers still answer it
            reply["explain"] = explain_dispatch(
                instance_from_dict(request["instance"]),
                request.get("algorithm") or self.algorithm,
            ).to_dict()
        return reply


class EngineService(ServeProtocol):
    """The stdin tier behind ``repro serve``: one request at a time, solved inline."""

    def handle_line(self, line: str) -> str:
        """One JSONL request line in, exactly one JSONL response line out.

        The protocol boundary: whatever junk arrives — non-JSON bytes,
        deeply nested JSON, huge integer literals, wrong-typed fields —
        the reply is a single parseable JSON line with a boolean ``ok``,
        and every call counts exactly one request.  The fuzz suite pins
        this down.
        """
        request = self._decode(line)
        if isinstance(request, str):
            return request
        return self._encode(self.handle_request(request))

    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one decoded request, timing it into the stats surface."""
        self.stats.requests += 1
        started = perf_counter()
        try:
            reply = self._control(request)
            return reply if reply is not None else self._solve(request)
        except Exception as exc:  # noqa: BLE001 — a persistent server
            # must survive *any* bad request
            return self._refuse(request, exc)
        finally:
            self.stats.observe_latency(perf_counter() - started)

    def _solve(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self._parse(request)
        record = self._cached(job.key)
        if record is None:
            record = build_solve_record(*job)
            self._count(job.key, record)
        return self._reply(record, request)

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
