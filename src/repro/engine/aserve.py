"""The asyncio TCP serving tier behind ``repro serve --port``.

:mod:`repro.engine.service` keeps the protocol and the stdin stream
mode; this module multiplexes many TCP connections on one event loop and
never blocks that loop on a solver:

* **dispatch** — solves run off-loop: on an in-process thread pool by
  default (``workers=1``), or on
  :class:`~repro.runtime.batch.BatchRunner`'s persistent multiprocessing
  pool (``workers > 1``), bridged back into the loop via
  ``apply_async`` callbacks.  The loop itself only parses, hashes, and
  routes, so a slow ``certified_optimal``-scale solve on one connection
  never stalls the others.
* **coalescing** — identical in-flight requests (same
  :func:`~repro.runtime.cache.task_key` content hash, which already
  namespaces by algorithm/portfolio) share one solve: the first request
  becomes the *leader*, followers await its future, every follower is
  counted in ``stats.coalesced``, and all of them receive the full
  response (makespan *and* assignment).
* **backpressure** — at most ``max_inflight`` concurrent solves plus
  ``max_queue`` admitted waiters.  Beyond that, requests needing a
  *fresh* solve are rejected immediately with ``ok=false,
  error="overloaded"`` (cache hits, coalesced followers, and control
  ops are still answered), so overload degrades into fast rejections
  instead of unbounded queue growth.
* **metrics** — the shared :class:`~repro.engine.service.ServiceStats`
  surface: qps, p50/p95/p99 latency from a ring-buffer reservoir, cache
  hit / coalesce / rejection counters — served by the ``stats`` op and
  an optional periodic log line (``repro serve --stats-interval``).

Responses carry ``format: "repro/serve/v2"``, a superset of v1 adding
``coalesced`` (and a ``server`` gauge block on ``stats``).  Cache
records stay v1-shaped, so a ``--cache-dir`` directory can be shared
freely between the stdin and TCP tiers and across restarts.
"""

from __future__ import annotations

import asyncio
import json
import sys
from time import perf_counter
from typing import Any, Callable, TextIO

from repro.engine.dispatch import explain_dispatch
from repro.engine.service import (
    EngineService,
    build_solve_record,
    parse_solve_request,
)
from repro.exceptions import CacheCollisionError, ReproError
from repro.io import instance_from_dict
from repro.runtime.cache import task_key

__all__ = [
    "SERVE_FORMAT_V2",
    "AsyncEngineService",
    "serve_async",
]

SERVE_FORMAT_V2 = "repro/serve/v2"

#: per-line size cap for the TCP stream reader (instances are a few KB;
#: 4 MiB leaves two orders of magnitude of headroom without letting one
#: client buffer unbounded garbage)
LINE_LIMIT = 1 << 22


def _pool_solve(
    payload: dict[str, Any],
    algorithm: str,
    portfolio_k: int | None,
    key: str,
) -> dict[str, Any]:
    """Worker entry point: one solve, never raises (module-level, picklable).

    Failures come back as an ``ok=false`` record shaped like the sync
    service's error responses (``ReproError`` keeps its bare message,
    anything else is prefixed with its type), so the event loop treats
    worker-side defects as data instead of dying on them.
    """
    try:
        return build_solve_record(payload, algorithm, portfolio_k, key)
    except ReproError as exc:
        return {"ok": False, "kind": "serve_error", "key": key, "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 — worker must answer, not crash
        return {
            "ok": False,
            "kind": "serve_error",
            "key": key,
            "error": f"{type(exc).__name__}: {exc}",
        }


class AsyncEngineService:
    """Asyncio request handler: coalescing, admission control, metrics.

    Parameters
    ----------
    cache:
        As :class:`~repro.engine.service.EngineService` — ``None``,
        a ready cache object, or a path (directory → sharded cache).
    algorithm:
        Default algorithm for requests without their own.
    workers:
        ``1`` (default) solves on an in-process thread pool — on one
        core the GIL serialises the compute but the event loop stays
        responsive; ``> 1`` hands solves to a persistent
        :class:`~repro.runtime.batch.BatchRunner` multiprocessing pool
        for real parallelism (worker processes see the built-in
        registry only, not runtime-registered plugins).
    max_inflight:
        Concurrent fresh solves admitted to the pool.
    max_queue:
        Admitted solves allowed to wait for a pool slot beyond
        ``max_inflight``; past that, fresh solves are rejected with
        ``error="overloaded"``.

    Notes
    -----
    All coroutine methods must run on a single event loop; the
    in-flight map and admission counters are loop-confined (no locks).
    Cache reads/writes touch disk inline — shard files are small
    JSONL appends, kept off the executor deliberately so cache-hit
    responses never queue behind solves.
    """

    def __init__(
        self,
        cache: Any | None = None,
        algorithm: str = "auto",
        workers: int = 1,
        max_inflight: int = 8,
        max_queue: int = 64,
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if max_inflight < 1:
            raise ReproError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ReproError(f"max_queue must be >= 0, got {max_queue}")
        # reuse the sync service for cache resolution, stats, and error
        # shaping — one implementation of the protocol invariants
        self._sync = EngineService(cache=cache, algorithm=algorithm)
        self.algorithm = algorithm
        self.cache = self._sync.cache
        self.stats = self._sync.stats
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.workers = workers
        self._runner = None
        self._executor = None
        if workers > 1:
            from repro.runtime.batch import BatchRunner

            self._runner = BatchRunner(workers=workers)
        else:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=min(max_inflight, 32),
                thread_name_prefix="repro-serve",
            )
        self._inflight: dict[str, asyncio.Future] = {}
        self._running = 0
        self._queued = 0
        self._gate = asyncio.Semaphore(max_inflight)

    def close(self) -> None:
        """Tear down the worker pool/executor (idempotent)."""
        if self._runner is not None:
            self._runner.close()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    async def handle_line(self, line: str) -> str:
        """One JSONL request line in, exactly one JSONL response line out.

        The same protocol-boundary guarantees as the sync
        :meth:`~repro.engine.service.EngineService.handle_line`: any
        junk input yields a single parseable JSON reply with a boolean
        ``ok`` and counts exactly one request.
        """
        try:
            request = json.loads(line)
        except Exception as exc:  # noqa: BLE001 — see the sync twin
            self.stats.requests += 1
            self.stats.errors += 1
            return json.dumps(
                self._error(None, f"malformed request line: {exc}")
            )
        if not isinstance(request, dict):
            self.stats.requests += 1
            self.stats.errors += 1
            return json.dumps(
                self._error(None, "request must be a JSON object")
            )
        try:
            return json.dumps(await self.handle_request(request))
        except Exception as exc:  # noqa: BLE001
            self.stats.errors += 1
            return json.dumps(
                self._error(None, f"unserialisable response: {type(exc).__name__}")
            )

    async def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one decoded request, timing it into the stats surface."""
        self.stats.requests += 1
        started = perf_counter()
        try:
            return await self._handle_op(request)
        except ReproError as exc:
            self.stats.errors += 1
            return self._error(request.get("id"), str(exc))
        except Exception as exc:  # noqa: BLE001 — the loop must survive
            # any bad request; the typed message keeps defects visible
            self.stats.errors += 1
            return self._error(
                request.get("id"), f"{type(exc).__name__}: {exc}"
            )
        finally:
            self.stats.observe_latency(perf_counter() - started)

    async def _handle_op(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op", "solve")
        request_id = request.get("id")
        if op == "ping":
            return {
                "format": SERVE_FORMAT_V2,
                "id": request_id,
                "op": "ping",
                "ok": True,
            }
        if op == "stats":
            return {
                "format": SERVE_FORMAT_V2,
                "id": request_id,
                "op": "stats",
                "ok": True,
                "stats": self.stats.to_dict(),
                "server": self.gauges(),
            }
        if op != "solve":
            self.stats.errors += 1
            return self._error(request_id, f"unknown op {op!r}")
        return await self._handle_solve(request)

    def gauges(self) -> dict[str, Any]:
        """Live serving gauges (momentary, unlike the stats counters)."""
        return {
            "inflight": self._running,
            "queued": self._queued,
            "coalescing_keys": len(self._inflight),
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "workers": self.workers,
        }

    def _error(self, request_id: Any, message: str) -> dict[str, Any]:
        response = self._sync._error_response(request_id, message)
        response["format"] = SERVE_FORMAT_V2
        return response

    async def _handle_solve(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        payload, algorithm, portfolio_k, cache_algorithm = parse_solve_request(
            request, self.algorithm
        )
        key = task_key(payload, f"serve/{cache_algorithm}")

        if key in self.cache:
            record = dict(self.cache.record(key))
            if record.get("kind") != "serve_result":
                raise CacheCollisionError(
                    f"cache key {key[:16]}... holds a non-serve record "
                    f"(kind={record.get('kind')!r}); the serve cache "
                    "directory is poisoned or shared with another tool"
                )
            self.stats.cached += 1
            record.update(cached=True, wall_time_s=0.0)
            return self._shape(record, request, request_id, coalesced=False)

        leader_future = self._inflight.get(key)
        if leader_future is not None:
            # coalesce: ride the in-flight solve instead of queueing a
            # duplicate; followers bypass admission control (they cost
            # no solver capacity) and each one is counted
            self.stats.coalesced += 1
            record = await asyncio.shield(leader_future)
            return self._shape(record, request, request_id, coalesced=True)

        if self._running + self._queued >= self.max_inflight + self.max_queue:
            self.stats.rejected += 1
            response = self._error(request_id, "overloaded")
            response["detail"] = (
                f"{self._running} solves in flight and {self._queued} queued "
                f"(max_inflight={self.max_inflight}, max_queue={self.max_queue}); "
                "retry later"
            )
            return response

        loop = asyncio.get_running_loop()
        leader_future = loop.create_future()
        self._inflight[key] = leader_future
        self._queued += 1
        try:
            async with self._gate:
                self._queued -= 1
                self._running += 1
                try:
                    record = await self._dispatch(payload, algorithm, portfolio_k, key)
                finally:
                    self._running -= 1
        except BaseException as exc:
            if not leader_future.done():
                leader_future.set_exception(exc)
                # consumed by any follower; nobody awaiting is also fine
                leader_future.exception()
            raise
        finally:
            self._inflight.pop(key, None)

        if record.get("ok"):
            self.stats.solved += 1
            self.cache.put(key, dict(record, id=None, wall_time_s=0.0))
        else:
            self.stats.errors += 1
        if not leader_future.done():
            leader_future.set_result(record)
        return self._shape(record, request, request_id, coalesced=False)

    async def _dispatch(
        self,
        payload: dict[str, Any],
        algorithm: str,
        portfolio_k: int | None,
        key: str,
    ) -> dict[str, Any]:
        """Run one solve off-loop and await its record."""
        loop = asyncio.get_running_loop()
        pool = self._runner.worker_pool() if self._runner is not None else None
        if pool is None:
            return await loop.run_in_executor(
                self._executor, _pool_solve, payload, algorithm, portfolio_k, key
            )
        future: asyncio.Future = loop.create_future()

        def _resolve(record: dict[str, Any]) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(record)
            )

        def _fail(exc: BaseException) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_exception(exc)
            )

        pool.apply_async(
            _pool_solve,
            (payload, algorithm, portfolio_k, key),
            callback=_resolve,
            error_callback=_fail,
        )
        return await future

    def _shape(
        self,
        record: dict[str, Any],
        request: dict[str, Any],
        request_id: Any,
        coalesced: bool,
    ) -> dict[str, Any]:
        """One cache/solve record into one per-requester v2 response."""
        if not record.get("ok"):
            response = self._error(request_id, str(record.get("error")))
            response["coalesced"] = coalesced
            return response
        response = dict(record)
        response["format"] = SERVE_FORMAT_V2
        response["id"] = request_id
        response["coalesced"] = coalesced
        if request.get("explain"):
            # explain derives from the instance alone (no solve), so
            # cache hits and coalesced followers still answer it
            response["explain"] = explain_dispatch(
                instance_from_dict(request["instance"]),
                request.get("algorithm") or self.algorithm,
            ).to_dict()
        return response


# ---------------------------------------------------------------------- #
# the TCP server loop
# ---------------------------------------------------------------------- #


def format_stats_line(service: AsyncEngineService) -> str:
    """One human-readable metrics line (the ``--stats-interval`` output)."""
    stats = service.stats
    snap = stats.latency.snapshot()

    def ms(value: Any) -> str:
        return "-" if value is None else f"{value:.1f}ms"

    gauges = service.gauges()
    return (
        f"serve[stats] qps={stats.qps():.1f} requests={stats.requests} "
        f"solved={stats.solved} cached={stats.cached} "
        f"coalesced={stats.coalesced} rejected={stats.rejected} "
        f"errors={stats.errors} p50={ms(snap['p50_ms'])} "
        f"p95={ms(snap['p95_ms'])} p99={ms(snap['p99_ms'])} "
        f"inflight={gauges['inflight']} queued={gauges['queued']} "
        f"connections={stats.connections}"
    )


async def _log_stats_periodically(
    service: AsyncEngineService, interval: float, sink: TextIO | None
) -> None:
    while True:
        await asyncio.sleep(interval)
        print(format_stats_line(service), file=sink or sys.stderr, flush=True)


async def serve_async(
    service: AsyncEngineService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    backlog: int = 128,
    max_requests: int | None = None,
    ready: Callable[[tuple], Any] | None = None,
    stats_interval: float | None = None,
    stats_sink: TextIO | None = None,
) -> int:
    """Serve JSONL requests concurrently over asyncio TCP.

    Many connections are multiplexed on the running event loop; within
    one connection lines are answered in order (send several
    *connections* to exploit concurrency and coalescing).  With
    ``max_requests`` the server shuts down after answering that many
    requests (one-shot smoke tests and benchmarks); ``port=0`` binds an
    ephemeral port, announced through ``ready`` once listening.
    ``stats_interval`` starts a periodic metrics line
    (:func:`format_stats_line`) on ``stats_sink`` (default stderr).
    Returns the number of requests answered.
    """
    stop = asyncio.Event()
    served = {"count": 0}

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        service.stats.connections += 1
        try:
            while not stop.is_set():
                try:
                    raw = await reader.readline()
                except ValueError:
                    # line over LINE_LIMIT: answer once, drop the client
                    # (the rest of its stream has lost line framing)
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "format": SERVE_FORMAT_V2,
                                    "id": None,
                                    "ok": False,
                                    "error": f"request line over {LINE_LIMIT} bytes",
                                }
                            )
                            + "\n"
                        ).encode("utf-8")
                    )
                    await writer.drain()
                    break
                if not raw:
                    break
                # decode permissively: invalid UTF-8 fragments become
                # replacement characters and fail JSON parsing, which the
                # protocol boundary answers as a typed error line
                line = raw.decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                response = await service.handle_line(line)
                writer.write((response + "\n").encode("utf-8"))
                await writer.drain()
                served["count"] += 1
                if max_requests is not None and served["count"] >= max_requests:
                    stop.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-conversation; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    server = await asyncio.start_server(
        on_connection, host, port, backlog=backlog, limit=LINE_LIMIT
    )
    if ready is not None:
        ready(server.sockets[0].getsockname())
    logger_task = None
    if stats_interval is not None and stats_interval > 0:
        logger_task = asyncio.create_task(
            _log_stats_periodically(service, stats_interval, stats_sink)
        )
    try:
        async with server:
            await stop.wait()
    finally:
        if logger_task is not None:
            logger_task.cancel()
            try:
                await logger_task
            except asyncio.CancelledError:
                pass
    return served["count"]
