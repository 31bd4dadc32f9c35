"""The asyncio TCP serving tier behind ``repro serve --port``.

The request protocol itself — line decoding, control ops, parsing,
cache keys and the cache check, error and reply shapes — is
:class:`repro.engine.service.ServeProtocol`, shared with the stdin
tier.  This module multiplexes many TCP connections on one event loop
and never blocks that loop on a solver:

* **executor** — every fresh solve is one ``loop.run_in_executor`` call
  of :func:`~repro.engine.service.build_solve_record`: on a thread pool
  by default (``workers=1``), or on a process pool (``workers > 1``).
  A worker process that dies ends its request in a typed
  ``BrokenProcessPool`` error, and the broken pool is replaced, so the
  next request is served.
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
from concurrent.futures import Executor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Any, Callable, TextIO

from repro.engine.service import (
    ServeProtocol,
    SolveJob,
    build_solve_record,
    failed_record,
)
from repro.exceptions import ReproError
from repro.runtime.batch import process_pool

# not called here: e2ebench/tracing.py wraps these two names in this
# module's namespace and reports a missing trace site without them
from repro.io import instance_from_dict  # noqa: F401
from repro.runtime.cache import task_key  # noqa: F401

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


class AsyncEngineService(ServeProtocol):
    """Asyncio request handler: coalescing, admission control, executor.

    Parameters
    ----------
    cache:
        As :class:`~repro.engine.service.ServeProtocol` — ``None``,
        a ready cache object, or a path (directory → sharded cache).
    algorithm:
        Default algorithm for requests without their own.
    workers:
        ``1`` (default) solves on an in-process thread pool — on one
        core the GIL serialises the compute but the event loop stays
        responsive; ``> 1`` solves on a process pool of that many
        workers for real parallelism (worker processes see the built-in
        registry only, not runtime-registered plugins).
    max_inflight:
        Concurrent fresh solves admitted to the executor.
    max_queue:
        Admitted solves allowed to wait for an executor slot beyond
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

    format = SERVE_FORMAT_V2

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
        super().__init__(cache=cache, algorithm=algorithm)
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.workers = workers
        self._executor = self._new_executor()
        self._inflight: dict[str, asyncio.Future[dict[str, Any]]] = {}
        self._running = 0
        self._queued = 0
        self._gate = asyncio.Semaphore(max_inflight)

    def _new_executor(self) -> Executor:
        if self.workers > 1:
            return process_pool(self.workers)
        return ThreadPoolExecutor(
            max_workers=min(self.max_inflight, 32),
            thread_name_prefix="repro-serve",
        )

    def close(self) -> None:
        """Shut the executor down, dropping queued solves (idempotent)."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    async def handle_line(self, line: str) -> str:
        """One JSONL request line in, exactly one JSONL response line out.

        The same protocol-boundary guarantees as the stdin tier's
        :meth:`~repro.engine.service.EngineService.handle_line`.
        """
        request = self._decode(line)
        if isinstance(request, str):
            return request
        return self._encode(await self.handle_request(request))

    async def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one decoded request, timing it into the stats surface."""
        self.stats.requests += 1
        started = perf_counter()
        try:
            reply = self._control(request)
            return reply if reply is not None else await self._solve(request)
        except Exception as exc:  # noqa: BLE001 — the loop must survive
            # any bad request
            return self._refuse(request, exc)
        finally:
            self.stats.observe_latency(perf_counter() - started)

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

    def _stats_reply(self, request_id: Any) -> dict[str, Any]:
        return dict(super()._stats_reply(request_id), server=self.gauges())

    async def _solve(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self._parse(request)
        cached = self._cached(job.key)
        if cached is not None:
            return self._reply(cached, request, coalesced=False)

        leader = self._inflight.get(job.key)
        if leader is not None:
            # coalesce: ride the in-flight solve instead of queueing a
            # duplicate; followers bypass admission control (they cost
            # no solver capacity) and each one is counted
            self.stats.coalesced += 1
            return self._reply(await asyncio.shield(leader), request, coalesced=True)

        if self._running + self._queued >= self.max_inflight + self.max_queue:
            self.stats.rejected += 1
            reply = self._error(request.get("id"), "overloaded")
            reply["detail"] = (
                f"{self._running} solves in flight and {self._queued} queued "
                f"(max_inflight={self.max_inflight}, max_queue={self.max_queue}); "
                "retry later"
            )
            return reply

        leader = asyncio.get_running_loop().create_future()
        self._inflight[job.key] = leader
        self._queued += 1
        try:
            async with self._gate:
                self._queued -= 1
                self._running += 1
                try:
                    record = await self._run(job)
                finally:
                    self._running -= 1
        except BaseException as exc:
            if not leader.done():
                leader.set_exception(exc)
                # consumed by any follower; nobody awaiting is also fine
                leader.exception()
            raise
        finally:
            self._inflight.pop(job.key, None)

        self._count(job.key, record)
        if not leader.done():
            leader.set_result(record)
        return self._reply(record, request, coalesced=False)

    async def _run(self, job: SolveJob) -> dict[str, Any]:
        """One fresh solve on the executor; a dead worker is a typed error."""
        executor = self._executor
        try:
            return await asyncio.get_running_loop().run_in_executor(
                executor, build_solve_record, *job
            )
        except BrokenProcessPool as exc:
            # every request on the broken pool lands here; the first
            # one replaces it
            if executor is self._executor:
                executor.shutdown(wait=False)
                self._executor = self._new_executor()
            return failed_record(exc)


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
                    error = service._error(None, f"request line over {LINE_LIMIT} bytes")
                    writer.write((json.dumps(error) + "\n").encode("utf-8"))
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
