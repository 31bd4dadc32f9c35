"""E20 — closed-loop load on the concurrent asyncio serving tier.

Regenerates: a closed-loop load run against ``repro serve``'s TCP tier.
Each of ``CONCURRENCY`` clients keeps one persistent connection and
issues ``REQUESTS`` solve requests with ``THINK_S`` of think time
between them — a mixed workload over gilbert/crown uniform instances
spanning an order of magnitude of solve time plus an unrelated-machines
family, with every client's first request identical (the coalescing hot
spot).  The table reports wall time, throughput, and client-observed
p50/p95/p99 latency, plus the serving counters
(solved/cached/coalesced/rejected).

The run asserts that every request is answered without error or
rejection and, at full size, that the identical first wave coalesces.

Set ``REPRO_BENCH_SMOKE=1`` for the CI smoke shape (6 clients x 3
requests, tiny instances) — that run guards the pipeline, not the
numbers, and skips the coalescing assertion.
"""

import asyncio
import json
import os
from fractions import Fraction
from time import perf_counter

import numpy as np

from repro.engine import AsyncEngineService, serve_async
from repro.engine.service import LatencyReservoir
from repro.analysis.tables import format_table
from repro.graphs import generators
from repro.io import instance_to_dict
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.instance import UnrelatedInstance, unit_uniform_instance

from benchmarks._common import emit_record, emit_table

F = Fraction

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
CONCURRENCY = 6 if SMOKE else 32
REQUESTS = 3 if SMOKE else 8
THINK_S = 0.005 if SMOKE else 0.03


def _payload_pool():
    """The mixed workload: solve times spanning ~1.7ms to ~45ms."""
    rng = np.random.default_rng(20)
    speeds = [F(3), F(2), F(1)]
    halves = [(8, 0.3), (12, 0.2)] if SMOKE else [
        (60, 0.05), (150, 0.03), (300, 0.02), (600, 0.01),
    ]
    pool = [
        instance_to_dict(
            unit_uniform_instance(gnnp(half, p, seed=rng), speeds)
        )
        for half, p in halves
    ]
    graph = generators.matching_graph(6 if SMOKE else 30)
    times = rng.integers(1, 12, size=(2, graph.n)).tolist()
    pool.append(instance_to_dict(UnrelatedInstance(graph, times)))
    # biggest first: every client opens with it, so the async tier's
    # first wave coalesces onto one solve
    return pool


def _client_schedules(pool):
    big = pool[-2] if not SMOKE else pool[0]
    return [
        [big] + [pool[(i + r) % len(pool)] for r in range(1, REQUESTS)]
        for i in range(CONCURRENCY)
    ]


async def _run_load(host, port, schedules, think_s):
    """Drive every client concurrently; return (wall_s, latencies_s)."""

    async def one_client(client_id, payloads):
        latencies = []
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for r, payload in enumerate(payloads):
                request = {
                    "op": "solve",
                    "id": f"c{client_id}r{r}",
                    "instance": payload,
                }
                t0 = perf_counter()
                writer.write((json.dumps(request) + "\n").encode("utf-8"))
                await writer.drain()
                response = json.loads(await reader.readline())
                latencies.append(perf_counter() - t0)
                assert response["ok"], response
                assert response["assignment"], response
                await asyncio.sleep(think_s)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        return latencies

    t0 = perf_counter()
    per_client = await asyncio.gather(
        *(one_client(i, s) for i, s in enumerate(schedules))
    )
    wall = perf_counter() - t0
    return wall, [lat for client in per_client for lat in client]


def _row(server, wall, latencies, stats):
    reservoir = LatencyReservoir(window=max(len(latencies), 1))
    for lat in latencies:
        reservoir.observe(lat)
    snap = reservoir.snapshot()
    return [
        server,
        CONCURRENCY,
        len(latencies),
        round(wall, 3),
        round(len(latencies) / wall, 1),
        snap["p50_ms"],
        snap["p95_ms"],
        snap["p99_ms"],
        stats.solved,
        stats.cached,
        stats.coalesced,
        stats.rejected,
        stats.errors,
    ]


def _bench_async(schedules):
    service = AsyncEngineService(max_inflight=8, max_queue=64)

    async def run():
        address = []
        bound = asyncio.Event()

        def ready(addr):
            address.append(addr)
            bound.set()

        total = CONCURRENCY * REQUESTS
        server = asyncio.create_task(
            serve_async(service, port=0, max_requests=total, ready=ready)
        )
        await bound.wait()
        host, port = address[0]
        wall, latencies = await _run_load(host, port, schedules, THINK_S)
        await asyncio.wait_for(server, timeout=60)
        return wall, latencies

    try:
        wall, latencies = asyncio.run(run())
    finally:
        service.close()
    return _row("asyncio", wall, latencies, service.stats)


def test_e20_serve_load(benchmark):
    pool = _payload_pool()
    schedules = _client_schedules(pool)

    def build():
        return [_bench_async(schedules)]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    cols = ["server", "clients", "requests", "wall_s", "qps",
            "p50_ms", "p95_ms", "p99_ms",
            "solved", "cached", "coalesced", "rejected", "errors"]
    (asy,) = rows
    emit_table(
        "E20_serve_load",
        format_table(
            cols,
            rows,
            title=(
                f"E20: {CONCURRENCY} closed-loop clients x {REQUESTS} "
                f"requests, think {THINK_S * 1000:.0f}ms"
            ),
        ),
    )
    emit_record(
        "SERVE_load", cols, rows,
        notes=(
            f"closed-loop: {CONCURRENCY} clients x {REQUESTS} requests, "
            f"think {THINK_S}s{' [smoke]' if SMOKE else ''}"
        ),
        meta={
            "concurrency": CONCURRENCY,
            "requests_per_client": REQUESTS,
            "think_s": THINK_S,
            "smoke": SMOKE,
        },
    )
    # every request must be answered correctly
    assert asy[12] == 0, rows
    assert asy[11] == 0, rows  # no rejections at this load
    # coalescing must actually fire on the identical first wave
    if not SMOKE:
        assert asy[10] >= CONCURRENCY // 4, rows
