"""The serve protocol both tiers share, pinned reply for reply.

One table of request lines goes through the stdin tier
(:class:`~repro.engine.EngineService`) and the TCP tier's handler
(:class:`~repro.engine.AsyncEngineService`) on a thread pool and on a
process pool.  The sha256 of each configuration's replies was recorded
before the two tiers shared one implementation, so any drift in reply
bytes (keys, key order, messages, counters) fails here.
"""

import asyncio
import hashlib
import json
import multiprocessing
import os
from fractions import Fraction

import pytest

from repro.engine import (
    AlgorithmSpec,
    AsyncEngineService,
    Capability,
    EngineService,
    register_algorithm,
    unregister_algorithm,
)
from repro.graphs import generators
from repro.io import instance_to_dict
from repro.scheduling.instance import UnrelatedInstance, unit_uniform_instance

F = Fraction


def _uniform(half, speeds):
    return instance_to_dict(
        unit_uniform_instance(generators.crown(half), [F(s) for s in speeds])
    )


def _line(**request):
    return json.dumps(request)


_R_PAYLOAD = instance_to_dict(
    UnrelatedInstance(generators.matching_graph(2), [[2, 3, 1, 4], [5, 1, 2, 2]])
)
_R_NULL_TIME = {
    "format": "repro/v1",
    "kind": "unrelated_instance",
    "graph": {
        "format": "repro/v1",
        "kind": "graph",
        "n": 3,
        "side": [0, 0, 1],
        "edges": [[0, 2]],
    },
    "times": [["1", None, "2"], ["3", "4", "5"]],
}

#: every request shape the protocol answers, in an order whose cache
#: state matters (the repeats below are hits on earlier solves)
REQUEST_LINES = [
    _line(op="solve", id=1, instance=_uniform(4, [3, 1])),
    _line(op="solve", id=2, instance=_uniform(4, [3, 1])),
    _line(op="solve", id=3, instance=_uniform(5, [2, 1]), explain=True),
    _line(op="solve", id=4, instance=_uniform(4, [3, 1]), explain=True),
    _line(op="solve", id=5, instance=_uniform(3, [3, 2, 1]), portfolio=2),
    _line(op="solve", id=6, instance=_R_PAYLOAD),
    _line(op="solve", id=7, instance=_R_NULL_TIME, algorithm="r2_fptas"),
    _line(op="solve", id=8, instance=_uniform(4, [3, 1]), algorithm="quantum_annealing"),
    _line(op="solve", id=9),
    _line(op="solve", id=10, instance={"kind": "uniform_instance"}),
    _line(op="solve", id=11, instance=_uniform(4, [3, 1]), algorithm=5),
    _line(op="dance", id=12),
    _line(op="ping", id=13),
    "{broken",
    "[1, 2]",
    "[" * 3000 + "]" * 3000,
    "9" * 5000,
    _line(op="solve", id=14, instance=_uniform(3, [1])),
    _line(op="stats", id=15),
]

#: sha256 of the normalised replies, recorded before the tiers shared
#: one protocol implementation
PINNED = {
    "stdin": "bb8eb620848a5b4882b7966c592400c90f10cc7c452e9a9abbbc3aa0454f0834",
    "async-threads": "c161bfcaf5a06a36082904b1603bfd416e27a164d181253d1f601e210f7985cd",
    "async-processes": "600ad325d3c5ef0deaf1a7ee5a960f8a83b5544a70780a11df0a0d04f4e3794f",
}

#: fields that differ run to run: timings, and process-wide kernel
#: cache counters that depend on what else ran in the process
_VOLATILE = {"wall_time_s", "uptime_s", "qps", "p50_ms", "p95_ms", "p99_ms",
             "mean_ms", "max_ms", "fastpath"}


def _normalise(value):
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items() if k not in _VOLATILE}
    if isinstance(value, list):
        return [_normalise(v) for v in value]
    if isinstance(value, str) and value.startswith("malformed request line: "):
        # the parser's own wording (JSONDecodeError, RecursionError, the
        # int-conversion limit) belongs to the Python version, not to us
        return "malformed request line: <parser message>"
    return value


def digest(replies):
    """sha256 over the replies with the volatile fields removed.

    Key order is kept: it is part of the bytes a client reads.
    """
    lines = [json.dumps(_normalise(json.loads(reply))) for reply in replies]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def serve_lines(config, lines):
    """Every line through one service configuration, in order."""
    if config == "stdin":
        service = EngineService()
        return [service.handle_line(line) for line in lines]
    workers = {"async-threads": 1, "async-processes": 2}[config]

    async def run():
        service = AsyncEngineService(workers=workers)
        try:
            return [await service.handle_line(line) for line in lines]
        finally:
            service.close()

    return asyncio.run(run())


@pytest.mark.parametrize("config", sorted(PINNED))
def test_reply_bytes_pinned(config):
    replies = serve_lines(config, REQUEST_LINES)
    assert len(replies) == len(REQUEST_LINES)
    assert digest(replies) == PINNED[config]


#: ``portfolio`` values a lenient ``int()`` used to accept or mangle,
#: as sent on the wire and as the error quotes them
_BAD_PORTFOLIOS = [
    ("true", "true"),
    ("2.9", "2.9"),
    ('"3"', '"3"'),
    ("1e300", "1e+300"),
    ("-0.5", "-0.5"),
    ("[2]", "[2]"),
]


def test_portfolio_must_be_a_positive_json_integer():
    payload = json.dumps(_uniform(3, [3, 2, 1]))
    template = '{"op": "solve", "id": 1, "instance": %s, "portfolio": %s}'
    lines = [template % (payload, sent) for sent, _ in _BAD_PORTFOLIOS]
    lines += [template % (payload, "2"), _line(op="stats")]
    for config in ("stdin", "async-threads"):
        *refused, good, stats = map(json.loads, serve_lines(config, lines))
        assert [r["error"] for r in refused] == [
            f"ValueError: 'portfolio' must be a JSON integer >= 1, got {quoted}"
            for _, quoted in _BAD_PORTFOLIOS
        ], config
        # a valid integer keeps its cache key and reply
        assert good["ok"] is True and good["algorithm"] == "portfolio:2", config
        assert stats["stats"]["errors"] == len(_BAD_PORTFOLIOS), config
        assert stats["stats"]["solved"] == 1, config


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a plugin registered at run time reaches pool workers only by fork",
)
def test_dead_worker_is_a_typed_error():
    def crash(instance):
        os._exit(1)

    register_algorithm(
        AlgorithmSpec(
            name="crash_worker",
            guarantee="test fixture",
            anchor="test",
            run=crash,
            capability=Capability(machine_kind="uniform", unit_jobs=True),
        )
    )

    async def run():
        service = AsyncEngineService(workers=2)
        try:
            dead = json.loads(
                await asyncio.wait_for(
                    service.handle_line(
                        _line(op="solve", id=1, instance=_uniform(4, [3, 1]),
                              algorithm="crash_worker")
                    ),
                    10,
                )
            )
            assert dead["ok"] is False and "BrokenProcessPool" in dead["error"]
            assert service.stats.errors == 1
            # the broken pool was replaced: a fresh solve is served
            fresh = json.loads(
                await asyncio.wait_for(
                    service.handle_line(_line(op="solve", id=2, instance=_uniform(5, [3, 1]))),
                    30,
                )
            )
            assert fresh["ok"] is True and fresh["cached"] is False
            assert service.stats.errors == 1 and service.stats.solved == 1
        finally:
            service.close()

    try:
        asyncio.run(run())
    finally:
        unregister_algorithm("crash_worker")
