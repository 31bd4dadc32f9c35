"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of ``(seed, index)``: op ``i`` of a
workload is the same instance on every run, commit and machine, however
many ops came before it.  Instances are built from the package's public
classes and handed to the program only in serialized form
(``repro.io.instance_to_dict``).

The shape of each op (machine environment, ``m``, job count) cycles
through a fixed pattern instead of being drawn at random, so every run
of a workload carries exactly the same mix; the seed only moves the
graph edges, job sizes and speeds.  That keeps the run-to-run spread of
throughput and latency down to what the instances themselves cause.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

__all__ = ["WORKLOADS", "Workload", "gnnp_edges", "make_workload"]


def gnnp_edges(rng: random.Random, k: int, p: float) -> list[tuple[int, int]]:
    """Edges of ``G(k, k, p)`` as part-indexed ``(left, right)`` pairs.

    Geometric skipping over the ``k * k`` candidate pairs (Batagelj and
    Brandes), so sparse graphs cost ``O(edges)`` rather than ``O(k^2)``.
    """
    if p <= 0.0:
        return []
    if p >= 1.0:
        return [(i, j) for i in range(k) for j in range(k)]
    log_q = math.log(1.0 - p)
    edges: list[tuple[int, int]] = []
    e = -1
    total = k * k
    while True:
        e += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if e >= total:
            return edges
        edges.append(divmod(e, k))


def _op_rng(seed: int, index: int, salt: str) -> random.Random:
    # string seeds hash through SHA-512 inside random.seed, so distinct
    # (seed, index, salt) triples give independent streams on every platform
    return random.Random(f"{salt}:{seed}:{index}")


def _speeds(rng: random.Random, m: int) -> list[Fraction]:
    speeds = [Fraction(rng.randint(2, 12), rng.randint(1, 3)) for _ in range(m)]
    return sorted(speeds, reverse=True)


def _uniform(
    rng: random.Random, half: int, degree: float, m: int, p_max: int
) -> Any:
    from repro.graphs.bipartite import BipartiteGraph
    from repro.scheduling.instance import UniformInstance

    graph = BipartiteGraph.from_parts(
        half, half, gnnp_edges(rng, half, min(1.0, degree / half))
    )
    p = [rng.randint(1, p_max) for _ in range(2 * half)]
    return UniformInstance(graph, p, _speeds(rng, m))


def _unrelated(
    rng: random.Random, half: int, degree: float, m: int, rational: bool
) -> Any:
    from repro.graphs.bipartite import BipartiteGraph
    from repro.scheduling.instance import UnrelatedInstance

    graph = BipartiteGraph.from_parts(
        half, half, gnnp_edges(rng, half, min(1.0, degree / half))
    )
    if rational:
        times = [
            [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(2 * half)]
            for _ in range(m)
        ]
    else:
        times = [[rng.randint(1, 20) for _ in range(2 * half)] for _ in range(m)]
    return UnrelatedInstance(graph, times)


@dataclass(frozen=True)
class Workload:
    """One workload: how its ops are made and which tier serves them.

    ``tier`` is ``"sync"`` (``EngineService.handle_line``, the stdin
    tier), ``"async"`` (``AsyncEngineService.handle_line``, the TCP
    tier's handler) or ``"oracle"`` (``certified_optimal``).
    ``min_ops`` is the op count every run completes even past
    ``--seconds``: the makespan gmean and the output digest are taken
    over exactly these first ops, so both are fixed by the seed.
    ``half`` is the part size ``k`` of ``G(k, k, p)``; jobs are ``2k``.
    """

    name: str
    tier: str
    min_ops: int
    half: int
    seed: int = 0

    def request(self, index: int) -> tuple[Any, dict[str, Any], Any]:
        """``(instance, payload, what the timed loop sends)`` for op ``index``.

        ``payload`` is the instance serialized with
        ``repro.io.instance_to_dict``.  The service tiers get a JSONL
        request line; the oracle tier gets the payload itself, since its
        op starts with the decode.
        """
        from repro.io import instance_to_dict

        instance = _MAKERS[self.name](self, self.source_index(index))
        payload = instance_to_dict(instance)
        if self.tier == "oracle":
            return instance, payload, payload
        line = json.dumps({"op": "solve", "id": index, "instance": payload})
        return instance, payload, line

    def source_index(self, index: int) -> int:
        """The op whose instance op ``index`` carries (itself unless a repeat)."""
        if self.name != "sparse-fptas" or _SPARSE_PATTERN[index % 10] != "repeat":
            return index
        # a repeat re-sends an earlier op's instance: a cache read beside
        # the cache writes of the fresh ops
        earlier = _op_rng(self.seed, index, "repeat").randrange(index)
        return self.source_index(earlier)


def _dense_auto(w: Workload, index: int) -> Any:
    rng = _op_rng(w.seed, index, w.name)
    if index % 4 == 3:
        # unrelated with m >= 3 and edges: the r_color_split route,
        # whose decode of an m x n Fraction matrix is the heavy part
        return _unrelated(rng, w.half, 3.0, 3 + index % 3, rational=True)
    # average degree 3 gives one giant component; m >= 3 with edges
    # routes to sqrt_approx (Algorithm 1)
    m = 4 + (index * 5) % 13
    return _uniform(rng, w.half, 3.0, m, p_max=20)


#: sparse-fptas op shapes, cycled by op index: two repeats in ten
_SPARSE_PATTERN = ("q2", "r2", "qm", "q2", "repeat", "r2", "q2", "r2", "qm", "repeat")


def _sparse_fptas(w: Workload, index: int) -> Any:
    rng = _op_rng(w.seed, index, w.name)
    shape = _SPARSE_PATTERN[index % 10]
    if shape == "q2":
        # Q, m = 2: q2_fptas, Algorithm 5 on to_unrelated()
        return _uniform(rng, w.half, 0.8, 2, p_max=20)
    if shape == "r2":
        # R, m = 2: r2_fptas
        return _unrelated(rng, w.half, 0.8, 2, rational=False)
    # Q with m >= 3 routes to sqrt_approx, whose S1 runs the DP at eps = 1;
    # twice the jobs of the m = 2 shapes costs about the same per op, so
    # the median latency falls inside one cluster
    return _uniform(rng, 2 * w.half, 0.8, 3 + index % 4, p_max=20)


def _certify_exact(w: Workload, index: int) -> Any:
    # m = 3 only: at m = 4 a few searches run 10-20x the median and the
    # run-to-run spread of p90 grew past 20%
    rng = _op_rng(w.seed, index, w.name)
    p = 0.3 + 0.1 * rng.random()
    if index % 2 == 0:
        return _uniform(rng, w.half, p * w.half, 3, p_max=20)
    return _unrelated(rng, w.half, p * w.half, 3, rational=False)


_MAKERS = {
    "dense-auto": _dense_auto,
    "sparse-fptas": _sparse_fptas,
    "certify-exact": _certify_exact,
}

#: the full-size workloads the benchmark runs
WORKLOADS: dict[str, Workload] = {
    "dense-auto": Workload("dense-auto", tier="sync", min_ops=150, half=1000),
    "sparse-fptas": Workload("sparse-fptas", tier="async", min_ops=300, half=100),
    "certify-exact": Workload("certify-exact", tier="oracle", min_ops=400, half=7),
}


def make_workload(name: str, seed: int, **overrides: Any) -> Workload:
    """The named workload bound to ``seed`` (``overrides`` shrink it for tests)."""
    from dataclasses import replace

    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return replace(WORKLOADS[name], seed=seed, **overrides)
