"""Regenerate the frozen differential corpus (``corpus.jsonl``).

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/differential/regen_corpus.py

Deterministic: a fixed seed drives every draw, so reruns reproduce the
same ~70 instances byte-for-byte.  Expected makespans are computed
through the engine's ranked dispatch at the shipped numpy cutoffs — the
corpus therefore freezes both the *instances* and the *behaviour*, and
``test_differential_corpus.py`` replays every kernel tier against it
without any Hypothesis shrinking in the loop.

The mix spans the v3 vocabulary: bipartite / complete-multipartite /
block conflict graphs (general structure is realised by >= 3-part
multipartite and multi-block graphs — there is no concrete "general"
class), identical / integer / rational uniform speeds, unit and mixed
job sizes, with and without eligibility masks, plus unrelated (R)
instances.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

from repro.engine import solve  # noqa: E402
from repro.graphs.bipartite import BipartiteGraph  # noqa: E402
from repro.graphs.conflict import (  # noqa: E402
    BlockGraph,
    CompleteMultipartiteGraph,
)
from repro.io.serialization import frac_str, instance_to_dict  # noqa: E402
from repro.scheduling.instance import (  # noqa: E402
    UniformInstance,
    UnrelatedInstance,
)

SEED = 20260808
OUT = Path(__file__).resolve().parent / "corpus.jsonl"


def _bipartite(rng: random.Random, a: int, b: int, prob: float) -> BipartiteGraph:
    edges = [
        (u, a + v) for u in range(a) for v in range(b) if rng.random() < prob
    ]
    return BipartiteGraph(a + b, edges, side=[0] * a + [1] * b)


def _partition(rng: random.Random, n: int, k: int) -> list[list[int]]:
    labels = [rng.randrange(k) for _ in range(n)]
    for i in range(min(k, n)):  # keep all k parts non-empty
        labels[i] = i
    groups: list[list[int]] = [[] for _ in range(k)]
    for v, lab in enumerate(labels):
        groups[lab].append(v)
    return [g for g in groups if g]


def _speeds(rng: random.Random, m: int, kind: str) -> list[Fraction]:
    if kind == "identical":
        return [Fraction(rng.randint(1, 3))] * m
    if kind == "integer":
        vals = [Fraction(rng.randint(1, 8)) for _ in range(m)]
    else:
        vals = [
            Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(m)
        ]
    return sorted(vals, reverse=True)


def _p(rng: random.Random, n: int, unit: bool) -> list[int]:
    return [1] * n if unit else [rng.randint(1, 8) for _ in range(n)]


def _graph(rng: random.Random, kind: str, n_target: int):
    """Return ``(graph, k_min)`` — ``k_min`` colors always suffice."""
    if kind == "bipartite":
        a = max(1, n_target // 2)
        return _bipartite(rng, a, n_target - a, rng.uniform(0.15, 0.5)), 2
    parts = _partition(rng, n_target, rng.randint(2, 4))
    if kind == "complete_multipartite":
        return CompleteMultipartiteGraph(n_target, parts), len(parts)
    g = BlockGraph(n_target, parts)
    return g, max(len(blk) for blk in parts)


def build_candidates(rng: random.Random):
    """Yield (tag, instance) candidates across the v3 vocabulary."""
    graph_kinds = ["bipartite", "complete_multipartite", "block"]
    speed_kinds = ["identical", "integer", "rational"]
    # 36 uniform instances: all graph-kind x speed-kind x {unit, mixed} x 2 sizes
    idx = 0
    for gk in graph_kinds:
        for sk in speed_kinds:
            for unit in (True, False):
                for n_target in (8, 14):
                    g, k_min = _graph(rng, gk, n_target)
                    m = rng.randint(max(2, k_min), max(2, k_min) + 2)
                    inst = UniformInstance(
                        g, _p(rng, g.n, unit), _speeds(rng, m, sk)
                    )
                    yield f"uniform-{gk}-{sk}-{'unit' if unit else 'mixed'}-{idx}", inst
                    idx += 1
    # 8 with eligibility masks
    for i in range(8):
        gk = graph_kinds[i % 3]
        g, k_min = _graph(rng, gk, 10)
        m = max(3, k_min + 1)
        eligible = [
            None
            if rng.random() < 0.5
            else sorted(rng.sample(range(m), rng.randint(2, m)))
            for _ in range(g.n)
        ]
        inst = UniformInstance(
            g,
            _p(rng, g.n, i % 2 == 0),
            _speeds(rng, m, speed_kinds[i % 3]),
            eligible=eligible,
        )
        yield f"eligible-{gk}-{i}", inst
    # 8 unrelated instances (m = 2, 3 and above the coloring need), all
    # times finite
    for i in range(8):
        gk = graph_kinds[i % 3]
        g, k_min = _graph(rng, gk, 8)
        m = max(2 + (i % 2), k_min)
        times: list[list[Fraction | None]] = []
        for _ in range(m):
            times.append([Fraction(rng.randint(1, 12)) for _ in range(g.n)])
        inst = UnrelatedInstance(g, times)
        yield f"unrelated-{gk}-m{m}-{i}", inst
    # run-heavy instances: long equal-p_j runs over grouped speeds, the
    # event-calendar batching inputs.  A fresh generator (SEED + 1) keeps
    # every earlier record byte-identical across regenerations.
    yield from build_run_heavy_candidates(random.Random(SEED + 1))
    # Algorithm 5 at full size: DP layers far above the numpy step's
    # cutoff; again a fresh generator keeps the records above unchanged
    yield from build_r2dp_candidates(random.Random(SEED + 2))


def build_run_heavy_candidates(rng: random.Random):
    """Yield (tag, instance) with few distinct p values in long runs.

    Covers the calendar edge cases: a single speed group, all-equal
    speeds with all-equal jobs, and a dominant run long enough to span a
    speed-group switch mid-placement.
    """
    # (tag suffix, speed-group widths, distinct speed values drawn below)
    shapes = [
        ("single-group", [3]),
        ("two-group", [2, 2]),
        ("three-group", [1, 2, 1]),
        ("wide-single", [5]),
    ]
    idx = 0
    for suffix, widths in shapes:
        for n_sizes in (1, 2, 3):
            values = sorted(
                rng.sample(range(1, 7), len(widths)), reverse=True
            )
            speeds: list[Fraction] = []
            for value, width in zip(values, widths):
                speeds.extend([Fraction(value)] * width)
            sizes = sorted(rng.sample(range(1, 10), n_sizes), reverse=True)
            p: list[int] = []
            for size in sizes:
                p.extend([size] * rng.randint(6, 14))
            n = len(p)
            g = BipartiteGraph(n, [], side=[0] * n)
            inst = UniformInstance(g, p, speeds)
            yield f"runheavy-{suffix}-sizes{n_sizes}-{idx}", inst
            idx += 1


def build_r2dp_candidates(rng: random.Random):
    """Yield (tag, instance) that ``auto`` sends to Algorithm 5 (m = 2).

    Sparse ``G(k, k, 0.8/k)`` with 150-300 jobs, uniform (``q2_fptas``)
    and unrelated (``r2_fptas``): their DP layers hold hundreds of
    states, so the shipped cutoff builds them with the numpy step.
    """
    shapes = [
        ("q-integer", 75, "integer"),
        ("q-rational", 150, "rational"),
        ("r-integer", 100, None),
        ("r-rational", 125, None),
    ]
    for idx, (suffix, k, speed_kind) in enumerate(shapes):
        g = _bipartite(rng, k, k, 0.8 / k)
        if speed_kind is not None:
            inst = UniformInstance(
                g, _p(rng, g.n, False), _speeds(rng, 2, speed_kind)
            )
        elif suffix == "r-integer":
            inst = UnrelatedInstance(
                g, [[rng.randint(1, 20) for _ in range(g.n)] for _ in range(2)]
            )
        else:
            inst = UnrelatedInstance(
                g,
                [
                    [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(g.n)]
                    for _ in range(2)
                ],
            )
        yield f"r2dp-{suffix}-n{g.n}-{idx}", inst


def main() -> None:
    rng = random.Random(SEED)
    records = []
    for tag, inst in build_candidates(rng):
        try:
            schedule = solve(inst)
        except Exception as exc:  # infeasible / no eligible algorithm
            print(f"skip {tag}: {type(exc).__name__}: {exc}")
            continue
        records.append(
            {
                "id": tag,
                "instance": instance_to_dict(inst),
                "expected_makespan": frac_str(schedule.makespan),
                "feasible": schedule.is_feasible(),
            }
        )
    with OUT.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {len(records)} instances to {OUT}")


if __name__ == "__main__":
    main()
