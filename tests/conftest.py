"""Shared fixtures and instance factories for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs.bipartite import BipartiteGraph
from repro.scheduling.instance import UniformInstance, UnrelatedInstance


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def pool_guard():
    """For tests that start worker processes: no hang, no process left behind.

    A test still running after 60 s has its new worker processes killed
    and the test process interrupted, so a hung pool stops the run with a
    traceback of where it waited, instead of stalling it.  A worker
    process still alive at teardown fails the test.
    """
    before = set(multiprocessing.active_children())

    def expire() -> None:
        for child in set(multiprocessing.active_children()) - before:
            child.kill()
        os.kill(os.getpid(), signal.SIGINT)

    watchdog = threading.Timer(60, expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()
    assert not set(multiprocessing.active_children()) - before


def random_bipartite(rng: np.random.Generator, max_side: int = 8, p: float | None = None) -> BipartiteGraph:
    """A random two-sided graph for oracle-based tests."""
    a = int(rng.integers(1, max_side + 1))
    b = int(rng.integers(1, max_side + 1))
    prob = float(rng.random() * 0.6) if p is None else p
    edges = [(i, j) for i in range(a) for j in range(b) if rng.random() < prob]
    return BipartiteGraph.from_parts(a, b, edges)


def random_uniform_instance(
    rng: np.random.Generator,
    max_jobs: int = 9,
    max_machines: int = 4,
    max_p: int = 8,
    max_speed: int = 6,
) -> UniformInstance:
    """A small random uniform instance for brute-force comparisons."""
    g = random_bipartite(rng, max_side=max(1, max_jobs // 2))
    p = [int(x) for x in rng.integers(1, max_p + 1, g.n)]
    m = int(rng.integers(2, max_machines + 1))
    speeds = sorted(
        (Fraction(int(rng.integers(1, max_speed + 1))) for _ in range(m)),
        reverse=True,
    )
    return UniformInstance(g, p, speeds)


def random_r2(
    rng: np.random.Generator, max_side: int = 5, max_time: int = 20, max_den: int = 1
) -> UnrelatedInstance:
    """A small random two-machine unrelated instance.

    Times are integers in ``[1, max_time]``, divided by a random
    denominator in ``[1, max_den]`` when ``max_den > 1``.
    """
    g = random_bipartite(rng, max_side=max_side)
    times = [[int(x) for x in rng.integers(1, max_time + 1, g.n)] for _ in range(2)]
    if max_den > 1:
        times = [
            [Fraction(t, int(d)) for t, d in zip(row, rng.integers(1, max_den + 1, g.n))]
            for row in times
        ]
    return UnrelatedInstance(g, times)
