"""End-to-end benchmark of the package's solve paths.

Run from the repository root::

    python3 e2ebench/run.py --workload dense-auto --seed 1 --seconds 16 --trace 0

One process, one closed-loop caller: each op is sent only after the
previous one answered.  The caller drives the public entry points from
outside: ``EngineService.handle_line`` (the stdin tier),
``AsyncEngineService.handle_line`` at ``workers=1`` (the TCP tier's
handler, no process pool) and ``certify.oracle.certified_optimal`` at
``workers=1``.  Inputs are generated from ``--seed`` with the clock
stopped, and every output is checked with the clock stopped.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs an
untraced pass, then the same ops again with timing wrappers on every
layer (see ``tracing.py``), and reports per-layer metrics; the spans are
written to ``e2ebench/out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``README.md`` in this directory has the metric glossary.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, make_workload  # noqa: E402

#: fresh-interpreter set-up measurements per run; the median is reported
SETUP_SAMPLES = 7

class BenchError(Exception):
    """The benchmark cannot run here (environment or checkout problem)."""


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #


def check_environment() -> None:
    """Refuse settings that change what is measured; expose ``src/``."""
    if "REPRO_FASTPATH" in os.environ:
        raise BenchError(
            "REPRO_FASTPATH is set; it switches kernel tiers, so results "
            "would not compare with other runs. Unset it and run again."
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC.relative_to(ROOT)}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_revision() -> str:
    """The checkout's commit id read from ``.git``, or ``"unknown"``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, Any]:
    """What every result is recorded with."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
    }


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


def build_service(tier: str) -> Any:
    """Import the package and build the tier's service (``None`` for the oracle)."""
    if tier == "sync":
        from repro.engine.service import EngineService

        return EngineService()
    if tier == "async":
        from repro.engine.aserve import AsyncEngineService

        return AsyncEngineService(workers=1)
    import repro.certify.oracle  # noqa: F401
    import repro.io  # noqa: F401

    return None


def close_service(service: Any) -> None:
    if service is not None and hasattr(service, "close"):
        service.close()


def setup_probe(tier: str) -> None:
    """Entry point of one fresh-interpreter set-up measurement.

    Prints ``[seconds, probe before, probe after]``; the probes run in
    the same interpreter, right around the timed set-up.
    """
    check_environment()
    before = probe_seconds()
    start = perf_counter()
    service = build_service(tier)
    elapsed = perf_counter() - start
    after = probe_seconds()
    close_service(service)
    print(json.dumps([elapsed, before, after]))


def measure_setup(tier: str, samples: int) -> list[tuple[float, float, float]]:
    """``(seconds, probe before, probe after)`` of set-up in ``samples``
    fresh interpreters, each one waited for."""
    timings = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", f"import run; run.setup_probe({tier!r})"],
            cwd=HERE, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        timings.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return timings


# ---------------------------------------------------------------------- #
# machine-speed probe
# ---------------------------------------------------------------------- #


def _reference_work() -> int:
    # a fixed slice of the interpreter work the solvers do: dict, list
    # and small-int arithmetic
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        items.append((total + i) % 13)
        total += (i * i) % 7
    return total + len(items)


def probe_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop (about 1 ms).

    Hosts shared with other tenants change speed by up to 1.6x within
    seconds.  Probes right before and right after each op tell how fast
    the machine ran around it.  Slow outliers come only from interrupts,
    so the best of three is the current speed.
    """
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best


def speed_adjusted(seconds: float, before: float, after: float, fastest: float) -> float:
    """``seconds`` scaled to the ``fastest`` probe of the run.

    A timing is scaled by the mean of the probes right around it, so
    time the host spent in a slow state does not count against the
    program.
    """
    return seconds * fastest / ((before + after) / 2)


# ---------------------------------------------------------------------- #
# the timed loop
# ---------------------------------------------------------------------- #


class Pass:
    """Timings and per-op output records of one closed-loop pass.

    ``timings[i]`` is ``(seconds, probe before, probe after)`` of op
    ``i``; ``records[i]`` is the hash of its answer.
    """

    def __init__(self) -> None:
        self.timings: list[tuple[float, float, float]] = []
        self.records: list[str] = []
        self.ratios: list[float] = []
        self.failures: list[str] = []

    @property
    def ops(self) -> int:
        return len(self.timings)

    def fastest_probe(self) -> float:
        return min(min(a, b) for _, a, b in self.timings)

    def raw(self) -> list[float]:
        return [t for t, _, _ in self.timings]

    def adjusted(self, fastest: float) -> list[float]:
        return [speed_adjusted(*timing, fastest) for timing in self.timings]


def oracle_op(payload: dict[str, Any]) -> Any:
    """One certify-exact op: decode, then certify the optimum.

    Both names are looked up on their modules at call time, so the
    traced run's wrappers see the calls.
    """
    io = sys.modules["repro.io"]
    oracle = sys.modules["repro.certify.oracle"]
    return oracle.certified_optimal(io.instance_from_dict(payload), workers=1)


async def _send(tier: str, service: Any, request: Any) -> Any:
    if tier == "async":
        return await service.handle_line(request)
    if tier == "oracle":
        return oracle_op(request)
    return service.handle_line(request)


Checker = Callable[[Pass, int, Any, dict, Any], None]


def run_pass(
    workload: Workload,
    check: Checker,
    seconds: float,
    min_ops: int,
    max_ops: int | None = None,
    on_op: Callable[[int], None] | None = None,
) -> Pass:
    """Send ops to a fresh service, one at a time, for ``seconds`` and ``min_ops``.

    Busy time counts the calls only, speed-adjusted (see
    :meth:`Pass.adjusted`) against the fastest probe so far, so a run
    does about the same work however busy the host is.  Making the next
    request, probing the machine right before and right after each call,
    and checking the reply (``check``) all happen with the clock stopped.
    """
    done = Pass()
    service = build_service(workload.tier)

    async def loop() -> None:
        fastest = math.inf
        busy = 0.0
        while (max_ops is None or done.ops < max_ops) and (
            busy < seconds or done.ops < min_ops
        ):
            index = done.ops
            instance, payload, request = workload.request(index)
            if on_op is not None:
                on_op(index)
            before = probe_seconds()
            start = perf_counter()
            reply = await _send(workload.tier, service, request)
            elapsed = perf_counter() - start
            after = probe_seconds()
            fastest = min(fastest, before, after)
            busy += speed_adjusted(elapsed, before, after, fastest)
            done.timings.append((elapsed, before, after))
            check(done, index, instance, payload, reply)

    try:
        asyncio.run(loop())
    finally:
        close_service(service)
    return done


# ---------------------------------------------------------------------- #
# output checks (never timed)
# ---------------------------------------------------------------------- #


def _answer(workload: Workload, reply: Any) -> tuple[dict | None, Fraction | None, list[int]]:
    """``(decoded reply or None, makespan, assignment)``, no package calls."""
    if workload.tier == "oracle":
        return None, reply.makespan, list(reply.schedule.assignment)
    data = json.loads(reply)
    if data.get("ok") is not True:
        return data, None, []
    return data, Fraction(data["makespan"]), list(data["assignment"])


def record_hash(payload: dict, makespan: Fraction | None, assignment: list[int]) -> str:
    """sha256 of ``(instance, makespan, assignment)`` for one op."""
    text = json.dumps([payload, str(makespan), assignment], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hash_only(workload: Workload) -> Checker:
    """Records each op's answer and calls nothing in the package.

    The traced pass uses it: its wrappers are installed while it runs,
    and the full checks would record spans of their own.
    """
    def check(done: Pass, index: int, instance: Any, payload: dict, reply: Any) -> None:
        _, makespan, assignment = _answer(workload, reply)
        done.records.append(record_hash(payload, makespan, assignment))

    return check


def full_check(workload: Workload) -> Checker:
    """Checks every reply, recording failures, answers and quality ratios.

    A reply fails when it is not ``ok`` (or not ``feasible``), when
    ``certify_schedule`` rejects the returned assignment against the
    claimed makespan and the exact lower bound, when a repeated request
    does not come back cached and identical, or, on ``certify-exact``,
    when the optimum exceeds the makespan of the ``auto`` schedule.
    Schedules are audited against the benchmark's own instance object,
    not the program's decoding of it.
    """
    from repro.certify.validators import certify_schedule
    from repro.engine import solve
    from repro.scheduling.schedule import Schedule

    def problem_with(done: Pass, index: int, instance: Any, data: dict | None,
                     makespan: Fraction | None, assignment: list[int]) -> str | None:
        if data is not None:
            source = workload.source_index(index)
            if data.get("ok") is not True:
                return f"not ok: {data.get('error')}"
            if data.get("feasible") is not True:
                return "infeasible schedule"
            if data.get("id") != index:
                return f"reply id {data.get('id')} for request {index}"
            if data.get("cached") is not (source != index):
                return f"cached={data.get('cached')} but repeat={source != index}"
            if source != index and done.records[source] != done.records[index]:
                return "repeat differs from its first answer"
        report = certify_schedule(
            Schedule(instance, assignment, check=False), claimed_makespan=makespan
        )
        if not report.ok:
            return report.describe()
        if data is None and makespan > solve(instance).makespan:
            return "optimum exceeds the auto schedule"
        if report.lower_bound is not None and report.lower_bound > 0:
            done.ratios.append(float(makespan / report.lower_bound))
        return None

    def check(done: Pass, index: int, instance: Any, payload: dict, reply: Any) -> None:
        data, makespan, assignment = _answer(workload, reply)
        done.records.append(record_hash(payload, makespan, assignment))
        problem = problem_with(done, index, instance, data, makespan, assignment)
        if problem is not None:
            done.failures.append(f"op {index}: {problem}")

    return check


def digest(records: list[str]) -> str:
    """sha256 over the per-op record hashes, in op order."""
    return hashlib.sha256("".join(records).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------- #
# the two kinds of run
# ---------------------------------------------------------------------- #


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


Metrics = dict[str, tuple[float, str]]


def end_to_end(workload: Workload, seconds: float) -> tuple[Metrics, dict[str, Any]]:
    """The untraced run: ``(metrics, report)``."""
    close_service(build_service(workload.tier))   # compile and cache bytecode
    setup = measure_setup(workload.tier, SETUP_SAMPLES)
    done = run_pass(workload, full_check(workload), seconds, workload.min_ops)
    rss = peak_rss_mb()
    fastest = min(done.fastest_probe(), *(min(a, b) for _, a, b in setup))
    latencies = done.adjusted(fastest)
    p90 = nearest_rank(latencies, 0.9)
    head = workload.min_ops
    failed = len(done.failures)
    metrics = {
        "setup_s": (
            statistics.median(speed_adjusted(*timing, fastest) for timing in setup), "s"
        ),
        "throughput_ops_s": (done.ops / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "ok_ratio": ((done.ops - failed) / done.ops, "ratio"),
        "makespan_ratio_gmean": (
            math.exp(statistics.fmean(math.log(r) for r in done.ratios[:head]))
            if done.ratios else 0.0,
            "ratio",
        ),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = done.raw()
    report = {
        "attempted": done.ops,
        "failed": failed,
        "fail_ratio": failed / done.ops,
        "failures": done.failures[:10],
        "latency_samples": done.ops,
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "raw_busy_s": sum(raw),
        "raw_throughput_ops_s": done.ops / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_setup_s": statistics.median(t for t, _, _ in setup),
        "slowest_probe_vs_fastest": max(max(a, b) for _, a, b in done.timings) / fastest,
        "digest_ops": min(head, done.ops),
        "digest": digest(done.records[:head]),
    }
    return metrics, report


def traced(workload: Workload, seconds: float) -> tuple[Metrics, dict[str, Any]]:
    """The traced run: ``(per-layer metrics, report)``."""
    import tracing

    close_service(build_service(workload.tier))
    plain = run_pass(workload, full_check(workload), seconds / 2, min_ops=1)

    tracer = tracing.Tracer()

    def on_op(index: int) -> None:
        tracer.op = index

    with tracing.install(tracer) as missing_sites:
        with_trace = run_pass(
            workload, hash_only(workload), 0.0,
            min_ops=plain.ops, max_ops=plain.ops, on_op=on_op,
        )

    # the wrappers must not change a single answer
    mismatched = sum(a != b for a, b in zip(plain.records, with_trace.records))
    failures = plain.failures + (
        [f"{mismatched} op(s) answered differently when traced"] if mismatched else []
    )
    fastest = min(plain.fastest_probe(), with_trace.fastest_probe())
    traced_wall = sum(with_trace.raw())

    metrics = tracing.layer_metrics(tracer, traced_wall)
    metrics["trace.overhead_ratio"] = (
        sum(with_trace.adjusted(fastest)) / sum(plain.adjusted(fastest)) - 1.0
    )
    metrics["trace.ops"] = plain.ops
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "environment": environment(),
        "span_fields": ["id", "name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
    }))
    report = {
        "attempted": plain.ops,
        "failed": len(plain.failures) + mismatched,
        "failures": failures[:10],
        "untraced_busy_s": sum(plain.raw()),
        "traced_busy_s": traced_wall,
        "missing_sites": missing_sites,
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "digest": digest(with_trace.records),
    }
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}, report


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, **overrides: Any) -> dict[str, Any]:
    """One benchmark invocation; prints the summary, returns the result."""
    check_environment()
    workload = make_workload(args.workload, args.seed, **overrides)
    if args.trace:
        metrics, report = traced(workload, args.seconds)
    else:
        metrics, report = end_to_end(workload, args.seconds)
    report.update(workload=workload.name, seed=workload.seed,
                  trace=args.trace, environment=environment())
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>14}  {name:<52} {value:>14.6g} {unit}")
    if "fail_ratio" in report:
        print(f"{workload.name:>14}  {'fail_ratio':<52} {report['fail_ratio']:>14.6g} ratio")
    print(json.dumps({"report": report}))
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
