"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package version and the algorithm registry.
``generate``
    Build an instance from a named graph family plus machine data and
    write it as JSON.
``solve``
    Load an instance JSON, run one algorithm (default: auto dispatch),
    print the outcome, optionally a Gantt chart, optionally save the
    schedule JSON.
``structure``
    Print the structural fingerprint of an instance's graph.
``batch``
    Expand a batch spec file and run every instance through the
    :mod:`repro.runtime` engine (worker pool, dedup, result cache),
    streaming JSONL results and printing a per-algorithm summary;
    ``--certify`` audits every schedule through :mod:`repro.certify`.
``certify``
    Sweep the algorithm registry across workload models and graph
    families, audit every schedule, compare ratios against declared
    guarantees (exact-oracle ground truth where tractable), and exit
    non-zero on any violation.
``serve``
    Persistent serving loop (:mod:`repro.engine.service`): JSONL
    requests on stdin (or the asyncio TCP tier of
    :mod:`repro.engine.aserve` with ``--port``), canonical content-hash
    keys, repeats answered from a sharded result cache.
``perf``
    Measure the optimized hot paths (the numpy tiers against the integer
    references, the parallel oracle, BatchRunner fan-out) against what
    they replace and emit machine-readable ``BENCH_PERF_*`` artifacts;
    ``--check DIR`` validates existing ``BENCH_*.json`` artifacts
    against the schema instead (the CI gate).
``experiment``
    Re-run one experiment (E1..) by invoking its benchmark file through
    pytest.

Every command is importable and unit-testable through :func:`main`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.analysis.gantt import render_gantt, render_schedule_summary
from repro.analysis.tables import format_table, render_number
from repro.engine import (
    available_algorithms,
    explain_dispatch,
    portfolio_solve,
    solve,
)
from repro.exceptions import ReproError
from repro.graphs.conflict import ConflictGraph
from repro.graphs.structure import analyze_structure
from repro.io import (
    instance_to_dict,
    load_instance,
    save_json,
    schedule_to_dict,
)
from repro.runtime import (
    CONFLICT_FAMILIES,
    GRAPH_FAMILIES,
    BatchRunner,
    build_conflict_graph,
    build_family_graph,
    load_spec_file,
)
from repro.scheduling.instance import UniformInstance
from repro.workloads import (
    UNRELATED_MODELS,
    build_unrelated_instance,
    parse_jobs,
    parse_speeds,
    random_eligibility,
)
from repro.workloads.parsing import JOB_PROFILES

__all__ = ["main", "build_parser"]

_FAMILIES = GRAPH_FAMILIES + CONFLICT_FAMILIES


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for doc generation/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scheduling with bipartite incompatibility graphs "
            "(Pikies & Furmańczyk, IPPS 2022) — reproduction toolkit"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package version and algorithm registry")

    gen = sub.add_parser("generate", help="generate an instance JSON")
    gen.add_argument("--family", choices=_FAMILIES, required=True)
    gen.add_argument("--n", type=int, default=20, help="size parameter")
    gen.add_argument("--b", type=int, default=None, help="second size (K_{a,b}, degree_bounded)")
    gen.add_argument("--p", type=float, default=0.1, help="edge probability (gnnp)")
    gen.add_argument("--max-degree", type=int, default=4, help="degree bound (degree_bounded)")
    gen.add_argument("--trees", type=int, default=3, help="tree count (forest)")
    gen.add_argument(
        "--parts",
        type=str,
        default=None,
        help="complete_multipartite: comma-separated class sizes "
        "('2,2,3'), or a single integer class count for a random split "
        "of --n vertices",
    )
    gen.add_argument(
        "--free",
        type=int,
        default=0,
        help="complete_multipartite: isolated (conflict-free) vertices "
        "appended after the classes",
    )
    gen.add_argument(
        "--blocks",
        type=str,
        default=None,
        help="block: comma-separated clique sizes chained at cut "
        "vertices ('3,2,4'); omit for a random block graph on --n "
        "vertices",
    )
    gen.add_argument(
        "--max-block",
        type=int,
        default=4,
        help="block: largest clique size for the random generator",
    )
    gen.add_argument(
        "--eligible-choices",
        type=int,
        default=None,
        help="kind=uniform: restrict each job to this many seeded "
        "machine choices (machine-eligibility masks)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--speeds",
        type=str,
        default="1,1,1",
        help="comma-separated machine speeds (fractions allowed: '3,3/2,1'; "
        "kind=uniform only)",
    )
    gen.add_argument(
        "--jobs",
        type=str,
        default="unit",
        help="'unit', a named weight profile ('uniform', 'heavy_tailed', "
        "'one_giant'), or comma-separated integer processing requirements",
    )
    gen.add_argument(
        "--kind",
        choices=("uniform", "unrelated"),
        default="uniform",
        help="machine environment (Q with --speeds, or R via a workload model)",
    )
    gen.add_argument(
        "--model",
        choices=tuple(sorted(UNRELATED_MODELS)),
        default="uniform_pij",
        help="p_ij model for kind=unrelated (repro.workloads)",
    )
    gen.add_argument(
        "--m", type=int, default=2, help="machine count (kind=unrelated)"
    )
    gen.add_argument("--out", type=str, required=True, help="output JSON path")

    slv = sub.add_parser("solve", help="solve an instance JSON")
    slv.add_argument("instance", type=str, help="instance JSON path")
    slv.add_argument("--algorithm", type=str, default="auto")
    slv.add_argument(
        "--explain",
        action="store_true",
        help="print per-algorithm accept/reject reasons for this dispatch",
    )
    slv.add_argument(
        "--portfolio", type=int, default=None, metavar="K",
        help="race up to K eligible algorithms and keep the best schedule",
    )
    slv.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    slv.add_argument(
        "--polish",
        action="store_true",
        help="apply local-search moves/swaps after solving (never regresses)",
    )
    slv.add_argument("--out", type=str, default=None, help="write schedule JSON here")

    st = sub.add_parser("structure", help="analyze an instance's graph structure")
    st.add_argument("instance", type=str, help="instance JSON path")

    bat = sub.add_parser(
        "batch", help="run a batch spec through the runtime engine"
    )
    bat.add_argument("spec", type=str, help="batch spec JSON path")
    bat.add_argument(
        "--algorithm", type=str, default="auto",
        help="default algorithm for entries without their own",
    )
    bat.add_argument("--workers", type=int, default=1, help="worker process count")
    bat.add_argument(
        "--chunk-jobs", type=int, default=256,
        help="submissions drawn per scheduling round",
    )
    bat.add_argument("--out", type=str, default=None, help="results JSONL path")
    bat.add_argument(
        "--cache", type=str, default=None,
        help="persistent result cache (JSONL; created on first run)",
    )
    bat.add_argument(
        "--no-summary", action="store_true",
        help="skip the per-algorithm summary table",
    )
    bat.add_argument(
        "--certify", action="store_true",
        help="audit every schedule through repro.certify and store "
        "certificates on the result records",
    )

    cert = sub.add_parser(
        "certify",
        help="sweep the algorithm registry for guarantee violations "
        "(schedule audits + exact-oracle ground truth)",
    )
    cert.add_argument(
        "--instance", type=str, default=None, metavar="PATH",
        help="audit this one instance JSON instead of sweeping the "
        "generated suite (every applicable algorithm runs on it)",
    )
    cert.add_argument("--n", type=int, default=10, help="instance size parameter")
    cert.add_argument("--m", type=int, default=3, help="machine count")
    cert.add_argument("--seeds", type=int, default=1, help="replicas per cell")
    cert.add_argument("--seed", type=int, default=0, help="base seed")
    cert.add_argument(
        "--oracle-max-n", type=int, default=14,
        help="largest n ground truth is computed for (exact oracle)",
    )
    cert.add_argument(
        "--workers", type=int, default=1,
        help="search processes for the exact oracle's parallel branch "
        "and bound (the certified optimum is identical for any value)",
    )
    cert.add_argument(
        "--algorithms", type=str, default=None,
        help="comma-separated algorithm subset (default: every applicable)",
    )
    cert.add_argument("--out", type=str, default=None, help="audit rows JSONL path")

    srv = sub.add_parser(
        "serve",
        help="persistent solve service: JSONL requests on stdin (or TCP "
        "with --port), repeats answered from a sharded result cache",
    )
    srv.add_argument(
        "--cache-dir", type=str, default=None,
        help="sharded result-cache directory (created on first run; "
        "omit for an in-memory cache)",
    )
    srv.add_argument(
        "--algorithm", type=str, default="auto",
        help="default algorithm for requests without their own",
    )
    srv.add_argument(
        "--port", type=int, default=None,
        help="serve on this TCP port instead of stdin/stdout (0 = "
        "ephemeral); TCP serving is concurrent (asyncio)",
    )
    srv.add_argument("--host", type=str, default="127.0.0.1")
    srv.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after this many requests (one-shot smoke tests)",
    )
    srv.add_argument(
        "--workers", type=int, default=1,
        help="async tier: solver processes (1 = in-process thread pool; "
        ">1 = persistent multiprocessing pool)",
    )
    srv.add_argument(
        "--max-inflight", type=int, default=8,
        help="async tier: concurrent fresh solves admitted at once",
    )
    srv.add_argument(
        "--max-queue", type=int, default=64,
        help="async tier: admitted solves allowed to wait beyond "
        "--max-inflight before fresh requests are rejected as overloaded",
    )
    srv.add_argument(
        "--backlog", type=int, default=128,
        help="TCP listen backlog (kernel-queued pending connections)",
    )
    srv.add_argument(
        "--stats-interval", type=float, default=None,
        help="async tier: log a qps/latency/coalesce metrics line to "
        "stderr every this many seconds",
    )

    perf = sub.add_parser(
        "perf",
        help="measure the optimized hot paths against what they replace "
        "and emit BENCH_PERF_* artifacts (or --check existing "
        "BENCH_*.json artifacts against the schema)",
    )
    perf.add_argument(
        "--target", type=str, default="all",
        help="scenario to run: all, or one of the named hot paths "
        "(see repro.perf.scenarios)",
    )
    perf.add_argument("--repeat", type=int, default=5, help="timed runs per case (median reported)")
    perf.add_argument("--warmup", type=int, default=1, help="discarded runs before timing")
    perf.add_argument(
        "--smoke", action="store_true",
        help="CI shape: smaller sweeps, same code paths",
    )
    perf.add_argument(
        "--profile", action="store_true",
        help="also print the cProfile top-10 of each scenario's largest case",
    )
    perf.add_argument(
        "--out-dir", type=str, default=None,
        help="artifact directory (default: benchmarks/out next to the package)",
    )
    perf.add_argument(
        "--check", type=str, default=None, metavar="DIR",
        help="validate every BENCH_*.json (and BENCH_trajectory.jsonl) in "
        "DIR against the schema and exit; non-zero on any violation",
    )
    perf.add_argument(
        "--allow-dirty", action="store_true",
        help="with --check: accept records measured on a dirty working "
        "tree (git_rev ending in -dirty); rejected by default because "
        "such numbers are not reproducible from any commit",
    )

    exp = sub.add_parser("experiment", help="re-run one experiment (E1, E2, ...)")
    exp.add_argument("experiment_id", type=str, help="experiment id, e.g. E3")

    rep = sub.add_parser("report", help="aggregate benchmarks/out into one document")
    rep.add_argument("--out", type=str, default=None, help="write markdown here (default: stdout)")

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant linter (repro.staticcheck)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rules",
        type=str,
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the repro/lint/v1 schema)",
    )
    lint.add_argument(
        "--fix-hints",
        action="store_true",
        help="append each rule's remedy to text findings",
    )
    lint.add_argument(
        "--out",
        type=str,
        default=None,
        help="also write the report here (e.g. the CI artifact)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    return parser


def _make_graph(args: argparse.Namespace) -> ConflictGraph:
    if args.family == "complete_multipartite":
        spec: dict = {"family": "complete_multipartite", "free": args.free}
        if args.parts is not None and "," in args.parts:
            spec["sizes"] = [int(x) for x in args.parts.split(",")]
        else:
            spec["n"] = args.n
            if args.parts is not None:
                spec["parts"] = int(args.parts)
        return build_conflict_graph(spec, seed=args.seed)
    if args.family == "block":
        if args.blocks is not None:
            spec = {
                "family": "block",
                "chain": [int(x) for x in args.blocks.split(",")],
            }
        else:
            spec = {"family": "block", "n": args.n, "max_block": args.max_block}
        return build_conflict_graph(spec, seed=args.seed)
    return build_family_graph(
        args.family,
        args.n,
        b=args.b,
        p=args.p,
        max_degree=args.max_degree,
        trees=args.trees,
        seed=args.seed,
    )


def _cmd_info() -> int:
    print(f"repro {__version__} — Pikies & Furmańczyk (IPPS 2022), arXiv:2106.14354")
    rows = [
        [spec.name, spec.guarantee, spec.anchor]
        for spec in available_algorithms()
    ]
    print(format_table(["algorithm", "guarantee", "paper anchor"], rows))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _make_graph(args)
    named = args.jobs == "unit" or args.jobs in JOB_PROFILES
    jobs_value = args.jobs if named else args.jobs.split(",")
    p = parse_jobs(jobs_value, graph.n, args.seed)
    if args.kind == "unrelated":
        if args.eligible_choices is not None:
            raise ReproError(
                "--eligible-choices applies to kind=uniform only "
                "(unrelated models express restrictions as forbidden times)"
            )
        instance = build_unrelated_instance(
            graph, args.model, args.m, p=p, seed=args.seed
        )
        detail = f"model={args.model}"
    else:
        speeds = parse_speeds(args.speeds)
        eligible = (
            None
            if args.eligible_choices is None
            else random_eligibility(
                graph.n,
                len(speeds),
                choices=args.eligible_choices,
                seed=args.seed,
            )
        )
        instance = UniformInstance(graph, p, speeds, eligible=eligible)
        detail = f"sum p={instance.total_p}"
    path = save_json(instance_to_dict(instance), args.out)
    print(
        f"wrote {path}: kind={args.kind}, n={instance.n}, m={instance.m}, "
        f"|E|={instance.graph.edge_count}, {detail}"
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    if args.explain:
        report = explain_dispatch(instance, algorithm=args.algorithm)
        print(report.table())
        if report.error is not None:
            print(f"error: {report.error}", file=sys.stderr)
            return 2
        if args.portfolio is None and report.chosen is not None:
            # reuse the resolved choice: the printed table and the
            # executed algorithm can then never diverge, and the auto
            # dispatch (structure scan included) runs once, not twice
            args.algorithm = report.chosen
    if args.portfolio is not None:
        if args.algorithm != "auto":
            # racing a fixed candidate list and honouring a named
            # algorithm are contradictory requests — refuse loudly
            # rather than silently dropping the name
            print(
                "error: --portfolio races the strongest eligible methods "
                "and cannot honour --algorithm; drop one of the two flags",
                file=sys.stderr,
            )
            return 2
        result = portfolio_solve(instance, k=args.portfolio)
        print(result.table())
        schedule, chosen = result.schedule, result.chosen
    else:
        schedule = solve(instance, algorithm=args.algorithm)
        chosen = args.algorithm
    if args.polish and schedule.is_feasible():
        from repro.scheduling.local_search import improve_schedule

        result = improve_schedule(schedule)
        if result.improvement > 0:
            print(
                f"polish: {render_number(result.initial_makespan)} -> "
                f"{render_number(result.schedule.makespan)} "
                f"({result.moves} moves, {result.swaps} swaps)"
            )
        schedule = result.schedule
    print(
        f"algorithm={chosen}  Cmax={render_number(schedule.makespan)} "
        f"({schedule.makespan})  feasible={schedule.is_feasible()}"
    )
    print(render_schedule_summary(schedule))
    if args.gantt:
        print(render_gantt(schedule))
    if args.out:
        save_json(schedule_to_dict(schedule), args.out)
        print(f"schedule written to {args.out}")
    return 0


def _cmd_structure(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    structure = analyze_structure(instance.graph)
    print(structure.describe())
    env = "uniform (Q)" if isinstance(instance, UniformInstance) else "unrelated (R)"
    print(f"machine environment: {env}, m={instance.m}")
    applicable = [s.name for s in available_algorithms(instance)]
    print("applicable algorithms: " + ", ".join(applicable))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import contextlib
    import time
    from pathlib import Path

    from repro.io import dump_jsonl_line

    tasks = load_spec_file(args.spec)
    runner = BatchRunner(
        algorithm=args.algorithm,
        workers=args.workers,
        chunk_jobs=args.chunk_jobs,
        cache=args.cache,
        certify=args.certify,
    )
    start = time.perf_counter()
    results = []
    with contextlib.ExitStack() as stack:
        fh = (
            stack.enter_context(Path(args.out).open("w", encoding="utf-8"))
            if args.out
            else None
        )
        for result in runner.run(tasks):
            results.append(result)
            if fh is not None:
                fh.write(dump_jsonl_line(result.to_dict()) + "\n")
                fh.flush()
    elapsed = time.perf_counter() - start
    stats = runner.stats
    print(
        f"batch: {stats.total} instances ({stats.solved} solved, "
        f"{stats.cached} cached, {stats.errors} errors) with "
        f"{args.workers} worker(s) in {elapsed:.3f}s "
        f"(solver time {stats.wall_time_s:.3f}s)"
    )
    if args.out:
        print(f"results written to {args.out}")
    if args.cache:
        print(f"cache: {args.cache}")
    if not args.no_summary:
        from repro.analysis.suites import batch_summary_table

        print(batch_summary_table(results, title="per-algorithm summary"))
    return 1 if stats.errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine import EngineService

    def announce(address) -> None:
        host, port = address
        print(f"serving on {host}:{port}", file=sys.stderr)

    if args.port is not None:
        import asyncio

        from repro.engine import AsyncEngineService, serve_async

        service = AsyncEngineService(
            cache=args.cache_dir,
            algorithm=args.algorithm,
            workers=args.workers,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
        )
        try:
            served = asyncio.run(
                serve_async(
                    service,
                    host=args.host,
                    port=args.port,
                    backlog=args.backlog,
                    max_requests=args.max_requests,
                    ready=announce,
                    stats_interval=args.stats_interval,
                )
            )
        except KeyboardInterrupt:
            served = service.stats.requests
        finally:
            service.close()
    else:
        service = EngineService(cache=args.cache_dir, algorithm=args.algorithm)
        source = sys.stdin
        if args.max_requests is not None:
            from itertools import islice

            # count requests, not raw lines: serve_stream skips blank
            # lines without answering them, and the TCP path's
            # max_requests counts answered requests too
            source = islice(
                (line for line in sys.stdin if line.strip()),
                args.max_requests,
            )
        service.serve_stream(source, sys.stdout)
        served = service.stats.requests
    stats = service.stats
    print(
        f"serve: {served} request(s) ({stats.solved} solved, "
        f"{stats.cached} cached, {stats.coalesced} coalesced, "
        f"{stats.rejected} rejected, {stats.errors} errors)",
        file=sys.stderr,
    )
    # mirror `repro batch`: a shell pipeline gating on the exit code
    # must see request errors, not a blanket 0
    return 1 if stats.errors else 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis.suites import certification_suite, violation_table
    from repro.certify import VIOLATION_STATUSES, audit_guarantees
    from repro.engine import ALGORITHMS
    from repro.io import write_jsonl

    algorithms = (
        None
        if args.algorithms is None
        else tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    )
    if algorithms is not None:
        unknown = sorted(set(algorithms) - set(ALGORITHMS))
        if unknown:
            # a typo must not read as "certification sweep clean (0 audits)"
            known = ", ".join(sorted(ALGORITHMS))
            raise ReproError(
                f"unknown algorithm(s) {unknown}; known: {known}"
            )
    if args.instance is not None:
        from pathlib import Path

        from repro.certify import audit_instance

        instance = load_instance(args.instance)
        suite = [instance]
        rows = audit_instance(
            Path(args.instance).stem,
            instance,
            algorithms=algorithms,
            oracle_max_n=args.oracle_max_n,
            oracle_workers=args.workers,
        )
    else:
        suite = certification_suite(
            n=args.n, m=args.m, seeds=args.seeds, seed=args.seed
        )
        rows = audit_guarantees(
            suite,
            algorithms=algorithms,
            oracle_max_n=args.oracle_max_n,
            oracle_workers=args.workers,
        )
    if args.out:
        write_jsonl((row.to_dict() for row in rows), args.out)
        print(f"{len(rows)} audit rows written to {args.out}")
    print(violation_table(rows))
    violations = [r for r in rows if r.status in VIOLATION_STATUSES]
    print(
        f"certify: {len(suite)} instances, {len(rows)} audits, "
        f"{len(violations)} violation(s)"
    )
    return 1 if violations else 0


def _cmd_perf_check(directory: str, allow_dirty: bool = False) -> int:
    from pathlib import Path

    from repro.exceptions import BenchSchemaError
    from repro.io import load_json
    from repro.perf import validate_bench_record

    def dirty_rev(data: object) -> str | None:
        # records measured on a modified tree carry a "-dirty" git_rev
        # suffix (see repro.perf.record.git_revision) and are not
        # reproducible from any commit — reject unless --allow-dirty
        if allow_dirty or not isinstance(data, dict):
            return None
        rev = data.get("git_rev")
        if isinstance(rev, str) and rev.endswith("-dirty"):
            return rev
        return None

    root = Path(directory)
    checked = 0
    failures: list[str] = []
    for path in sorted(root.glob("BENCH_*.json")):
        checked += 1
        try:
            data = load_json(path)
            validate_bench_record(data)
        except (BenchSchemaError, ValueError) as exc:
            failures.append(f"{path.name}: {exc}")
            continue
        if (rev := dirty_rev(data)) is not None:
            failures.append(
                f"{path.name}: dirty-tree git_rev {rev!r} "
                "(re-measure on a clean tree or pass --allow-dirty)"
            )
    trajectory = root / "BENCH_trajectory.jsonl"
    if trajectory.exists():
        # parse line-by-line: one truncated append (a killed CI run) must
        # report as a violation, not crash the gate and swallow the rest
        import json

        # the trajectory is append-only: timestamps must never go
        # backwards (an out-of-order line means a hand edit or a merge
        # gone wrong) and a (experiment_id, git_rev) pair must appear at
        # most once (a duplicate means the same measurement was appended
        # twice instead of re-measured on a new revision)
        prev_stamp: tuple[str, int] | None = None
        seen_pairs: dict[tuple[str, str], int] = {}
        for i, line in enumerate(
            trajectory.read_text(encoding="utf-8").splitlines()
        ):
            if not line.strip():
                continue
            checked += 1
            try:
                data = json.loads(line)
                validate_bench_record(data)
            except (BenchSchemaError, json.JSONDecodeError) as exc:
                failures.append(f"{trajectory.name}:{i}: {exc}")
                continue
            if (rev := dirty_rev(data)) is not None:
                failures.append(
                    f"{trajectory.name}:{i}: dirty-tree git_rev {rev!r} "
                    "(re-measure on a clean tree or pass --allow-dirty)"
                )
            stamp = data.get("timestamp")
            if isinstance(stamp, str):
                # ISO-8601 UTC strings order lexicographically
                if prev_stamp is not None and stamp < prev_stamp[0]:
                    failures.append(
                        f"{trajectory.name}:{i}: timestamp {stamp!r} is "
                        f"before line {prev_stamp[1]}'s {prev_stamp[0]!r} "
                        "(the trajectory is append-only)"
                    )
                prev_stamp = (stamp, i)
            pair = (str(data.get("experiment_id")), str(data.get("git_rev")))
            if pair in seen_pairs:
                failures.append(
                    f"{trajectory.name}:{i}: duplicate (experiment_id, "
                    f"git_rev) {pair!r} (first at line {seen_pairs[pair]}; "
                    "re-measure on a new revision instead of re-appending)"
                )
            else:
                seen_pairs[pair] = i
    for failure in failures:
        print(f"SCHEMA VIOLATION {failure}", file=sys.stderr)
    print(
        f"perf --check: {checked} record(s) in {root}, "
        f"{len(failures)} violation(s)"
    )
    if checked == 0:
        print(f"error: no BENCH_*.json artifacts found in {root}", file=sys.stderr)
        return 2
    return 1 if failures else 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.perf import profile_top, write_bench_record
    from repro.perf.scenarios import SCENARIO_NAMES, run_scenario

    if args.check is not None:
        return _cmd_perf_check(args.check, allow_dirty=args.allow_dirty)
    targets = SCENARIO_NAMES if args.target == "all" else (args.target,)
    out_dir = (
        Path(args.out_dir)
        if args.out_dir is not None
        else Path(__file__).resolve().parents[2] / "benchmarks" / "out"
    )
    for target in targets:
        outcome = run_scenario(
            target, repeat=args.repeat, warmup=args.warmup, smoke=args.smoke
        )
        record = outcome.record
        print(
            format_table(
                list(record.columns),
                [list(row) for row in record.rows],
                title=f"{record.experiment_id} @ {record.git_rev} "
                f"(repeat={args.repeat}, warmup={args.warmup}"
                f"{', smoke' if args.smoke else ''})",
            )
        )
        path = write_bench_record(record, out_dir)
        print(f"[bench record written to {path}]\n")
        if args.profile:
            print(profile_top(outcome.profile_fn, label=target).table())
            print()
    return 0


def _cmd_experiment(experiment_id: str) -> int:
    import subprocess
    from pathlib import Path

    import re

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    matches = sorted(bench_dir.glob("bench_*.py"))
    wanted = experiment_id.lower()
    hits = []
    for p in matches:
        first_line = p.read_text(encoding="utf-8").split("\n", 1)[0].lower()
        declared = re.findall(r"\be\d+\b", first_line)
        if wanted in declared or wanted == p.stem:
            hits.append(p)
    if not hits:
        ids = ", ".join(p.stem for p in matches)
        print(f"no benchmark file mentions {experiment_id!r}; available: {ids}")
        return 1
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *[str(p) for p in hits],
        "--benchmark-only",
        "-q",
        "-s",
    ]
    print("running: " + " ".join(cmd))
    return subprocess.call(cmd)


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.report import collect_tables, render_report

    out_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "out"
    tables = collect_tables(out_dir) if out_dir.is_dir() else []
    text = render_report(
        tables, title="Regenerated experiment tables (Pikies & Furmańczyk, IPPS 2022)"
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report with {len(tables)} tables written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.staticcheck import get_rules, lint_paths, render_json, render_text

    if args.list_rules:
        for rule in get_rules():
            info = rule.describe()
            print(f"{info['id']}  {info['title']}")
            print(f"    scope:     {', '.join(info['scope'])}")
            print(f"    rationale: {info['rationale']}")
            print(f"    anchor:    {info['anchor']}")
            print(f"    fix:       {info['fix_hint']}")
        return 0

    try:
        ids = (
            tuple(p.strip() for p in args.rules.split(",") if p.strip())
            if args.rules
            else None
        )
        rules = get_rules(ids)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        rendered = render_json(report)
    else:
        rendered = render_text(report, fix_hints=args.fix_hints)
    print(rendered)
    if args.out:
        # the artifact is always the machine-readable schema
        Path(args.out).write_text(render_json(report) + "\n", encoding="utf-8")
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info()
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "structure":
            return _cmd_structure(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "perf":
            return _cmd_perf(args)
        if args.command == "experiment":
            return _cmd_experiment(args.experiment_id)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
