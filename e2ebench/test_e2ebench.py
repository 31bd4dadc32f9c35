"""Tiny-shape self-test of the benchmark driver and its trace wrappers.

Runs every workload through the same code paths as a real run, only
with small instances and a short clock::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: per workload: sizes small enough for a sub-second run
TINY = {
    "dense-auto": {"half": 30, "min_ops": 8},
    "sparse-fptas": {"half": 20, "min_ops": 10},
    "certify-exact": {"half": 4, "min_ops": 8},
}


@pytest.fixture(autouse=True)
def _one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _invoke(name: str, trace: int, seed: int = 3) -> dict:
    args = run.parse_args(
        ["--workload", name, "--seed", str(seed), "--seconds", "0.05",
         "--trace", str(trace)]
    )
    return run.run(args, **TINY[name])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_run_is_correct_and_complete(name, capsys):
    result = _invoke(name, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY[name]["min_ops"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["report"]
    assert report["fail_ratio"] == 0.0
    assert set(report["environment"]) >= {"nproc", "python", "numpy", "git_revision"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_digest_repeats_for_a_seed(name, capsys):
    digests = []
    for _ in range(2):
        _invoke(name, trace=0)
        lines = capsys.readouterr().out.strip().splitlines()
        digests.append(json.loads(lines[-1])["report"]["digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_sites(name, capsys):
    before = {
        (module, path): tracing._resolve(module, path)
        for module, path, *_ in tracing.SITES + tracing.COUNT_SITES
    }
    before = {key: vars(owner)[attr] for key, (owner, attr) in before.items()}
    result = _invoke(name, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["report"]
    assert report["missing_sites"] == []
    assert metrics["trace.coverage_ratio"] == pytest.approx(1.0, abs=0.1)
    oracle_calls = metrics["certify.oracle.certified_optimal.calls"]
    assert (oracle_calls > 0) == (name == "certify-exact")
    for (module, path), original in before.items():
        owner, attr = tracing._resolve(module, path)
        assert vars(owner)[attr] is original, f"{module}.{path} left wrapped"


def test_full_check_counts_a_wrong_answer_as_failed():
    run.check_environment()
    from repro.engine.service import EngineService

    w = workloads.make_workload("dense-auto", 3, **TINY["dense-auto"])
    instance, payload, request = w.request(0)
    reply = json.loads(EngineService().handle_line(request))
    done = run.Pass()
    check = run.full_check(w)
    check(done, 0, instance, payload, json.dumps(reply))
    assert done.failures == []
    reply["makespan"] = "1/1000"     # below the exact lower bound
    check(done, 0, instance, payload, json.dumps(reply))
    assert len(done.failures) == 1 and "op 0" in done.failures[0]


def test_sites_resolve_modules_not_reexported_functions():
    # repro.core re-exports r2_fptas over its submodule; the site table
    # must reach the module that calls solve_r2_dp
    import types

    owner, attr = tracing._resolve("repro.core.r2_fptas", "solve_r2_dp")
    assert isinstance(owner, types.ModuleType) and attr in vars(owner)


def test_self_times_subtract_merged_children():
    spans = [
        [0, "root", 0.0, 10.0, None, 0],
        [1, "a", 1.0, 4.0, 0, 0],
        [2, "b", 3.0, 6.0, 0, 0],      # overlaps a: covered once
        [3, "c", 1.5, 2.0, 1, 0],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5})


def test_gnnp_edges_are_distinct_and_in_range():
    edges = workloads.gnnp_edges(random.Random(5), 50, 0.1)
    assert len(set(edges)) == len(edges)
    assert all(0 <= i < 50 and 0 <= j < 50 for i, j in edges)
    assert 150 < len(edges) < 350


def test_sparse_repeats_point_at_fresh_ops():
    w = workloads.make_workload("sparse-fptas", 7)
    for index in range(60):
        source = w.source_index(index)
        assert source <= index and w.source_index(source) == source


def _run_cli(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "certify-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _no_result(stdout: str) -> bool:
    lines = stdout.strip().splitlines()
    return not lines or not lines[-1].startswith('{"correct"')


def test_refuses_to_run_with_fastpath_pinned():
    env = dict(os.environ, REPRO_FASTPATH="int")
    done = _run_cli(HERE.parent, env)
    assert done.returncode != 0 and _no_result(done.stdout)
    assert "REPRO_FASTPATH" in done.stderr


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "REPRO_FASTPATH")}
    done = _run_cli(tmp_path, env)
    assert done.returncode != 0 and _no_result(done.stdout)
