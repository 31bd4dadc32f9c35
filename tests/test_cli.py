"""Tests for :mod:`repro.cli` — the ``python -m repro`` interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import load_instance


class TestInfo:
    def test_exit_code(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "sqrt_approx" in out
        assert "Algorithm 1" in out


class TestGenerate:
    def test_gnnp(self, tmp_path, capsys):
        out_path = tmp_path / "inst.json"
        code = main(
            [
                "generate", "--family", "gnnp", "--n", "8", "--p", "0.2",
                "--seed", "3", "--speeds", "2,1", "--out", str(out_path),
            ]
        )
        assert code == 0
        inst = load_instance(out_path)
        assert inst.n == 16  # gnnp(n, ...) has n vertices per side
        assert inst.m == 2

    def test_complete_bipartite_with_jobs(self, tmp_path):
        out_path = tmp_path / "kab.json"
        code = main(
            [
                "generate", "--family", "complete_bipartite", "--n", "2",
                "--b", "3", "--jobs", "5,4,3,2,1", "--speeds", "3,3/2,1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        inst = load_instance(out_path)
        assert inst.n == 5
        assert inst.p == (5, 4, 3, 2, 1)
        from fractions import Fraction

        assert inst.speeds == (Fraction(3), Fraction(3, 2), Fraction(1))

    @pytest.mark.parametrize(
        "family,n",
        [("path", 6), ("crown", 3), ("matching", 4), ("tree", 9),
         ("empty", 5), ("star", 4), ("cycle", 6)],
    )
    def test_all_simple_families(self, tmp_path, family, n):
        out_path = tmp_path / f"{family}.json"
        assert main(
            ["generate", "--family", family, "--n", str(n), "--out", str(out_path)]
        ) == 0
        assert out_path.exists()

    def test_forest_and_degree_bounded(self, tmp_path):
        for extra, family in (
            (["--trees", "2"], "forest"),
            (["--b", "6", "--max-degree", "3"], "degree_bounded"),
        ):
            out_path = tmp_path / f"{family}.json"
            assert main(
                ["generate", "--family", family, "--n", "6", "--out", str(out_path)]
                + extra
            ) == 0

    def test_complete_multipartite_family(self, tmp_path):
        from repro.graphs.conflict import CompleteMultipartiteGraph

        out_path = tmp_path / "cmp.json"
        assert main(
            ["generate", "--family", "complete_multipartite",
             "--parts", "2,2,3", "--free", "1", "--speeds", "3,2,1",
             "--out", str(out_path)]
        ) == 0
        inst = load_instance(out_path)
        assert isinstance(inst.graph, CompleteMultipartiteGraph)
        assert inst.n == 8
        assert [len(p) for p in inst.graph.parts()] == [2, 2, 3]

    def test_block_family_chain_and_random(self, tmp_path):
        from repro.graphs.conflict import BlockGraph

        chained = tmp_path / "chain.json"
        assert main(
            ["generate", "--family", "block", "--blocks", "3,2,4",
             "--speeds", "2,1,1,1", "--out", str(chained)]
        ) == 0
        inst = load_instance(chained)
        assert isinstance(inst.graph, BlockGraph)
        assert inst.graph.blocks() == ((0, 1, 2), (2, 3), (3, 4, 5, 6))
        randomized = tmp_path / "rand.json"
        assert main(
            ["generate", "--family", "block", "--n", "10",
             "--max-block", "3", "--seed", "2", "--speeds", "2,1,1",
             "--out", str(randomized)]
        ) == 0
        inst = load_instance(randomized)
        assert inst.n == 10
        assert all(len(b) <= 3 for b in inst.graph.blocks())

    def test_eligibility_flag(self, tmp_path):
        out_path = tmp_path / "masked.json"
        assert main(
            ["generate", "--family", "matching", "--n", "3",
             "--speeds", "3,2,1,1", "--eligible-choices", "2",
             "--seed", "0", "--out", str(out_path)]
        ) == 0
        inst = load_instance(out_path)
        assert inst.has_eligibility
        assert all(
            mask is None or len(mask) == 2 for mask in inst.eligible
        )

    def test_eligibility_rejected_for_unrelated(self, tmp_path, capsys):
        code = main(
            ["generate", "--family", "matching", "--n", "3",
             "--kind", "unrelated", "--m", "2", "--eligible-choices", "2",
             "--out", str(tmp_path / "x.json")]
        )
        assert code != 0
        assert "eligib" in capsys.readouterr().err.lower()

    def test_unrelated_kind_with_model(self, tmp_path):
        from repro.scheduling.instance import UnrelatedInstance

        out_path = tmp_path / "r.json"
        code = main(
            [
                "generate", "--family", "crown", "--n", "3",
                "--kind", "unrelated", "--model", "two_value", "--m", "3",
                "--seed", "5", "--out", str(out_path),
            ]
        )
        assert code == 0
        inst = load_instance(out_path)
        assert isinstance(inst, UnrelatedInstance)
        assert inst.m == 3 and inst.n == 6

    def test_single_job_value_without_comma(self, tmp_path):
        """Regression: '--jobs 7' (no comma) must parse as a one-element
        integer list, not be rejected as an unknown profile."""
        out_path = tmp_path / "one.json"
        assert main(
            ["generate", "--family", "empty", "--n", "1", "--jobs", "7",
             "--out", str(out_path)]
        ) == 0
        assert load_instance(out_path).p == (7,)

    def test_named_jobs_profile(self, tmp_path):
        out_path = tmp_path / "heavy.json"
        assert main(
            ["generate", "--family", "empty", "--n", "5", "--jobs",
             "heavy_tailed", "--seed", "2", "--out", str(out_path)]
        ) == 0
        inst = load_instance(out_path)
        assert len(inst.p) == 5

    def test_malformed_speeds_is_a_diagnostic(self, tmp_path, capsys):
        """Regression: bad --speeds used to escape as a raw ValueError
        traceback instead of an 'error:' line and exit code 2."""
        code = main(
            ["generate", "--family", "path", "--n", "4", "--speeds", "fast,1",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSolve:
    @pytest.fixture
    def instance_path(self, tmp_path):
        out_path = tmp_path / "inst.json"
        main(
            [
                "generate", "--family", "matching", "--n", "3",
                "--speeds", "2,1", "--out", str(out_path),
            ]
        )
        return out_path

    def test_auto(self, instance_path, capsys):
        assert main(["solve", str(instance_path)]) == 0
        out = capsys.readouterr().out
        assert "Cmax" in out and "feasible=True" in out

    def test_explicit_algorithm(self, instance_path, capsys):
        assert main(["solve", str(instance_path), "--algorithm", "sqrt_approx"]) == 0

    def test_gantt_flag(self, instance_path, capsys):
        assert main(["solve", str(instance_path), "--gantt"]) == 0
        assert "Gantt chart" in capsys.readouterr().out

    def test_polish_flag(self, instance_path, capsys):
        assert main(
            ["solve", str(instance_path), "--algorithm", "two_machine_split",
             "--polish"]
        ) == 0
        out = capsys.readouterr().out
        assert "feasible=True" in out

    def test_schedule_output(self, instance_path, tmp_path, capsys):
        sched_path = tmp_path / "schedule.json"
        assert main(["solve", str(instance_path), "--out", str(sched_path)]) == 0
        data = json.loads(sched_path.read_text())
        assert data["kind"] == "schedule"
        assert data["feasible"] is True

    def test_unknown_algorithm_is_an_error(self, instance_path, capsys):
        assert main(["solve", str(instance_path), "--algorithm", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.json")]) == 2


class TestStructure:
    def test_describes_complete_bipartite(self, tmp_path, capsys):
        out_path = tmp_path / "kab.json"
        main(
            [
                "generate", "--family", "complete_bipartite", "--n", "2",
                "--b", "2", "--out", str(out_path),
            ]
        )
        assert main(["structure", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "K_{2,2}" in out
        assert "uniform (Q)" in out
        assert "complete_multipartite" in out


class TestBatch:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro/batch-spec/v1",
                    "defaults": {"speeds": "2,1"},
                    "instances": [
                        {"family": "crown", "n": 4, "count": 3},
                        {"family": "gnnp", "n": 5, "p": 0.2, "seed": 9, "count": 2},
                    ],
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_runs_spec_and_writes_jsonl(self, spec_path, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["batch", str(spec_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "5 instances" in stdout
        assert "per-algorithm summary" in stdout
        from repro.io import read_jsonl

        records = read_jsonl(out)
        assert len(records) == 5
        assert all(r["kind"] == "batch_result" for r in records)
        # crown replicas are identical graphs: deduplicated, not re-solved
        assert sum(1 for r in records if r["cached"]) == 2

    def test_warm_cache_rerun_solves_nothing(self, spec_path, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        args = ["batch", str(spec_path), "--cache", str(cache), "--no-summary"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "(0 solved, 5 cached" in capsys.readouterr().out

    def test_workers_flag(self, spec_path, capsys):
        assert main(["batch", str(spec_path), "--workers", "2",
                     "--no-summary"]) == 0
        assert "2 worker(s)" in capsys.readouterr().out

    def test_missing_spec_is_an_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_spec_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"instances": []}', encoding="utf-8")
        assert main(["batch", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_json_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"instances": [', encoding="utf-8")
        assert main(["batch", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_certify_flag_stores_certificates(self, spec_path, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main(
            ["batch", str(spec_path), "--certify", "--no-summary",
             "--out", str(out)]
        )
        assert code == 0
        from repro.io import read_jsonl

        records = read_jsonl(out)
        assert records and all(
            r["certificate"] is not None and r["certificate"]["ok"]
            for r in records
        )


class TestCertify:
    def test_small_sweep_is_clean(self, capsys):
        code = main(
            ["certify", "--n", "4", "--seeds", "1", "--oracle-max-n", "8",
             "--algorithms", "sqrt_approx,r2_fptas,brute_force"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "certification sweep clean" in out

    def test_unknown_algorithm_is_an_error_not_a_clean_sweep(self, capsys):
        code = main(["certify", "--n", "4", "--algorithms", "sqrtapprox_typo"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown algorithm" in err

    def test_single_instance_audit(self, tmp_path, capsys):
        """``certify --instance`` audits one saved instance — including
        the non-bipartite conflict families."""
        inst_path = tmp_path / "blk.json"
        assert main(
            ["generate", "--family", "block", "--blocks", "3,2",
             "--speeds", "2,1,1", "--out", str(inst_path)]
        ) == 0
        code = main(
            ["certify", "--instance", str(inst_path), "--oracle-max-n", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_writes_audit_jsonl(self, tmp_path, capsys):
        out = tmp_path / "audits.jsonl"
        code = main(
            ["certify", "--n", "4", "--seeds", "1", "--oracle-max-n", "8",
             "--algorithms", "sqrt_approx", "--out", str(out)]
        )
        assert code == 0
        from repro.io import read_jsonl

        rows = read_jsonl(out)
        assert rows and all(r["kind"] == "audit_row" for r in rows)
        assert all(r["algorithm"] == "sqrt_approx" for r in rows)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--family", "path"])

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "E999"]) == 1
        assert "no benchmark" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        """The importlib.metadata fallback must track pyproject.toml."""
        import re
        from pathlib import Path

        from repro import __version__

        pyproject = (
            Path(__file__).resolve().parents[1] / "pyproject.toml"
        ).read_text(encoding="utf-8")
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
        assert __version__ == declared


class TestSolveEngineFlags:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        path = tmp_path / "crown.json"
        assert main(
            ["generate", "--family", "crown", "--n", "4", "--speeds", "3,1",
             "--out", str(path)]
        ) == 0
        return path

    def test_explain_prints_reasons(self, instance_path, capsys):
        capsys.readouterr()
        assert main(["solve", str(instance_path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "dispatch: chose 'q2_unit_exact'" in out
        assert "requires unrelated machines" in out  # a rejection reason
        assert "Cmax" in out  # still solves after explaining

    def test_explain_infeasible_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "one_machine.json"
        assert main(
            ["generate", "--family", "crown", "--n", "3", "--speeds", "1",
             "--out", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["solve", str(path), "--explain"]) == 2
        captured = capsys.readouterr()
        assert "dispatch failed" in captured.out
        assert "two machines" in captured.err

    def test_portfolio_solves(self, instance_path, capsys):
        capsys.readouterr()
        assert main(["solve", str(instance_path), "--portfolio", "3"]) == 0
        out = capsys.readouterr().out
        assert "portfolio:" in out and "wins with" in out
        assert "feasible=True" in out

    def test_portfolio_rejects_named_algorithm(self, instance_path, capsys):
        """--portfolio must not silently drop an explicit --algorithm."""
        capsys.readouterr()
        code = main(
            ["solve", str(instance_path), "--algorithm", "greedy",
             "--portfolio", "3"]
        )
        assert code == 2
        assert "cannot honour --algorithm" in capsys.readouterr().err


class TestServe:
    def _request_line(self, request_id=1, **extra):
        import json

        from repro.graphs import generators
        from repro.io import instance_to_dict
        from repro.scheduling.instance import unit_uniform_instance
        from fractions import Fraction

        inst = unit_uniform_instance(
            generators.crown(4), [Fraction(3), Fraction(1)]
        )
        return json.dumps(
            {"op": "solve", "id": request_id, "instance": instance_to_dict(inst),
             **extra}
        )

    def test_stdin_one_shot(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        lines = self._request_line(1) + "\n" + self._request_line(2) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code = main(["serve", "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["cached"] for r in responses] == [False, True]
        assert responses[0]["makespan"] == responses[1]["makespan"]
        assert "1 solved, 1 cached" in captured.err

    def test_max_requests_limits_the_stream(self, capsys, monkeypatch):
        import io
        import json

        lines = "\n".join(self._request_line(i) for i in range(5)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--max-requests", "2"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert json.loads(captured.out.splitlines()[1])["cached"] is True

    def test_request_errors_set_the_exit_code(self, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("garbage\n"))
        assert main(["serve"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is False
        assert "1 errors" in captured.err

    def test_max_requests_counts_requests_not_lines(self, capsys, monkeypatch):
        import io

        # blank lines are skipped without answering and must not eat
        # request slots (the TCP path counts answered requests too)
        lines = "\n\n" + self._request_line(1) + "\n\n" + self._request_line(2) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--max-requests", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_summary_reports_serving_counters(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self._request_line() + "\n"))
        assert main(["serve"]) == 0
        err = capsys.readouterr().err
        assert "0 coalesced, 0 rejected" in err

    def _tcp_one_shot(self, argv, requests):
        """Run `repro serve` in a thread, drive it over TCP, return responses."""
        import io
        import json
        import re
        import socket
        import sys
        import threading
        import time

        stderr = io.StringIO()
        codes = []

        def run():
            real = sys.stderr
            sys.stderr = stderr
            try:
                codes.append(main(argv))
            finally:
                sys.stderr = real

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        match = None
        while match is None:
            assert time.monotonic() < deadline, stderr.getvalue()
            time.sleep(0.02)
            match = re.search(r"serving on ([\d.]+):(\d+)", stderr.getvalue())
        host, port = match.group(1), int(match.group(2))
        responses = []
        with socket.create_connection((host, port), timeout=30) as conn:
            with conn.makefile("rw", encoding="utf-8") as stream:
                for line in requests:
                    stream.write(line + "\n")
                    stream.flush()
                    responses.append(json.loads(stream.readline()))
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [0], stderr.getvalue()
        return responses, stderr.getvalue()

    def test_tcp_default_is_the_async_tier(self):
        requests = [self._request_line(1), self._request_line(2)]
        responses, err = self._tcp_one_shot(
            ["serve", "--port", "0", "--max-requests", "2",
             "--max-inflight", "4", "--max-queue", "8"],
            requests,
        )
        assert [r["format"] for r in responses] == ["repro/serve/v2"] * 2
        assert responses[0]["cached"] is False
        assert responses[1]["cached"] is True
        assert "1 solved, 1 cached" in err

    def test_stats_interval_flag_logs_metrics(self):
        import io
        import json
        import re
        import socket
        import sys
        import threading
        import time

        stderr = io.StringIO()
        codes = []

        def run():
            real = sys.stderr
            sys.stderr = stderr
            try:
                codes.append(
                    main(["serve", "--port", "0", "--max-requests", "2",
                          "--stats-interval", "0.05"])
                )
            finally:
                sys.stderr = real

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        match = None
        while match is None:
            assert time.monotonic() < deadline, stderr.getvalue()
            time.sleep(0.02)
            match = re.search(r"serving on ([\d.]+):(\d+)", stderr.getvalue())
        host, port = match.group(1), int(match.group(2))
        with socket.create_connection((host, port), timeout=30) as conn:
            with conn.makefile("rw", encoding="utf-8") as stream:
                stream.write(self._request_line(1) + "\n")
                stream.flush()
                first = json.loads(stream.readline())
                time.sleep(0.25)  # let a few stats intervals fire
                stream.write('{"op": "ping"}\n')
                stream.flush()
                second = json.loads(stream.readline())
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [0]
        assert first["ok"] and second["ok"]
        err = stderr.getvalue()
        assert "serve[stats]" in err and "qps=" in err and "p50=" in err
