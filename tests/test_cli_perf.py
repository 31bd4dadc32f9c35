"""Tests for the ``repro perf`` subcommand (scenarios + schema gate)."""

from __future__ import annotations

import json

from repro.cli import main
from repro.io import load_json, save_json
from repro.perf import BenchRecord, validate_bench_record


class TestPerfScenarios:
    def test_single_target_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "perf", "--target", "fastpath", "--smoke",
                "--repeat", "1", "--warmup", "0",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PERF_fastpath" in out
        assert "speedup" in out
        artifact = tmp_path / "BENCH_PERF_fastpath.json"
        data = load_json(artifact)
        validate_bench_record(data)
        record = BenchRecord.from_dict(data)
        assert record.columns[0] == "case"
        assert record.phases  # before/after timings recorded
        # the trajectory accumulated the same record
        trajectory = tmp_path / "BENCH_trajectory.jsonl"
        lines = trajectory.read_text().strip().splitlines()
        assert len(lines) == 1
        validate_bench_record(json.loads(lines[0]))

    def test_all_targets_smoke(self, tmp_path, capsys):
        code = main(
            [
                "perf", "--smoke", "--repeat", "1", "--warmup", "0",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("BENCH_PERF_*.json"))
        assert names == ["BENCH_PERF_fastpath.json"]

    def test_profile_flag_prints_hotspots(self, tmp_path, capsys):
        code = main(
            [
                "perf", "--target", "fastpath", "--smoke",
                "--repeat", "1", "--warmup", "0", "--profile",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cumtime (ms)" in out

    def test_unknown_target_is_an_error(self, tmp_path, capsys):
        code = main(
            ["perf", "--target", "warp_drive", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown perf target" in capsys.readouterr().err


class TestPerfCheck:
    def _valid_record(self) -> dict:
        return BenchRecord.build(
            "E1_x", ["a"], [[1]], git_rev="r", timestamp="t"
        ).to_dict()

    def test_clean_directory_passes(self, tmp_path, capsys):
        save_json(self._valid_record(), tmp_path / "BENCH_E1_x.json")
        assert main(["perf", "--check", str(tmp_path)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_schema_violation_fails(self, tmp_path, capsys):
        save_json(self._valid_record(), tmp_path / "BENCH_E1_x.json")
        bad = self._valid_record()
        bad["rows"] = [["too", "wide"]]
        save_json(bad, tmp_path / "BENCH_E2_bad.json")
        assert main(["perf", "--check", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "SCHEMA VIOLATION" in captured.err
        assert "BENCH_E2_bad.json" in captured.err

    def test_bad_trajectory_line_fails(self, tmp_path, capsys):
        save_json(self._valid_record(), tmp_path / "BENCH_E1_x.json")
        (tmp_path / "BENCH_trajectory.jsonl").write_text(
            json.dumps({"format": "nope"}) + "\n"
        )
        assert main(["perf", "--check", str(tmp_path)]) == 1

    def test_truncated_trajectory_line_reports_not_crashes(self, tmp_path, capsys):
        # a killed run leaves a half-written line; the gate must report
        # it as a violation and still print earlier findings
        bad = self._valid_record()
        bad["rows"] = [["too", "wide"]]
        save_json(bad, tmp_path / "BENCH_E2_bad.json")
        (tmp_path / "BENCH_trajectory.jsonl").write_text(
            json.dumps(self._valid_record()) + "\n{\"format\": \"repro/ben"
        )
        assert main(["perf", "--check", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "BENCH_E2_bad.json" in captured.err
        assert "BENCH_trajectory.jsonl:1" in captured.err

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        assert main(["perf", "--check", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def _dirty_record(self) -> dict:
        return BenchRecord.build(
            "E1_x", ["a"], [[1]], git_rev="abc1234-dirty", timestamp="t"
        ).to_dict()

    def test_dirty_rev_rejected_by_default(self, tmp_path, capsys):
        save_json(self._dirty_record(), tmp_path / "BENCH_E1_x.json")
        assert main(["perf", "--check", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "dirty-tree git_rev" in err
        assert "--allow-dirty" in err

    def test_dirty_rev_in_trajectory_rejected(self, tmp_path, capsys):
        save_json(self._valid_record(), tmp_path / "BENCH_E1_x.json")
        (tmp_path / "BENCH_trajectory.jsonl").write_text(
            json.dumps(self._dirty_record()) + "\n"
        )
        assert main(["perf", "--check", str(tmp_path)]) == 1
        assert "BENCH_trajectory.jsonl:0: dirty-tree" in capsys.readouterr().err

    def test_allow_dirty_accepts_dirty_revs(self, tmp_path, capsys):
        save_json(self._dirty_record(), tmp_path / "BENCH_E1_x.json")
        (tmp_path / "BENCH_trajectory.jsonl").write_text(
            json.dumps(self._dirty_record()) + "\n"
        )
        assert main(["perf", "--check", str(tmp_path), "--allow-dirty"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_allow_dirty_still_enforces_schema(self, tmp_path, capsys):
        bad = self._dirty_record()
        bad["rows"] = [["too", "wide"]]
        save_json(bad, tmp_path / "BENCH_E1_x.json")
        assert main(["perf", "--check", str(tmp_path), "--allow-dirty"]) == 1
        assert "SCHEMA VIOLATION" in capsys.readouterr().err
