"""Driver, reporter, CLI, and repo-self-check tests for the linter."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.staticcheck import (
    LINT_FORMAT,
    lint_file,
    lint_paths,
    module_path_for,
    render_json,
    render_text,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


class TestModulePath:
    def test_package_file(self):
        path = REPO_SRC / "repro" / "certify" / "auditor.py"
        assert module_path_for(path) == "repro/certify/auditor.py"

    def test_nested_package(self):
        path = REPO_SRC / "repro" / "staticcheck" / "rules" / "base.py"
        assert module_path_for(path) == "repro/staticcheck/rules/base.py"

    def test_non_package_file_falls_back_to_name(self, tmp_path):
        f = tmp_path / "script.py"
        f.write_text("x = 1\n")
        assert module_path_for(f) == "script.py"


class TestDriver:
    def test_lint_file_matches_scope_regardless_of_root(self, tmp_path):
        # a synthetic package named repro/certify triggers RS001 scoping
        pkg = tmp_path / "repro" / "certify"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        bad = pkg / "bad.py"
        bad.write_text("RATIO = 1.5\n")
        report = lint_file(bad)
        assert [f.rule_id for f in report.active()] == ["RS001"]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "a.py").write_text("import ortools\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.py").write_text("import pulp\n")
        report = lint_paths([tmp_path])
        assert report.files_scanned == 2
        assert sorted(f.rule_id for f in report.active()) == [
            "RS005",
            "RS005",
        ]

    def test_unreadable_file_is_a_finding(self, tmp_path):
        report = lint_paths([tmp_path / "missing.py"])
        (finding,) = report.active()
        assert finding.rule_id == "RS000"
        assert "unreadable" in finding.message


class TestReporters:
    def test_json_schema(self, tmp_path):
        (tmp_path / "a.py").write_text("import ortools\n")
        report = lint_paths([tmp_path])
        payload = json.loads(render_json(report))
        assert payload["format"] == LINT_FORMAT
        assert payload["ok"] is False
        assert payload["counts"]["active"] == 1
        (entry,) = payload["findings"]
        assert entry["rule"] == "RS005"
        assert entry["line"] == 1

    def test_text_failure_and_hints(self, tmp_path):
        (tmp_path / "a.py").write_text("import ortools\n")
        report = lint_paths([tmp_path])
        text = render_text(report, fix_hints=True)
        assert "lint FAILED" in text
        assert "hint:" in text

    def test_text_clean(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        text = render_text(lint_paths([tmp_path]))
        assert "lint clean" in text


class TestCli:
    def test_lint_clean_exit_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_violation_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import ortools\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "RS005" in capsys.readouterr().out

    def test_lint_json_artifact(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import ortools\n")
        out = tmp_path / "report.json"
        code = main(
            ["lint", "--format", "json", "--out", str(out), str(tmp_path)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["format"] == LINT_FORMAT
        assert payload["ok"] is False
        # stdout carries the same schema
        assert json.loads(capsys.readouterr().out)["format"] == LINT_FORMAT

    def test_lint_rules_subset(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import ortools\n")
        assert main(["lint", "--rules", "RS004", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_lint_unknown_rule_exit_two(self, tmp_path, capsys):
        assert main(["lint", "--rules", "RS999", str(tmp_path)]) == 2
        assert "RS999" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RS001", "RS002", "RS003", "RS004", "RS005"):
            assert rule_id in out


class TestTypingGate:
    def test_pyproject_mypy_config_parses(self):
        import tomllib

        config = tomllib.loads(
            (REPO_SRC.parent / "pyproject.toml").read_text()
        )
        mypy = config["tool"]["mypy"]
        assert mypy["mypy_path"] == "src"
        overrides = config["tool"]["mypy"]["overrides"]
        strict = overrides[0]
        assert "repro.engine.*" in strict["module"]
        assert strict["disallow_untyped_defs"] is True

    def test_py_typed_marker_shipped(self):
        import tomllib

        assert (REPO_SRC / "repro" / "py.typed").is_file()
        config = tomllib.loads(
            (REPO_SRC.parent / "pyproject.toml").read_text()
        )
        package_data = config["tool"]["setuptools"]["package-data"]
        assert "py.typed" in package_data["repro"]

    def test_strict_tier_has_no_unannotated_defs(self):
        """A local stand-in for mypy's disallow_untyped_defs (mypy is
        only guaranteed in CI): every function in the strict tier must
        annotate every parameter and its return."""
        import ast

        missing: list[str] = []
        strict = [
            path
            for pkg in ("engine", "certify", "runtime", "staticcheck", "perf")
            for path in sorted((REPO_SRC / "repro" / pkg).rglob("*.py"))
        ]
        strict.append(REPO_SRC / "repro" / "scheduling" / "dp_unrelated.py")
        for path in strict:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                bad = [
                    a.arg
                    for a in params
                    if a.annotation is None and a.arg not in ("self", "cls")
                ]
                if node.returns is None:
                    bad.append("(return)")
                if bad:
                    missing.append(
                        f"{path.name}:{node.lineno} {node.name}: {bad}"
                    )
        assert not missing, "\n".join(missing)

    def test_mypy_accepts_config_when_available(self):
        import subprocess
        import sys

        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0


class TestRepoSelfCheck:
    def test_repo_src_is_lint_clean(self):
        """The gate the CI runs: the repo's own src/ must pass its linter.

        Every waiver must carry a reason and suppress something — the
        driver reports missing reasons and unused waivers as RS000,
        which fails this test too.
        """
        report = lint_paths([REPO_SRC])
        assert report.active() == [], render_text(report)

    def test_repo_waivers_all_used_and_reasoned(self):
        report = lint_paths([REPO_SRC])
        assert report.waivers, "the repo documents waivers; expected some"
        for waiver in report.waivers:
            assert waiver.reason, f"waiver without reason: {waiver}"
            assert waiver.used, f"unused waiver: {waiver}"
