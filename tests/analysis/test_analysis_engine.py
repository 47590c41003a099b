"""Engine, pragma, and reporter self-tests for ``repro.analysis``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (
    Finding,
    lint_paths,
    render_json,
    render_text,
    run_analysis,
)
from repro.analysis.engine import all_rules, iter_python_files, repro_module
from repro.analysis.pragmas import collect_pragmas, suppressed

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
FIXTURES = os.path.join(
    os.path.dirname(__file__), "fixtures", "repro"
)


class TestPragmas:
    def test_rule_scoped_pragma(self):
        pragmas = collect_pragmas("x = 1  # repro: ignore[RPR002]\n")
        assert suppressed(pragmas, 1, "RPR002")
        assert not suppressed(pragmas, 1, "RPR003")
        assert not suppressed(pragmas, 2, "RPR002")

    def test_bare_pragma_suppresses_all_rules(self):
        pragmas = collect_pragmas("x = 1  # repro: ignore\n")
        assert suppressed(pragmas, 1, "RPR002")
        assert suppressed(pragmas, 1, "RPR012")

    def test_multiple_rules_in_one_pragma(self):
        pragmas = collect_pragmas("x = 1  # repro: ignore[RPR003, RPR009]\n")
        assert suppressed(pragmas, 1, "RPR003")
        assert suppressed(pragmas, 1, "RPR009")
        assert not suppressed(pragmas, 1, "RPR002")

    def test_pragma_inside_string_literal_is_ignored(self):
        pragmas = collect_pragmas('x = "# repro: ignore[RPR002]"\n')
        assert not suppressed(pragmas, 1, "RPR002")


class TestEngine:
    def test_directory_walks_skip_fixture_dirs(self):
        walked = list(iter_python_files([os.path.join(REPO_ROOT, "tests")]))
        assert walked
        assert not any(
            "fixtures" in os.path.dirname(display) for _path, display in walked
        )

    def test_explicitly_named_fixture_files_are_analyzed(self):
        path = os.path.join(FIXTURES, "runtime", "rpr002_determinism.py")
        assert [display for _path, display in iter_python_files([path])] == [path]
        assert run_analysis([path])

    def test_unparsable_file_yields_rpr000(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = run_analysis([str(bad)])
        assert [f.rule_id for f in findings] == ["RPR000"]

    def test_select_restricts_rules(self):
        path = os.path.join(FIXTURES, "runtime", "rpr003_async.py")
        findings = run_analysis([path], select={"RPR002"})
        assert findings == []

    def test_rule_catalog_is_complete_and_ordered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ["RPR002", "RPR003", "RPR009", "RPR012"]

    def test_repro_module_resolution(self):
        assert repro_module("src/repro/runtime/actors.py") == (
            "repro",
            "runtime",
            "actors",
        )
        assert repro_module("tools/check_doc_links.py") is None


class TestReporters:
    FINDINGS = [
        Finding(
            path="src/x.py",
            line=3,
            col=7,
            rule_id="RPR002",
            message="time.time() is nondeterministic",
        )
    ]

    def test_text_report(self):
        text = render_text(self.FINDINGS)
        assert "src/x.py:3:7: RPR002 error: time.time()" in text
        assert "1 error(s), 0 warning(s)" in text
        assert render_text([]) == "no findings"

    def test_json_report_shape(self):
        payload = json.loads(render_json(self.FINDINGS))
        assert payload["summary"] == {
            "total": 1,
            "errors": 1,
            "warnings": 0,
            "by_rule": {"RPR002": 1},
        }
        entry = payload["findings"][0]
        assert entry["path"] == "src/x.py"
        assert entry["line"] == 3
        assert entry["rule"] == "RPR002"
        assert entry["severity"] == "error"

    def test_lint_paths_exit_status(self):
        _, clean = lint_paths(
            [os.path.join(REPO_ROOT, "src", "repro", "errors.py")], render_text
        )
        assert clean == 0
        _, dirty = lint_paths(
            [os.path.join(FIXTURES, "runtime", "rpr003_async.py")], render_text
        )
        assert dirty == 1


class TestEntryPoints:
    """``python -m repro.analysis`` and ``repro lint`` drive the engine."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_module_entry_point(self, fmt):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                os.path.join(FIXTURES, "core", "rpr012_exception.py"),
                "--format",
                fmt,
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert result.returncode == 1
        assert "RPR012" in result.stdout

    def test_cli_lint_subcommand(self, capsys):
        from repro.cli import main

        status = main(
            ["lint", os.path.join(FIXTURES, "runtime", "rpr003_async.py")]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "RPR003" in out

    def test_list_rules(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == ["RPR002", "RPR003", "RPR009", "RPR012"]

    @pytest.mark.parametrize("argv", [["srcc"], ["src", "/nonexistent"]])
    def test_missing_path_is_a_one_line_error(self, argv, capsys):
        """A mistyped path used to lint as ``no findings``, exit 0."""
        from repro.analysis.__main__ import main
        from repro.cli import main as cli_main

        for entry in (main, lambda args: cli_main(["lint", *args])):
            assert entry(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: no such file or directory: {argv[-1]}\n"
            assert captured.out == ""
